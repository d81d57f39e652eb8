"""CLI output pinned across commits.

Criterion 9 compares two hash seeds within one checkout; this file pins
the exact stdout bytes (as sha256) and exit codes of a fixed set of
invocations, so that a refactor which changes any printed byte fails
here. Regenerate the digests only for a deliberate output change.
"""
import hashlib
from itertools import combinations

import pytest

from helpers import ideal_to_payload
from test_weights import _cube_fan
from tropchow import io
from tropchow.cli import main
from tropchow.fans import fan_from_max_cones, stellar_subdivision
from tropchow.ideals import MonomialIdeal
from tropchow.piecewise import courant_function
from tropchow.weights import mw_of_pp


def _p2():
    return fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def _p3():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return fan_from_max_cones(3, [list(c) for c in combinations(e, 3)])


def _documents():
    p2, p3 = _p2(), _p3()
    line = [[1, 0, 0], [0, 1, 0]]
    h3 = mw_of_pp(courant_function(p3, 3), 1)
    return {
        "p3.json": ("fan", io.fan_to_payload(p3)),
        "cube.json": ("fan", io.fan_to_payload(_cube_fan())),
        "p3bl.json": ("fan", io.fan_to_payload(
            stellar_subdivision(p3, p3.max_cones[0]))),
        "line.json": ("setup", {
            "base": io.fan_to_payload(p3),
            "center": line,
            "modification": None,
            "cycle": {"codim": 2,
                      "coefficients": [{"cone": line, "value": 1}]}}),
        "l2.json": ("pp", io.pp_to_payload(courant_function(p2, 2))),
        "h3.json": ("weight", io.weight_to_payload(h3)),
        "h3cube.json": ("weight", io.weight_to_payload(
            mw_of_pp(courant_function(p3, 3) * courant_function(p3, 3)
                     * courant_function(p3, 3), 3))),
        "pt3.json": ("ideal", ideal_to_payload(
            MonomialIdeal(p3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))))),
        "fat3.json": ("ideal", ideal_to_payload(
            MonomialIdeal(p3, ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))))),
    }


# (argv, exit code, sha256 of stdout)
GOLDEN = [
    (["fulton", "verify", "--setup", "line.json"], 0,
     "ceb276be203f5db4c72f29bda868c9a76a6299517b1b35bc3006764887d5a364"),
    (["--format", "json", "fulton", "verify", "--setup", "line.json"], 0,
     "edd1a5a06433dee474664c3c8b2daaad63a9b23b2609fdf1ef0190c4f7f5e009"),
    (["pp", "eval", "--pp", "l2.json", "--point", "1/2,-1/3"], 0,
     "b46522e3c1502ac4adb3a5101c2d43dd58a6115abccb32dbc91ec95cfb8ffbba"),
    (["--format", "json", "pp", "eval", "--pp", "l2.json",
      "--point=-1/3,-1/2"], 0,
     "dfa827025432c60ef4667bee032ba7af549827a2b2d9c8a4a7c1d9ebbed23eb9"),
    (["fan", "validate", "--fan", "p3.json"], 0,
     "3e34e2d8c37f8238c8c17aecf2b9156375837b53efb6dcaa9180e099ac17a649"),
    # no top cone of the cube fan is simplicial
    (["fan", "validate", "--fan", "cube.json"], 0,
     "53f2348127ad48fd18c7d12577ba165425bca00aca76fb34cb6af494427006e7"),
    (["--format", "json", "fan", "refine", "--fan", "p3.json", "--other",
      "p3bl.json"], 0,
     "3407672ccbac22f69b6a4cd07e55dd933ae4b02e64ee5ed4492d5b6e517a0178"),
    (["pp", "courant", "--fan", "p3.json", "--cone", "3"], 0,
     "d5fc3c7b4b29e2375fb0b28a7eb760836469b596dc189d527cfeedecc992356b"),
    # the star of P3 at its ray (-1, -1, -1) is the standard P2
    (["--format", "json", "fan", "star", "--fan", "p3.json", "--cone", "0"],
     0, "c6ea63116fd10e90f5f740b350b4f58744cca5c35e84582cf77cf99b6283934b"),
    (["chow", "degree", "--weight", "h3cube.json"], 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["--format", "json", "chow", "degree", "--weight", "h3cube.json"], 0,
     "61779c6e6ceebd0db9c3f3a10f0a2eff4850f7329dc03dd79d34886f10619ad3"),
    (["chow", "product", "--weight", "h3.json", "--other", "h3.json"], 0,
     "83d8170024eb7a711f84e94ecb944b9a5ef7b594f36bd8567a1daf732bc66237"),
    (["segre", "--ideal", "pt3.json"], 0,
     "70b296ef5f1cfcb2b14892aff84b22d02511ab29c3408036ec29354a08786ed5"),
    (["--format", "json", "segre", "--ideal", "fat3.json"], 0,
     "f227e7a0bf5d44ecc3750da6a5fff86c1c6ccd90c4ca1609e935b13661e02483"),
    (["--format", "json", "tropdr", "subfan", "--g", "1", "--n", "2",
      "--contact", "1,-1", "--bound", "2"], 0,
     "2f3fe3dc91d20ef8a97f31e08704e1e3ae80de3a2abcf8eddd72dc3bd2eee1ff"),
    (["--format", "json", "tropdr", "subfan", "--g", "0", "--n", "4",
      "--contact", "2,1,-1,-2", "--bound", "3"], 0,
     "2356271b8eade2cbd3371165398d4f741216fa3345a949e2f9aac788a7cd63bc"),
    # the largest moduli the tropical checks reach, which no bench
    # workload calls
    (["tropdr", "rubber", "--g", "2", "--n", "2", "--contact=1,-1"], 0,
     "c09d38949b7b6397afd08b0e28e33fc3fbe058fc4c96fb1051f4bed95cbae2ec"),
    (["tropdr", "subfan", "--g", "2", "--n", "2", "--contact=1,-1"], 0,
     "fb0d2b3a4db4ccbd758e0924b63e8d68025f02618829be3fd80a62e1f276fa44"),
    (["tropdr", "rubber", "--g", "1", "--n", "4", "--contact=1,1,-1,-1"], 0,
     "0b1616fae26e61ff72692f42bef994d665a44ef05c26cd5547371eefd9617e20"),
    (["tropdr", "subfan", "--g", "1", "--n", "4", "--contact=1,1,-1,-1"], 0,
     "3febf3a8a6e0400cb15b98767e89ed24f6f145ee05175d77226cfbe00819b38a"),
]


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    for name, (kind, payload) in _documents().items():
        (tmp / name).write_text(io.print_document(io.Document(kind, payload)))
    return tmp


def _digest(argv, tmp, capsys):
    argv = [str(tmp / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_golden_bytes(argv, code, digest, golden_dir, capsys):
    assert _digest(argv, golden_dir, capsys) == (code, digest)
