import dataclasses
import json
from itertools import combinations

import pytest

from helpers import fm_displaced_meets, ideal_to_payload, thirty_prime_plane
from test_acceptance import _cli_run
from tropchow import cli, io, transforms, tropical
from tropchow.cli import build_parser, main
from tropchow.fans import fan_from_max_cones, insert_ray
from tropchow.ideals import MonomialIdeal
from tropchow.piecewise import courant_function
from tropchow.weights import MinkowskiWeight, mw_of_pp, mw_product


def _p2():
    return fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(1, 0), (-1, -1)], [(0, 1), (-1, -1)]])


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, kind, payload):
    path = tmp_path / name
    path.write_text(io.print_document(io.Document(kind, payload)))
    return str(path)


@pytest.fixture
def p2_doc(tmp_path):
    return _write(tmp_path, "p2.json", "fan", io.fan_to_payload(_p2()))


def test_fan_validate_text(capsys, p2_doc):
    code, out, _ = _run(capsys, "fan", "validate", "--fan", p2_doc)
    assert code == 0
    assert "rank 2, 3 rays, 3 maximal cones" in out
    assert "complete: yes" in out and "smooth: yes" in out


def test_fan_validate_json_is_canonical(capsys, p2_doc):
    code, out, _ = _run(capsys, "--format", "json",
                        "fan", "validate", "--fan", p2_doc)
    assert code == 0
    doc = io.parse_document(out)
    assert io.print_document(doc) == out
    code2, out2, _ = _run(capsys, "--format", "json",
                          "fan", "validate", "--fan", p2_doc)
    assert (code2, out2) == (0, out)


def test_fan_validate_rejects_overlap(capsys, tmp_path):
    path = _write(tmp_path, "bad.json", "fan", {
        "rank": 2,
        "max_cones": [[[1, 0], [0, 1]], [[1, 1], [1, -1]]]})
    code, out, _ = _run(capsys, "fan", "validate", "--fan", path)
    assert code == 1
    assert "invalid" in out


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = _run(capsys, "fan", "validate", "--fan", str(path))
    assert code == 2
    assert "parse error at line 1" in err


def _write_json(tmp_path, kind, payload, version=1):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(
        {"kind": kind, "version": version, "payload": payload}))
    return str(path)


_P1 = {"rank": 1, "max_cones": [[[1]], [[-1]]]}


def test_document_version_true_exits_2(capsys, tmp_path):
    path = _write_json(tmp_path, "fan", _P1, version=True)
    code, out, err = _run(capsys, "--format", "json",
                          "fan", "validate", "--fan", path)
    assert (code, out) == (2, "")
    assert "version" in err


def test_fan_rank_true_exits_2(capsys, tmp_path):
    path = _write_json(tmp_path, "fan", dict(_P1, rank=True))
    code, out, err = _run(capsys, "--format", "json",
                          "fan", "validate", "--fan", path)
    assert (code, out) == (2, "")
    assert "fan rank must be a nonnegative integer" in err


def test_weight_codim_true_exits_2(capsys, tmp_path):
    path = _write_json(tmp_path, "weight", {
        "fan": _P1, "codim": True, "values": [{"cone": [], "value": 1}]})
    code, out, err = _run(capsys, "chow", "degree", "--weight", path)
    assert (code, out) == (2, "")
    assert "codim must be an integer" in err


def test_setup_cycle_codim_true_exits_2(capsys, tmp_path):
    path = _write_json(tmp_path, "setup", {
        "base": io.fan_to_payload(_p2()),
        "center": [[0, 1], [1, 0]],
        "modification": None,
        "cycle": {"codim": True,
                  "coefficients": [{"cone": [[1, 0]], "value": 1}]}})
    code, out, err = _run(capsys, "fulton", "verify", "--setup", path)
    assert (code, out) == (2, "")
    assert "cycle codim must be an integer" in err


def test_unknown_field_exits_2(capsys, tmp_path):
    path = _write(tmp_path, "f.json", "fan",
                  {"rank": 2, "max_cones": [], "bogus": 1})
    code, _, err = _run(capsys, "fan", "stellar", "--fan", str(path),
                        "--cone", "0")
    assert code == 2
    assert "unknown field" in err


def _refused_document(capsys, tmp_path, kind, payload, *argv):
    """Run a command whose last flag takes the document; it must exit 2
    with one error line."""
    path = _write(tmp_path, f"{kind}.json", kind, payload)
    code, out, err = _run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_pp_repeating_a_piece_cone_exits_2(capsys, tmp_path):
    payload = io.pp_to_payload(courant_function(_p2(), 0))
    pieces = payload["pieces"]
    # the first cone again, with another polynomial: neither piece wins
    repeated = dict(pieces[0], poly=[{"exp": [0, 0], "coeff": "5"}])
    err = _refused_document(capsys, tmp_path, "pp",
                            dict(payload, pieces=pieces + [repeated]),
                            "pp", "eval", "--point", "1,0", "--pp")
    assert "piece repeats cone" in err


def test_weight_repeating_a_cone_exits_2(capsys, tmp_path):
    payload = io.weight_to_payload(mw_of_pp(courant_function(_p2(), 0), 1))
    values = payload["values"]
    repeated = dict(values[0], value="7")
    err = _refused_document(capsys, tmp_path, "weight",
                            dict(payload, values=values + [repeated]),
                            "chow", "balance", "--weight")
    assert "weight value repeats cone" in err


def test_poly_repeating_an_exponent_exits_2(capsys, tmp_path):
    payload = io.pp_to_payload(courant_function(_p2(), 0))
    pieces = [dict(p, poly=p["poly"] + p["poly"]) if p["poly"] else p
              for p in payload["pieces"]]
    err = _refused_document(capsys, tmp_path, "pp",
                            dict(payload, pieces=pieces),
                            "pp", "eval", "--point", "1,0", "--pp")
    assert "term repeats exponent" in err


@pytest.mark.parametrize("cones,message", [
    ([[[1, 0], [0, 1, 0]]],
     "ray [0, 1, 0] has 3 coordinates, not the fan rank 2"),
    ([[[1, 0, 0], [0, 1, 0]]], "ray [1, 0, 0] has 3 coordinates"),
    ([5], "cone must be a list of rays"),
], ids=["one long ray", "every ray long", "cone not a list"])
@pytest.mark.parametrize("argv", [("fan", "validate", "--fan"),
                                  ("fan", "star", "--cone", "0", "--fan")],
                         ids=["validate", "star"])
def test_fan_with_a_wrong_length_ray_exits_2(capsys, tmp_path, cones,
                                             message, argv):
    err = _refused_document(capsys, tmp_path, "fan",
                            {"rank": 2, "max_cones": cones}, *argv)
    assert message in err


def test_fan_with_a_line_is_invalid_or_refused(capsys, tmp_path):
    # the upper half-plane: validate reports it, every other command
    # refuses the document
    path = _write(tmp_path, "half.json", "fan",
                  {"rank": 2, "max_cones": [[[1, 0], [-1, 0], [0, 1]]]})
    assert _run(capsys, "fan", "validate", "--fan", path) == (
        1, "invalid: cone contains a line\n", "")
    assert _run(capsys, "fan", "star", "--fan", path, "--cone", "0") == (
        2, "", "error: invalid fan: cone contains a line\n")


@pytest.mark.parametrize("argv,message", [
    (("fan", "star", "--cone", "3"), "ray index 3 out of range"),
    (("pp", "courant", "--cone", "0,1"),
     "courant needs exactly one ray index"),
], ids=["cone out of range", "courant of two rays"])
def test_cone_flag_refusals_exit_2(capsys, p2_doc, argv, message):
    assert _run(capsys, *argv, "--fan", p2_doc) == (
        2, "", f"error: {message}\n")


def test_fan_stellar_adds_ray(capsys, p2_doc):
    code, out, _ = _run(capsys, "fan", "stellar", "--fan", p2_doc,
                        "--cone", "1,2")
    assert code == 0
    doc = io.parse_document(out)
    fan = io.fan_from_payload(doc.payload)
    assert (1, 1) in fan.rays and len(fan.max_cones) == 4


@pytest.mark.parametrize("ray", [
    "1,-1",   # outside the cone: once written out as overlapping cones
    "1,2,3",  # a 3-vector in a rank-2 fan
    "1,1",    # outside the cone: once refused as a cone with a line
])
def test_fan_stellar_refuses_a_ray_off_the_center(capsys, p2_doc, ray):
    code, out, err = _run(capsys, "--format", "json", "fan", "stellar",
                          "--fan", p2_doc, "--cone", "0,1", f"--ray={ray}")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: ray (") and "relative interior" in err


def test_fan_stellar_takes_an_interior_ray(capsys, p2_doc):
    code, out, _ = _run(capsys, "--format", "json", "fan", "stellar",
                        "--fan", p2_doc, "--cone", "0,1", "--ray=-1,1")
    assert code == 0
    fan = io.fan_from_payload(io.parse_document(out).payload)
    assert (-1, 1) in fan.rays and len(fan.max_cones) == 4


def test_fan_star_of_ray(capsys, p2_doc):
    code, out, _ = _run(capsys, "fan", "star", "--fan", p2_doc,
                        "--cone", "2")
    assert code == 0
    star = io.fan_from_payload(io.parse_document(out).payload)
    assert star.rank == 1 and star.is_complete()


def test_pp_courant_and_eval(capsys, tmp_path, p2_doc):
    out_path = str(tmp_path / "courant.json")
    code, _, _ = _run(capsys, "pp", "courant", "--fan", p2_doc,
                      "--cone", "2", "--out", out_path)
    assert code == 0
    code, out, _ = _run(capsys, "pp", "eval", "--pp", out_path,
                        "--point", "1,0")
    assert (code, out) == (0, "1\n")
    # leading minus needs the equals form so it is not read as a flag
    code, out, _ = _run(capsys, "pp", "eval", "--pp", out_path,
                        "--point=-1,-1")
    assert (code, out) == (0, "0\n")
    code, _, _ = _run(capsys, "pp", "eval", "--pp", out_path,
                      "--point", "1,2,3")
    assert code == 2


def test_pp_eval_off_the_support_spells_the_point(capsys, tmp_path):
    quadrant = fan_from_max_cones(2, [[(1, 0), (0, 1)]])
    ray = _write(tmp_path, "ray.json", "pp",
                 io.pp_to_payload(courant_function(quadrant, 0)))
    for point, spelled in (("-1,0", "(-1, 0)"), ("-1/2,4/2", "(-1/2, 2)")):
        assert _run(capsys, "pp", "eval", "--pp", ray, f"--point={point}") == (
            2, "", f"error: point {spelled} is outside the fan support\n")


def test_pp_mul_squares_a_courant_function(capsys, tmp_path):
    f = courant_function(_p2(), 2)
    courant = _write(tmp_path, "courant.json", "pp", io.pp_to_payload(f))
    square = str(tmp_path / "square.json")
    assert _run(capsys, "pp", "mul", "--pp", courant, "--other", courant,
                "--out", square) == (0, "", "")
    assert io.pp_from_payload(io.load(square).payload) == f * f
    code, out, _ = _run(capsys, "pp", "eval", "--pp", square,
                        "--point", "2,1")
    assert (code, out) == (0, "4\n")


@pytest.mark.parametrize("argv", [
    ["tropdr", "graphs", "--g", "0", "--n", "4"],
    ["--format", "json", "fan", "validate", "--fan", "p2.json"]])
def test_out_file_gets_the_stdout_bytes(capsys, tmp_path, p2_doc, argv):
    argv = [p2_doc if a == "p2.json" else a for a in argv]
    code, out, err = _run(capsys, *argv)
    path = tmp_path / "out.txt"
    assert _run(capsys, *argv, "--out", str(path)) == (code, "", err)
    assert code == 0 and out
    assert path.read_bytes() == out.encode()


def test_fan_refine_of_differing_supports_exits_2(capsys, tmp_path):
    orthant = _write(tmp_path, "orthant.json", "fan",
                     {"rank": 2, "max_cones": [[[1, 0], [0, 1]]]})
    half = _write(tmp_path, "half.json", "fan",
                  {"rank": 2, "max_cones": [[[1, 0], [1, 1]]]})
    path = tmp_path / "refined.json"
    code, out, err = _run(capsys, "fan", "refine", "--fan", orthant,
                          "--other", half, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: supports differ: facet ")
    assert err.count("\n") == 1
    assert not path.exists()  # a refusal writes no file


def test_chow_degree_of_squared_hyperplane(capsys, tmp_path, p2_doc):
    fan = _p2()
    h = mw_of_pp(courant_function(fan, 2), 1)
    h_path = _write(tmp_path, "h.json", "weight", io.weight_to_payload(h))
    sq_path = str(tmp_path / "sq.json")
    code, _, _ = _run(capsys, "chow", "product", "--weight", h_path,
                      "--other", h_path, "--out", sq_path)
    assert code == 0
    code, out, _ = _run(capsys, "chow", "degree", "--weight", sq_path)
    assert (code, out) == (0, "1\n")
    # degree needs a zero dimensional class
    code, _, _ = _run(capsys, "chow", "degree", "--weight", h_path)
    assert code == 2


def test_chow_balance_exit_codes(capsys, tmp_path):
    fan = _p2()
    good = mw_of_pp(courant_function(fan, 0), 1)
    bad = MinkowskiWeight(fan, 1, {(0,): 1})
    good_path = _write(tmp_path, "good.json", "weight",
                       io.weight_to_payload(good))
    bad_path = _write(tmp_path, "bad.json", "weight",
                      io.weight_to_payload(bad))
    code, out, _ = _run(capsys, "chow", "balance", "--weight", good_path)
    assert (code, out) == (0, "balanced\n")
    code, out, _ = _run(capsys, "chow", "balance", "--weight", bad_path)
    assert (code, out) == (1, "not balanced\n")
    for path, code in ((good_path, 0), (bad_path, 1)):
        got, out, _ = _run(capsys, "--format", "json",
                           "chow", "balance", "--weight", path)
        assert got == code
        assert io.parse_document(out) == io.Document(
            "report", {"subject": "balance", "balanced": not code})


def test_chow_product_refuses_unbalanced_weights(capsys, tmp_path):
    fan = insert_ray(_p2(), (1, 7))
    steep, flat = (fan.rays.index(r) for r in ((1, 7), (1, 0)))
    a = MinkowskiWeight(fan, 1, {(steep,): 1})
    b = MinkowskiWeight(fan, 1, {(flat,): 1})
    # unbalanced, their product by displacement depends on the displacement
    assert fm_displaced_meets(fan.cone_hrep((steep,)), fan.cone_hrep((flat,)),
                              (1, 2)) != fm_displaced_meets(
        fan.cone_hrep((steep,)), fan.cone_hrep((flat,)), (1, 1000))
    good = mw_of_pp(courant_function(fan, flat), 1)
    paths = {name: _write(tmp_path, f"{name}.json", "weight",
                          io.weight_to_payload(w))
             for name, w in (("a", a), ("b", b), ("good", good))}
    for weight, other, flag in (("a", "b", "--weight"),
                                ("good", "b", "--other")):
        code, out, err = _run(capsys, "chow", "product", "--weight",
                              paths[weight], "--other", paths[other])
        assert (code, out, err) == (1, "", f"not balanced: {flag}\n")
    code, out, _ = _run(capsys, "chow", "product", "--weight", paths["good"],
                        "--other", paths["good"])
    assert code == 0
    assert io.weight_from_payload(io.parse_document(out).payload) == (
        mw_product(good, good))


def test_chow_product_on_the_thirty_prime_plane(capsys, tmp_path):
    fan = thirty_prime_plane()
    top = MinkowskiWeight(fan, 0, {m: 1 for m in fan.max_cones})
    path = _write(tmp_path, "top.json", "weight", io.weight_to_payload(top))
    code, out, _ = _run(capsys, "chow", "product", "--weight", path,
                        "--other", path)
    assert code == 0
    assert io.weight_from_payload(io.parse_document(out).payload) == top


def test_chow_push_refuses_unbalanced_weights(capsys, tmp_path, p2_doc):
    from tropchow.fans import stellar_subdivision
    blow = stellar_subdivision(_p2(), (1, 2))
    w = MinkowskiWeight(blow, 1, {(0,): 1})
    path = _write(tmp_path, "w.json", "weight", io.weight_to_payload(w))
    code, out, err = _run(capsys, "chow", "push", "--weight", path,
                          "--fan", p2_doc)
    assert (code, out, err) == (1, "", "not balanced: --weight\n")


def test_chow_push_to_coarse_fan(capsys, tmp_path, p2_doc):
    fan = _p2()
    from tropchow.fans import stellar_subdivision
    blow = stellar_subdivision(fan, (1, 2))
    exc = mw_of_pp(courant_function(blow, blow.rays.index((1, 1))), 1)
    w_path = _write(tmp_path, "exc.json", "weight", io.weight_to_payload(exc))
    code, out, _ = _run(capsys, "chow", "push", "--weight", w_path,
                        "--fan", p2_doc)
    assert code == 0
    pushed = io.weight_from_payload(io.parse_document(out).payload)
    assert pushed.is_zero()


def test_chow_of_pp(capsys, tmp_path, p2_doc):
    fan = _p2()
    f = courant_function(fan, 1)
    pp_path = _write(tmp_path, "f.json", "pp", io.pp_to_payload(f))
    code, out, _ = _run(capsys, "chow", "of-pp", "--pp", pp_path,
                        "--codim", "1")
    assert code == 0
    w = io.weight_from_payload(io.parse_document(out).payload)
    assert w == mw_of_pp(f, 1)


def test_pp_excess_chern_doc(capsys, p2_doc):
    code, out, _ = _run(capsys, "pp", "excess-chern", "--fan", p2_doc,
                        "--cone", "1,2")
    assert code == 0
    doc = io.parse_document(out)
    assert doc.kind == "pp"
    chern = io.pp_from_payload(doc.payload)
    assert chern.evaluate((0, 0)) == 1
    assert chern.max_degree() == 1


def test_pp_excess_chern_negative_degree_exits_2(capsys, p2_doc):
    code, out, err = _run(capsys, "pp", "excess-chern", "--fan", p2_doc,
                          "--cone", "0,1", "--degree", "-1")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_segre_point_ideal(capsys, tmp_path):
    fan = _p2()
    ideal = MonomialIdeal(fan, ((0, 0, 1), (0, 1, 0)))
    path = _write(tmp_path, "pt.json", "ideal", ideal_to_payload(ideal))
    code, out, _ = _run(capsys, "segre", "--ideal", path)
    assert code == 0
    assert "s_2: 1*[origin]" in out
    code, out2, _ = _run(capsys, "--format", "json", "segre",
                         "--ideal", path)
    assert code == 0
    payload = io.parse_document(out2).payload
    assert payload["subject"] == "segre"
    degree0 = [p for p in payload["pieces"] if p["codim"] == 2]
    assert degree0[0]["values"] == [{"cone": [], "value": "1"}]
    # --fan must name the ideal's own fan
    assert _run(capsys, "segre", "--ideal", path, "--fan", _write(
        tmp_path, "p2.json", "fan", io.fan_to_payload(_p2()))) == (0, out, "")
    other = _write(tmp_path, "blown.json", "fan",
                   io.fan_to_payload(insert_ray(_p2(), (1, 1))))
    assert _run(capsys, "segre", "--ideal", path, "--fan", other) == (
        2, "", "error: --fan does not match the ideal's fan\n")


def _line_through_center(tmp_path):
    """P2 blown up at a point, against the line through it."""
    return _write(tmp_path, "setup.json", "setup", {
        "base": io.fan_to_payload(_p2()),
        "center": [[0, 1], [1, 0]],
        "modification": None,
        "cycle": {"codim": 1,
                  "coefficients": [{"cone": [[1, 0]], "value": 1}]}})


def test_fulton_verify_line_through_center(capsys, tmp_path):
    path = _line_through_center(tmp_path)
    code, out, _ = _run(capsys, "fulton", "verify", "--setup", path)
    assert code == 0
    assert "verdict: verified" in out
    code, out_json, _ = _run(capsys, "--format", "json", "fulton",
                             "verify", "--setup", path)
    assert code == 0
    payload = io.parse_document(out_json).payload
    assert payload["verdict"] == "verified"
    assert payload["strict"]["coefficients"] == [
        {"cone": [[1, 0]], "value": "1"}]
    assert len(payload["decomposition"]) == 1
    assert payload["decomposition"][0]["new_ray"] == [1, 1]


def test_center_ray_off_one_star_ray_exits_3(capsys, monkeypatch, tmp_path):
    # each center ray off a stratum must map to one ray of the stratum's
    # star; a star that breaks this is an internal error, not a refusal
    real = transforms.star_fan

    def doubled(fan, center):
        star = real(fan, center)
        return dataclasses.replace(star, source_to_cone={
            src: key * 2 for src, key in star.source_to_cone.items()})
    monkeypatch.setattr(transforms, "star_fan", doubled)
    code, out, err = _run(capsys, "fulton", "verify",
                          "--setup", _line_through_center(tmp_path))
    assert (code, out) == (3, "")
    assert err == "internal error: AssertionError\n"


def test_fulton_verify_p3_along_a_line(capsys, tmp_path):
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    p3 = fan_from_max_cones(3, [list(c) for c in combinations(e, 3)])
    line = [[1, 0, 0], [0, 1, 0]]
    path = _write(tmp_path, "setup.json", "setup", {
        "base": io.fan_to_payload(p3),
        "center": line,
        "modification": None,
        "cycle": {"codim": 2,
                  "coefficients": [{"cone": line, "value": 1}]}})
    code, out, _ = _run(capsys, "fulton", "verify", "--setup", path)
    assert code == 0
    assert "verdict: verified" in out


def test_fulton_verify_p3_line_against_a_two_ray_carrier(capsys, tmp_path):
    # P3 along a line against P3 with (-1, 0, -1) and then (-1, 1, -1)
    # inserted: the working fan is built forward in 4 stellar steps
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    p3 = fan_from_max_cones(3, [list(c) for c in combinations(e, 3)])
    carrier = insert_ray(insert_ray(p3, (-1, 0, -1)), (-1, 1, -1))
    line = [[0, 0, 1], [0, 1, 0]]
    path = _write(tmp_path, "setup.json", "setup", {
        "base": io.fan_to_payload(p3),
        "center": line,
        "modification": io.fan_to_payload(carrier),
        "cycle": {"codim": 2,
                  "coefficients": [{"cone": line, "value": 1}]}})
    code, out, err = _run(capsys, "fulton", "verify", "--setup", path)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "verdict: verified"
    assert "strict:     0" in lines
    assert lines[-1] == "strata contributing: 3"


def test_fulton_verify_refuses_a_carrier_off_the_base(capsys, tmp_path):
    # P1xP1 is complete and smooth, but its cone on (-1, 0), (0, -1)
    # straddles two top cones of P2
    p1xp1 = fan_from_max_cones(2, [
        [(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
        [(0, -1), (1, 0)]])
    path = _write(tmp_path, "setup.json", "setup", {
        "base": io.fan_to_payload(_p2()),
        "center": [[0, 1], [1, 0]],
        "modification": io.fan_to_payload(p1xp1),
        "cycle": {"codim": 1,
                  "coefficients": [{"cone": [[1, 0]], "value": 1}]}})
    code, out, err = _run(capsys, "fulton", "verify", "--setup", path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: invalid setup: ")


def test_tropdr_graphs_example(capsys):
    code, out, _ = _run(capsys, "tropdr", "graphs", "--g", "1", "--n", "1")
    assert code == 0
    assert out.endswith("2 graphs\n")
    assert len(out.strip().splitlines()) == 3
    code, _, _ = _run(capsys, "tropdr", "graphs", "--g", "0", "--n", "2")
    assert code == 2


def test_tropdr_graphs_refuses_negative_edge_cap(capsys):
    code, out, err = _run(capsys, "tropdr", "graphs", "--g", "0", "--n", "3",
                          "--max-edges=-1")
    assert (code, out) == (2, "")
    assert err == "error: edge cap must be nonnegative\n"


def test_tropdr_graphs_refuses_negative_genus(capsys):
    # 2g - 2 + n = 1 > 0, so this is refused for the genus itself
    code, out, err = _run(capsys, "tropdr", "graphs", "--g=-1", "--n", "5")
    assert (code, out) == (2, "")
    assert err == "error: genus and leg count must be nonnegative\n"


def test_tropdr_graphs_refuses_negative_leg_count(capsys):
    code, out, err = _run(capsys, "tropdr", "graphs", "--g", "3", "--n=-1")
    assert (code, out) == (2, "")
    assert err == "error: genus and leg count must be nonnegative\n"


def _refusal(capsys, *argv):
    code, out, err = _run(capsys, "tropdr", *argv)
    assert (code, out) == (2, "")
    return err


def test_tropdr_refuses_genus_above_limit(capsys):
    assert _refusal(capsys, "graphs", "--g", "4", "--n", "0") == (
        "error: --g 4 is above the limit 3 of tropdr graphs\n")
    for command in ("subfan", "rubber"):
        assert "--g 3 is above the limit 2" in _refusal(
            capsys, command, "--g", "3", "--n", "0", "--contact=")


def test_tropdr_refuses_legs_above_limit(capsys):
    # at most 6 - 2g legs
    assert _refusal(capsys, "graphs", "--g", "0", "--n", "7") == (
        "error: --n 7 is above the limit 6 of tropdr graphs\n")
    assert "--n 3 is above the limit 2" in _refusal(
        capsys, "subfan", "--g", "2", "--n", "3", "--contact=1,-1,0")


def test_tropdr_refuses_edge_cap_above_limit(capsys):
    assert _refusal(capsys, "graphs", "--g", "0", "--n", "3",
                    "--max-edges", "7") == (
        "error: --max-edges 7 is above the limit 6 of tropdr graphs\n")


def test_tropdr_refuses_bound_above_limit(capsys):
    assert _refusal(capsys, "subfan", "--g", "1", "--n", "2",
                    "--contact", "1,-1", "--bound", "9") == (
        "error: --bound 9 is above the limit 8 of tropdr subfan\n")
    assert "--bound2 9 is above the limit 8" in _refusal(
        capsys, "tc", "--g", "1", "--n", "2", "--contact", "1,-1",
        "--contact2", "0,0", "--bound2", "9")


def test_tropdr_refuses_a_defaulted_bound_above_limit(capsys):
    # the default bound on the graph with the most edges, 3g - 3 + n = 5
    assert _refusal(capsys, "subfan", "--g", "2", "--n", "2",
                    "--contact=6,-6") == (
        "error: --bound defaults to 30 for this --contact, above the limit "
        "8 of tropdr subfan; give --bound\n")
    assert "--bound2 defaults to 10 for this --contact2" in _refusal(
        capsys, "tc", "--g", "1", "--n", "2", "--contact=1,-1",
        "--contact2=5,-5")
    # a bound that is given is the one held to the limit
    code, _, _ = _run(capsys, "tropdr", "subfan", "--g", "2", "--n", "2",
                      "--contact=6,-6", "--bound", "1")
    assert code == 0


def test_tropdr_limits_admit_the_ladder_and_are_in_help(capsys):
    ladder = [["graphs", "--g", "3", "--n", "0", "--max-edges", "6"],
              ["graphs", "--g", "2", "--n", "2"],
              ["graphs", "--g", "1", "--n", "4"],
              ["graphs", "--g", "0", "--n", "6"],
              ["subfan", "--g", "1", "--n", "4", "--contact=1,1,-1,-1"],
              ["subfan", "--g", "2", "--n", "2", "--contact=1,-1"],
              ["rubber", "--g", "2", "--n", "2", "--contact=1,-1"],
              ["rubber", "--g", "0", "--n", "4", "--contact=2,1,-1,-2",
               "--bound", "8"],
              ["tc", "--g", "1", "--n", "2", "--contact=1,-1",
               "--contact2=0,0", "--bound", "8", "--bound2", "8"]]
    for argv in ladder:
        cli._check_size(build_parser().parse_args(["tropdr"] + argv))
    assert main(["tropdr", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--g at most 3 for graphs and 2 for subfan, rubber and tc; "
            "--n at most 6 - 2g; --max-edges at most 6; --bound and "
            "--bound2 at most 8.") in text


def test_tropdr_subfan_and_rubber_run(capsys):
    code, out, _ = _run(capsys, "--format", "json", "tropdr", "subfan",
                        "--g", "1", "--n", "2", "--contact", "1,-1",
                        "--bound", "2")
    assert code == 0
    payload = io.parse_document(out).payload
    assert payload["contact"] == [1, -1]
    assert len(payload["pieces"]) == 5
    code, out, _ = _run(capsys, "tropdr", "rubber", "--g", "1", "--n", "2",
                        "--contact", "1,-1", "--bound", "2")
    assert code == 0
    assert out.endswith("6 pieces\n")


def test_tropdr_tc_runs(capsys):
    code, out, _ = _run(capsys, "--format", "json", "tropdr", "tc",
                        "--g", "1", "--n", "2", "--contact", "1,-1",
                        "--contact2", "0,0", "--bound", "2", "--bound2", "2")
    assert code == 0
    payload = io.parse_document(out).payload
    assert payload["contacts"] == [[1, -1], [0, 0]]


def test_tropdr_tc_enumerates_the_stable_graphs_once(capsys, monkeypatch):
    argv = ("tropdr", "tc", "--g", "1", "--n", "2", "--contact", "1,-1",
            "--contact2", "2,-2", "--bound", "2", "--bound2", "3")
    expected = _run(capsys, *argv)
    enumerated = []
    native = tropical.enumerate_stable_graphs

    def counted(*args):
        enumerated.append(args)
        return native(*args)

    monkeypatch.setattr(tropical, "enumerate_stable_graphs", counted)
    assert _run(capsys, *argv) == expected
    assert expected[0] == 0 and enumerated == [(1, 2)]
    # both subfans are the ones dr_subfan builds on its own
    left = tropical.dr_subfan(1, 2, (1, -1), 2)
    right = tropical.dr_subfan(1, 2, (2, -2), 3)
    assert tropical._dr_subfans(1, 2, [((1, -1), 2), ((2, -2), 3)]) == [
        left, right]
    # the second contact vector is still refused on its own
    assert _run(capsys, "tropdr", "tc", "--g", "1", "--n", "2",
                "--contact", "1,-1", "--contact2", "1,-1,0")[:2] == (2, "")


def test_json_outputs_reproducible(capsys, tmp_path):
    fan = _p2()
    ideal = MonomialIdeal(fan, ((0, 0, 1), (0, 1, 0)))
    path = _write(tmp_path, "pt.json", "ideal", ideal_to_payload(ideal))
    runs = [_run(capsys, "--format", "json", "segre", "--ideal", path)
            for _ in range(2)]
    assert runs[0] == runs[1]
    trop = [_run(capsys, "--format", "json", "tropdr", "rubber", "--g", "1",
                 "--n", "2", "--contact", "1,-1", "--bound", "2")
            for _ in range(2)]
    assert trop[0] == trop[1]


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, "fan", "validate", "--fan", "/no/such.json")
    assert code == 2
    assert "cannot read" in err


def test_bad_flags_exit_2(capsys):
    assert main(["fan"]) == 2
    assert main(["tropdr", "subfan", "--g", "1", "--n", "2"]) == 2
    capsys.readouterr()


def test_parser_is_built_once_and_survives_bad_argv(capsys, tmp_path, p2_doc):
    assert build_parser() is build_parser()
    argv = ["--format", "json", "fan", "validate", "--fan", p2_doc]
    assert main(["fan", "validate", "--no-such-flag"]) == 2
    assert main(["tropdr", "subfan", "--g", "x"]) == 2
    capsys.readouterr()
    code, out, _ = _run(capsys, *argv)
    fresh = _cli_run(argv, tmp_path, "0")
    assert (code, out.encode()) == fresh[:2]
    assert code == 0


def _raising(error):
    def call(*args, **kwargs):
        raise error
    return call


@pytest.mark.parametrize("error", [
    ArithmeticError("no valid localization points found"),
    RuntimeError("resolution did not terminate"),
    AssertionError(),
], ids=lambda e: type(e).__name__)
def test_internal_error_exits_3(capsys, monkeypatch, p2_doc, error):
    monkeypatch.setattr(cli, "validate_fan", _raising(error))
    code, out, err = _run(capsys, "fan", "validate", "--fan", p2_doc)
    assert code == 3
    assert out == ""
    assert err == f"internal error: {str(error) or type(error).__name__}\n"
    assert "Traceback" not in err


def test_value_error_still_exits_2(capsys, monkeypatch, p2_doc):
    monkeypatch.setattr(cli, "validate_fan",
                        _raising(ValueError("fan is not complete")))
    code, out, err = _run(capsys, "fan", "validate", "--fan", p2_doc)
    assert (code, out, err) == (2, "", "error: fan is not complete\n")
