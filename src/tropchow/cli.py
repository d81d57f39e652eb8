"""Command line front end.

Exit codes: 0 success, 1 a checked identity or property fails, 2 bad
input, 3 internal error (an ArithmeticError, RuntimeError or
AssertionError inside the library, reported on one stderr line).  All
output is deterministic; documents print in canonical form. Every
command takes --out FILE, which writes to FILE exactly what stdout would
get; a command that exits 2 or 3 writes no file.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext, redirect_stdout
from functools import cache
from io import StringIO

from . import io
from .fans import (common_refinement, fan_from_max_cones, star_fan,
                   stellar_subdivision, validate_fan)
from .ideals import segre_class
from .linalg import identity_matrix, primitive_vector
from .piecewise import courant_function, excess_chern_class, pp_pullback
from .transforms import verify_fulton_identity
from .tropical import (_dr_subfans, default_bound, dr_subfan,
                       enumerate_stable_graphs, rubber_subdivision,
                       tc_fiber_product)
from .weights import (is_balanced, mw_of_pp, mw_product, mw_to_pp,
                      pushforward_witness)


def _ints(text: str, what: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise io.DocumentError(f"{what} must be comma separated integers")


def _cone_arg(fan, text: str):
    idx = _ints(text, "--cone")
    for i in idx:
        if not 0 <= i < len(fan.rays):
            raise io.DocumentError(f"ray index {i} out of range")
    return tuple(sorted(set(idx)))


def _load_fan(path: str):
    return io.fan_from_payload(io.expect_kind(io.load(path), "fan").payload)


def _load_weight(path: str):
    return io.weight_from_payload(
        io.expect_kind(io.load(path), "weight").payload)


def _load_pp(path: str):
    return io.pp_from_payload(io.expect_kind(io.load(path), "pp").payload)


def _emit_doc(kind: str, payload):
    sys.stdout.write(io.print_document(io.Document(kind, payload)))


def _cones_text(fan, values) -> str:
    """v*[rays] per cone with a nonzero value, in cone order, joined by
    " + "; a cone without rays is [origin] and an empty sum is 0."""
    parts = []
    for cone, v in sorted(values.items()):
        if v:
            rays = ",".join(str(list(fan.rays[i])) for i in cone)
            parts.append(f"{io.format_rational(v)}*[{rays or 'origin'}]")
    return " + ".join(parts) or "0"


def _rays_text(rays) -> str:
    return " ".join(str(list(r)) for r in rays) or "origin"


def _graph_text(graph) -> str:
    return (f"genus={list(graph.genus)} "
            f"edges={[list(e) for e in graph.edges]} "
            f"legs={list(graph.legs)}")


# fan

def cmd_fan_validate(args) -> int:
    doc = io.expect_kind(io.load(args.fan), "fan")
    rank, gens = io.fan_payload_parts(doc.payload)
    try:
        fan = fan_from_max_cones(rank, gens)
    except ValueError as e:
        print(f"invalid: {e}")
        return 1
    problems = validate_fan(fan)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return 1
    if args.format == "json":
        _emit_doc("fan", io.fan_to_payload(fan))
    else:
        print(f"rank {fan.rank}, {len(fan.rays)} rays, "
              f"{len(fan.max_cones)} maximal cones")
        print(f"complete: {'yes' if fan.is_complete() else 'no'}")
        print(f"smooth: {'yes' if fan.is_smooth() else 'no'}")
    return 0


def cmd_fan_stellar(args) -> int:
    fan = _load_fan(args.fan)
    cone = _cone_arg(fan, args.cone)
    ray = _ints(args.ray, "--ray") if args.ray else None
    _emit_doc("fan",
              io.fan_to_payload(stellar_subdivision(fan, cone, ray)))
    return 0


def cmd_fan_star(args) -> int:
    fan = _load_fan(args.fan)
    cone = _cone_arg(fan, args.cone)
    _emit_doc("fan", io.fan_to_payload(star_fan(fan, cone).fan))
    return 0


def cmd_fan_refine(args) -> int:
    fan = _load_fan(args.fan)
    other = _load_fan(args.other)
    _emit_doc("fan", io.fan_to_payload(common_refinement(fan, other)))
    return 0


# pp

def cmd_pp_courant(args) -> int:
    fan = _load_fan(args.fan)
    idx = _cone_arg(fan, args.cone)
    if len(idx) != 1:
        raise io.DocumentError("courant needs exactly one ray index")
    _emit_doc("pp", io.pp_to_payload(courant_function(fan, idx[0])))
    return 0


def cmd_pp_eval(args) -> int:
    pp = _load_pp(args.pp)
    point = tuple(io.parse_rational(p) for p in args.point.split(","))
    if len(point) != pp.fan.rank:
        raise io.DocumentError("point has the wrong number of coordinates")
    value = io.format_rational(pp.evaluate(point))
    if args.format == "json":
        _emit_doc("report", {"subject": "eval", "value": value})
    else:
        print(value)
    return 0


def cmd_pp_mul(args) -> int:
    a = _load_pp(args.pp)
    b = _load_pp(args.other)
    _emit_doc("pp", io.pp_to_payload(a * b))
    return 0


def cmd_pp_excess_chern(args) -> int:
    fan = _load_fan(args.fan)
    cone = _cone_arg(fan, args.cone)
    blow = stellar_subdivision(fan, cone)
    center_rays = [fan.rays[i] for i in cone]
    exc = primitive_vector(tuple(sum(c) for c in zip(*center_rays)))
    ident = identity_matrix(fan.rank)
    # divisor functions of the center come from downstairs; the blowup's
    # own ray functions vanish on the exceptional ray
    funcs = [pp_pullback(blow, ident, courant_function(fan, i))
             for i in cone]
    exceptional = courant_function(blow, blow.rays.index(exc))
    degree = len(cone) - 1 if args.degree is None else args.degree
    _emit_doc("pp", io.pp_to_payload(
        excess_chern_class(blow, funcs, exceptional, degree)))
    return 0


# chow

def cmd_chow_balance(args) -> int:
    w = _load_weight(args.weight)
    ok = is_balanced(w)
    if args.format == "json":
        _emit_doc("report", {"subject": "balance", "balanced": ok})
    else:
        print("balanced" if ok else "not balanced")
    return 0 if ok else 1


def cmd_chow_degree(args) -> int:
    w = _load_weight(args.weight)
    if w.codim != w.fan.rank:
        raise io.DocumentError(
            "degree needs codimension equal to the fan rank")
    value = io.format_rational(w.values[()])
    if args.format == "json":
        _emit_doc("report", {"subject": "degree", "value": value})
    else:
        print(value)
    return 0


def cmd_chow_product(args) -> int:
    a = _load_weight(args.weight)
    b = _load_weight(args.other)
    # the displacement rule gives one product for balanced weights only
    for flag, w in (("--weight", a), ("--other", b)):
        if not is_balanced(w):
            print(f"not balanced: {flag}", file=sys.stderr)
            return 1
    _emit_doc("weight", io.weight_to_payload(mw_product(a, b)))
    return 0


def cmd_chow_push(args) -> int:
    w = _load_weight(args.weight)
    target = _load_fan(args.fan)
    # only a balanced weight has a witness to push
    if not is_balanced(w):
        print("not balanced: --weight", file=sys.stderr)
        return 1
    pushed = pushforward_witness(w.fan, mw_to_pp(w), w.codim, target)
    _emit_doc("weight", io.weight_to_payload(pushed))
    return 0


def cmd_chow_of_pp(args) -> int:
    pp = _load_pp(args.pp)
    _emit_doc("weight",
              io.weight_to_payload(mw_of_pp(pp, args.codim)))
    return 0


# segre

def cmd_segre(args) -> int:
    ideal = io.ideal_from_payload(
        io.expect_kind(io.load(args.ideal), "ideal").payload)
    if args.fan:
        if _load_fan(args.fan) != ideal.fan:
            raise io.DocumentError("--fan does not match the ideal's fan")
    data = segre_class(ideal)
    if args.format == "json":
        payload = {
            "subject": "segre",
            "fan": io.fan_to_payload(ideal.fan),
            "pieces": [{"codim": k,
                        "values": io.weight_values_payload(data.pieces[k])}
                       for k in sorted(data.pieces)],
            "certificates": [
                {"codim": k,
                 "support": io.values_payload(ideal.fan, cert)}
                for k, cert in sorted(data.certificates.items())]}
        _emit_doc("report", payload)
    else:
        for k, w in sorted(data.pieces.items()):
            print(f"s_{k}: {_cones_text(w.fan, w.values)}")
    return 0


# fulton

def cmd_fulton_verify(args) -> int:
    setup, cycle = io.setup_from_payload(
        io.expect_kind(io.load(args.setup), "setup").payload)
    report = verify_fulton_identity(cycle, setup)
    if args.format == "json":
        payload = {
            "subject": "fulton",
            "verdict": report.verdict,
            "total": io.cycle_to_payload(report.total),
            "strict": io.cycle_to_payload(report.strict),
            "correction": io.cycle_to_payload(report.correction),
            "decomposition": [
                {"step": c.step,
                 "new_ray": list(c.new_ray),
                 "stratum": sorted(list(r) for r in c.stratum_rays),
                 "slots": [list(s) for s in c.slots],
                 "weight": io.weight_values_payload(c.weight)}
                for c in report.decomposition]}
        _emit_doc("report", payload)
    else:
        print(f"verdict: {report.verdict}")
        for label, cycle in (("total:      ", report.total),
                             ("strict:     ", report.strict),
                             ("correction: ", report.correction)):
            print(label + _cones_text(cycle.fan, cycle.coefficients))
        print(f"strata contributing: {len(report.decomposition)}")
    return 0 if report.verdict == "verified" else 1


# tropdr

# Size limits of the tropdr commands; a value above one exits 2. The
# genus limit depends on the command, the leg count is at most 6 - 2g.
# A bound left out takes its default on the graph with the most edges,
# 3g - 3 + n, and is held to the same limit: the slope box grows with
# the contact entries (contact 6,-6 at g=2 n=2 defaults to 30 and would
# take about 8 s). With contact entries of +-1 the largest calls they
# admit run in under a second, where graphs at g=2 n=4 would take about
# 2 s.
TROPDR_MAX_GENUS = {"graphs": 3, "subfan": 2, "rubber": 2, "tc": 2}
TROPDR_MAX_LEGS = 6
TROPDR_MAX_EDGES = 6
TROPDR_MAX_BOUND = 8


def _check_size(args):
    limits = [("--g", args.g, TROPDR_MAX_GENUS[args.subcommand]),
              ("--n", args.n, TROPDR_MAX_LEGS - 2 * max(args.g, 0)),
              ("--max-edges", getattr(args, "max_edges", None),
               TROPDR_MAX_EDGES),
              ("--bound", getattr(args, "bound", None), TROPDR_MAX_BOUND),
              ("--bound2", getattr(args, "bound2", None), TROPDR_MAX_BOUND)]
    for flag, value, limit in limits:
        if value is not None and value > limit:
            raise ValueError(f"{flag} {value} is above the limit {limit} "
                             f"of tropdr {args.subcommand}")
    for bound, contact in (("bound", "contact"), ("bound2", "contact2")):
        text = getattr(args, contact, None)
        if text is None or getattr(args, bound) is not None:
            continue
        slopes = _ints(text, f"--{contact}")
        if len(slopes) != args.n:
            continue  # the command refuses it
        value = default_bound(slopes, 3 * args.g - 3 + args.n)
        if value > TROPDR_MAX_BOUND:
            raise ValueError(
                f"--{bound} defaults to {value} for this --{contact}, above "
                f"the limit {TROPDR_MAX_BOUND} of tropdr {args.subcommand}; "
                f"give --{bound}")


def cmd_tropdr_graphs(args) -> int:
    _check_size(args)
    graphs = enumerate_stable_graphs(args.g, args.n, args.max_edges)
    if args.format == "json":
        _emit_doc("report",
                  {"subject": "graphs", "count": len(graphs),
                   "graphs": [io.graph_to_payload(g) for g in graphs]})
    else:
        for g in graphs:
            print(_graph_text(g))
        print(f"{len(graphs)} graphs")
    return 0


def cmd_tropdr_subfan(args) -> int:
    _check_size(args)
    contact = _ints(args.contact, "--contact")
    sf = dr_subfan(args.g, args.n, contact, args.bound)
    if args.format == "json":
        pieces = []
        for piece in sf.pieces:
            cones = [{"slopes": list(c.assignment.slopes),
                      "rays": [list(r) for r in c.rays],
                      "dim": c.dim,
                      "full_support": c.full_support}
                     for c in piece.cones]
            pieces.append({"graph": io.graph_to_payload(piece.graph),
                           "bound": piece.bound, "cones": cones})
        _emit_doc("report",
                  {"subject": "subfan", "genus": sf.genus,
                   "num_legs": sf.num_legs, "contact": list(sf.contact),
                   "pieces": pieces})
    else:
        for piece in sf.pieces:
            print(f"{_graph_text(piece.graph)} bound={piece.bound}")
            for c in piece.cones:
                tail = " full-support" if c.full_support else ""
                print(f"  slopes={list(c.assignment.slopes)} "
                      f"rays={_rays_text(c.rays)} dim={c.dim}{tail}")
    return 0


def cmd_tropdr_rubber(args) -> int:
    _check_size(args)
    contact = _ints(args.contact, "--contact")
    pieces = rubber_subdivision(args.g, args.n, contact, args.bound)
    if args.format == "json":
        payload = [{"graph": io.graph_to_payload(p.graph),
                    "slopes": list(p.rubber.slopes),
                    "rays": [list(r) for r in p.rays],
                    "dim": p.dim,
                    "num_levels": p.rubber.num_levels,
                    "expected_dimension": p.rubber.expected_dimension,
                    "simplicial": p.simplicial,
                    "smooth": p.smooth,
                    "dimension_ok": p.dimension_ok}
                   for p in pieces]
        _emit_doc("report",
                  {"subject": "rubber", "count": len(pieces),
                   "pieces": payload})
    else:
        for p in pieces:
            flags = [w for w, ok in (("simplicial", p.simplicial),
                                     ("smooth", p.smooth),
                                     ("dimension-ok", p.dimension_ok)) if ok]
            print(f"{_graph_text(p.graph)} slopes={list(p.rubber.slopes)} "
                  f"rays={_rays_text(p.rays)} dim={p.dim} "
                  f"levels={p.rubber.num_levels} " + " ".join(flags))
        print(f"{len(pieces)} pieces")
    return 0


def cmd_tropdr_tc(args) -> int:
    _check_size(args)
    contact = _ints(args.contact, "--contact")
    contact2 = _ints(args.contact2, "--contact2")
    left, right = _dr_subfans(args.g, args.n, [(contact, args.bound),
                                               (contact2, args.bound2)])
    prod = tc_fiber_product(left, right)
    if args.format == "json":
        pieces = []
        for piece in prod.pieces:
            cones = [{"left": list(c.left.slopes),
                      "right": list(c.right.slopes),
                      "rays": [list(r) for r in c.rays]}
                     for c in piece.cones]
            pieces.append({"graph": io.graph_to_payload(piece.graph),
                           "cones": cones})
        _emit_doc("report",
                  {"subject": "tc", "genus": prod.genus,
                   "num_legs": prod.num_legs,
                   "contacts": [list(c) for c in prod.contacts],
                   "pieces": pieces})
    else:
        for piece in prod.pieces:
            print(_graph_text(piece.graph))
            for c in piece.cones:
                print(f"  left={list(c.left.slopes)} "
                      f"right={list(c.right.slopes)} "
                      f"rays={_rays_text(c.rays)}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every main() call can share it."""
    parser = argparse.ArgumentParser(
        prog="tropchow",
        description="exact toric intersection theory and tropical "
                    "double ramification loci; exit codes: 0 success, "
                    "1 a checked property fails, 2 bad input, "
                    "3 internal error")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    top = parser.add_subparsers(dest="command", required=True)

    fan = top.add_parser("fan").add_subparsers(dest="subcommand",
                                               required=True)
    p = fan.add_parser("validate")
    p.add_argument("--fan", required=True)
    p.set_defaults(func=cmd_fan_validate)
    p = fan.add_parser("stellar")
    p.add_argument("--fan", required=True)
    p.add_argument("--cone", required=True)
    p.add_argument("--ray")
    p.set_defaults(func=cmd_fan_stellar)
    p = fan.add_parser("star")
    p.add_argument("--fan", required=True)
    p.add_argument("--cone", required=True)
    p.set_defaults(func=cmd_fan_star)
    p = fan.add_parser("refine")
    p.add_argument("--fan", required=True)
    p.add_argument("--other", required=True)
    p.set_defaults(func=cmd_fan_refine)

    pp = top.add_parser("pp").add_subparsers(dest="subcommand",
                                             required=True)
    p = pp.add_parser("courant")
    p.add_argument("--fan", required=True)
    p.add_argument("--cone", required=True)
    p.set_defaults(func=cmd_pp_courant)
    p = pp.add_parser("eval")
    p.add_argument("--pp", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_pp_eval)
    p = pp.add_parser("mul")
    p.add_argument("--pp", required=True)
    p.add_argument("--other", required=True)
    p.set_defaults(func=cmd_pp_mul)
    p = pp.add_parser("excess-chern")
    p.add_argument("--fan", required=True)
    p.add_argument("--cone", required=True)
    p.add_argument("--degree", type=int)
    p.set_defaults(func=cmd_pp_excess_chern)

    chow = top.add_parser("chow").add_subparsers(dest="subcommand",
                                                 required=True)
    p = chow.add_parser("balance")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_chow_balance)
    p = chow.add_parser("degree")
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_chow_degree)
    p = chow.add_parser("product")
    p.add_argument("--weight", required=True)
    p.add_argument("--other", required=True)
    p.set_defaults(func=cmd_chow_product)
    p = chow.add_parser("push")
    p.add_argument("--weight", required=True)
    p.add_argument("--fan", required=True,
                   help="coarser fan to push the class to")
    p.set_defaults(func=cmd_chow_push)
    p = chow.add_parser("of-pp")
    p.add_argument("--pp", required=True)
    p.add_argument("--codim", required=True, type=int)
    p.set_defaults(func=cmd_chow_of_pp)

    segre = top.add_parser("segre")
    segre.add_argument("--ideal", required=True)
    segre.add_argument("--fan")
    segre.set_defaults(func=cmd_segre)

    fulton = top.add_parser("fulton").add_subparsers(dest="subcommand",
                                                     required=True)
    p = fulton.add_parser("verify")
    p.add_argument("--setup", required=True)
    p.set_defaults(func=cmd_fulton_verify)

    genus = TROPDR_MAX_GENUS
    trop = top.add_parser(
        "tropdr",
        description=f"Size limits (exit 2 above them): --g at most "
                    f"{genus['graphs']} for graphs and {genus['subfan']} for "
                    f"subfan, rubber and tc; --n at most {TROPDR_MAX_LEGS} "
                    f"- 2g; --max-edges at most {TROPDR_MAX_EDGES}; --bound "
                    f"and --bound2 at most {TROPDR_MAX_BOUND}. An omitted "
                    f"bound defaults to max(1, sum of the positive contact "
                    f"entries) times 3g - 3 + n and is held to the same "
                    f"limit."
    ).add_subparsers(dest="subcommand", required=True)

    def tropdr_parser(name, func):
        p = trop.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--g", required=True, type=int,
                       help=f"genus, at most {genus[name]}")
        p.add_argument("--n", required=True, type=int,
                       help=f"number of legs, at most {TROPDR_MAX_LEGS} - 2g")
        return p
    at_most = f"at most {TROPDR_MAX_BOUND}"
    p = tropdr_parser("graphs", cmd_tropdr_graphs)
    p.add_argument("--max-edges", type=int,
                   help=f"at most {TROPDR_MAX_EDGES}")
    p = tropdr_parser("subfan", cmd_tropdr_subfan)
    p.add_argument("--contact", required=True)
    p.add_argument("--bound", type=int, help=at_most)
    p = tropdr_parser("rubber", cmd_tropdr_rubber)
    p.add_argument("--contact", required=True)
    p.add_argument("--bound", type=int, help=at_most)
    p = tropdr_parser("tc", cmd_tropdr_tc)
    p.add_argument("--contact", required=True)
    p.add_argument("--contact2", required=True)
    p.add_argument("--bound", type=int, help=at_most)
    p.add_argument("--bound2", type=int, help=at_most)

    # every command takes --out, its last option; main honours it
    for group in (fan, pp, chow, fulton, trop):
        for p in group.choices.values():
            p.add_argument("--out")
    segre.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    # with --out, stdout is collected and written to the file once the
    # command has run, so the file holds exactly what stdout would
    buffer = StringIO()
    try:
        with redirect_stdout(buffer) if args.out else nullcontext():
            code = args.func(args)
    except ValueError as e:  # io.DocumentError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, AssertionError) as e:
        print(f"internal error: {str(e) or type(e).__name__}",
              file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
