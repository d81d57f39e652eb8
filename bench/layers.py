"""The traced run's instruments: cProfile self time grouped by module, and
thin wrappers that count, time and record arguments of public functions.

Nothing here is active during the untraced run. The wrappers replace a
function in every tropchow module namespace that holds it (including
modules that imported it by name), and are removed again afterwards.
"""
from __future__ import annotations

import fractions
import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict, namedtuple

from tropchow import fans, linalg, piecewise, polyhedra, tropical, weights

LAYERS = ("linalg", "polyhedra", "polynomials", "piecewise", "fans",
          "weights", "ideals", "transforms", "tropical", "io", "cli",
          "fractions")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Recorder:
    """Counts gathered by the wrappers while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.instance = 0           # part of every distinct-argument key
        self.calls = Counter()
        self.seconds = Counter()
        self.keys = defaultdict(set)
        self.alive = []             # keeps id()-keyed objects from reuse
        self.tally = Counter()      # rays, subsets, kept, box, candidates
        self.enumerating = 0

    def by_identity(self, obj):
        self.alive.append(obj)
        return id(obj)


def _int_rank(rows):
    """Rank by fraction-free elimination, so the wrapper's own work does
    not show up in the fractions layer."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            if c:
                rows[r] = [p[col] * x - c * y for x, y in zip(rows[r], p)]
        rank += 1
    return rank


# What each wrapper records besides calls and inclusive time.

def _cone_constraints_key(rec, generators, ambient_dim):
    return tuple(tuple(g) for g in generators), ambient_dim


def _courant_key(rec, fan, ray_index):
    return rec.by_identity(fan), ray_index


def _is_smooth_key(rec, fan):
    return rec.by_identity(fan)


def _rays_after(rec, rays, constraints, ambient_dim):
    eqs, ineqs = constraints
    d = ambient_dim - (_int_rank(eqs) if eqs else 0)
    rec.tally["rays"] += len(rays)
    rec.tally["subsets"] += math.comb(len(ineqs), d - 1) if d else 0


def _slopes_after(rec, found, graph, contact, bound):
    rec.tally["slopes_kept"] += len(found)
    rec.tally["slope_box"] += (2 * bound + 1) ** graph.betti


def _graphs_after(rec, found, *args):
    rec.tally["graphs_kept"] += len(found)


def _candidate_before(rec, graph):
    if rec.enumerating:
        rec.tally["candidates"] += 1


# owner is a module or a class; ``scope`` marks the calls made while the
# target runs, which is how candidates are told from other constructions.
Target = namedtuple("Target", "owner attr label key before after scope",
                    defaults=(None, None, None, False))
TARGETS = (
    Target(linalg, "rref", "linalg.rref"),
    Target(linalg, "smith_normal_form", "linalg.smith_normal_form"),
    Target(polyhedra, "cone_constraints", "polyhedra.cone_constraints",
           key=_cone_constraints_key),
    Target(polyhedra, "rays_from_constraints",
           "polyhedra.rays_from_constraints", after=_rays_after),
    Target(fans, "fan_from_max_cones", "fans.fan_from_max_cones"),
    Target(fans.Fan, "is_smooth", "fans.is_smooth", key=_is_smooth_key),
    Target(piecewise, "courant_function", "piecewise.courant_function",
           key=_courant_key),
    Target(weights, "localization_degree", "weights.localization_degree"),
    Target(tropical, "enumerate_stable_graphs",
           "tropical.enumerate_stable_graphs", after=_graphs_after,
           scope=True),
    Target(tropical, "balanced_slopes", "tropical.balanced_slopes",
           after=_slopes_after),
    Target(tropical.WeightedDualGraph, "canonical", "tropical.canonical"),
    Target(tropical.WeightedDualGraph, "__post_init__",
           "tropical.graph_init", before=_candidate_before),
)


def _wrap(rec, target, fn):
    label = target.label

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.calls[label] += 1
        if target.key is not None:
            rec.keys[label].add((rec.instance,
                                 target.key(rec, *args, **kwargs)))
        if target.before is not None:
            target.before(rec, *args, **kwargs)
        rec.enumerating += target.scope
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.seconds[label] += time.perf_counter() - t0
            rec.enumerating -= target.scope
        if target.after is not None:
            target.after(rec, out, *args, **kwargs)
        return out
    return wrapper


def install(rec):
    """Wrap every target; returns the undo list for ``uninstall``."""
    undo = []
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "tropchow" or name.startswith("tropchow.")]
    for target in TARGETS:
        original = getattr(target.owner, target.attr)
        wrapper = _wrap(rec, target, original)
        holders = [target.owner] if isinstance(target.owner, type) else [
            m for m in modules if getattr(m, target.attr, None) is original]
        for holder in holders:
            setattr(holder, target.attr, wrapper)
            undo.append((holder, target.attr, original))
    return undo


def uninstall(undo):
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


def _layer_of(filename):
    """Layer name, None for the benchmark's own code, "~" for code with no
    file of its own (builtins, dataclass-generated methods)."""
    if filename in ("~", "<string>"):
        return "~"
    if filename.startswith(BENCH_DIR + os.sep):
        return None
    if filename == fractions.__file__:
        return "fractions"
    if os.sep + "tropchow" + os.sep in filename:
        stem = os.path.splitext(os.path.basename(filename))[0]
        if stem in LAYERS:
            return stem
    return "other"


def layer_profile(stats):
    """Self time share and call count per layer from pstats data. Code
    with no file of its own is charged to its callers, by the time spent
    under each caller; the benchmark's own frames are left out."""
    self_time = Counter()
    calls = Counter()
    new_fractions = 0
    for (filename, _, name), (_, nc, tt, _, callers) in stats.items():
        layer = _layer_of(filename)
        if layer == "~":
            for caller, (_, _, ctt, _) in callers.items():
                owner = _layer_of(caller[0])
                if owner is not None:
                    self_time["other" if owner == "~" else owner] += ctt
            continue
        if layer is None:
            continue
        self_time[layer] += tt
        calls[layer] += nc
        if layer == "fractions" and name in ("__new__", "_from_coprime_ints"):
            new_fractions += nc
    total = sum(self_time.values()) or 1.0
    out = {}
    for layer in LAYERS:
        out[f"layer.{layer}.self_frac"] = (self_time[layer] / total, "1")
        out[f"layer.{layer}.calls"] = (calls[layer], "count")
    out["count.fractions.new"] = (new_fractions, "count")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def recorder_metrics(rec):
    c, t = rec.calls, rec.tally
    out = {f"count.{label}": (c[label], "count") for label in (
        "linalg.rref", "linalg.smith_normal_form",
        "polyhedra.cone_constraints", "polyhedra.rays_from_constraints",
        "fans.fan_from_max_cones", "piecewise.courant_function",
        "weights.localization_degree", "tropical.canonical")}
    out["count.tropical.graph_candidates"] = (t["candidates"], "count")
    out["ratio.tropical.graphs_kept"] = (
        _ratio(t["graphs_kept"], t["candidates"]), "1")
    out["ratio.tropical.slopes_kept"] = (
        _ratio(t["slopes_kept"], t["slope_box"]), "1")
    out["ratio.polyhedra.rays_per_subset"] = (
        _ratio(t["rays"], t["subsets"]), "1")
    for label, name in (("piecewise.courant_function", "piecewise.courant"),
                        ("polyhedra.cone_constraints",
                         "polyhedra.cone_constraints"),
                        ("fans.is_smooth", "fans.is_smooth")):
        out[f"ratio.{name}_distinct"] = (
            _ratio(len(rec.keys[label]), c[label]), "1")
    return out
