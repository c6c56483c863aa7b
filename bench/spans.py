"""Tracing from outside the package.

``install`` wraps the public functions named in ``TRACED`` by rebinding
every ``rindep.*`` namespace that holds them: ``cli``, ``homology`` and
``ideals`` import their helpers with ``from .x import y``, so patching only
the defining module would miss those calls.  Each wrapped call records a
span (name, start, end, parent, count) in memory; ``tally`` sums the spans
of one call and ``layer_metrics`` turns the merged tallies of a pass into
per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time


def _explored(args, result):
    return result.explored


def _facets(args, result):
    return len(result.facets)


def _faces(args, result):
    return sum(len(faces) for faces in result.values())


def _is_cone(args, result):
    facets = args[0].facets
    return int(bool(facets) and bool(frozenset.intersection(*facets)))


def _minors(args, result):
    return result.minors_visited


# name -> function that reads a count from (arguments, result), or None
TRACED = {
    "cli.main": None,
    "complexes.ind_r": _facets,
    "complexes.minimal_nonfaces": None,
    "complexes.link": None,
    "complexes.pure_skeleton": None,
    "complexes.faces_by_dimension": _faces,
    "hypergraphs.con_r": None,
    "hypergraphs.minimal_vertex_covers": None,
    "hypergraphs.is_chordal_hypergraph": _minors,
    "ideals.dual_of_ind": None,
    "ideals.stanley_reisner": None,
    "ideals.alexander_dual_ideal": None,
    "ideals.is_vertex_splittable": _explored,
    "ideals.verify_split_certificate": None,
    "homology.reduced_homology": _is_cone,
    "homology.is_cohen_macaulay": None,
    "homology.is_scm": None,
    "decompose.is_vertex_decomposable": _explored,
    "decompose.is_shellable": _explored,
    "decompose.verify_shedding_certificate": None,
    "decompose.verify_shelling_certificate": None,
}

# faces_by_dimension is a method, so it is patched on the class
METHODS = {"complexes.faces_by_dimension": ("complexes", "SimplicialComplex")}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, count]
        self.stack: list[int] = []

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, result)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; return the names that no longer exist."""
    modules = [m for n, m in list(sys.modules.items()) if n == "rindep" or n.startswith("rindep.")]
    missing = []
    for name, count in TRACED.items():
        module_name, func = name.split(".")
        if name in METHODS:
            mod, cls_name = METHODS[name]
            cls = getattr(sys.modules.get("rindep." + mod), cls_name, None)
            original = getattr(cls, func, None)
            if original is None:
                missing.append(name)
                continue
            setattr(cls, func, tracer.wrap(name, original, count))
            continue
        original = getattr(sys.modules.get("rindep." + module_name), func, None)
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, count)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, wrapped)
    return missing


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        ("_s", "s"), ("_share", "share"), ("_per_s", "1/s"), ("_per_item", "ratio"),
        ("_per_dual", "ratio"), ("_bytes", "bytes"),
    ):
        if metric.endswith(suffix) and not (suffix == "_s" and metric.endswith("_per_s")):
            return unit
    return "count"


def tally(spans: list[list]) -> dict:
    """Additive totals of one call's spans.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {key: dict.fromkeys(TRACED, 0) for key in ("calls", "self_s", "total_s", "counts")}
    out.update(faces=0, links=0, spans=len(spans))
    for i, (name, start, end, parent, count) in enumerate(spans):
        out["calls"][name] += 1
        out["total_s"][name] += end - start
        out["self_s"][name] += end - start - covered[i]
        if count is not None:
            out["counts"][name] += count
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "complexes.faces_by_dimension" and parent_name == "homology.reduced_homology":
            out["faces"] += count or 0
        if name == "complexes.link" and parent_name == "homology.is_cohen_macaulay":
            out["links"] += 1
    return out


def merge(tallies: list[dict]) -> dict:
    total = tally([])
    for t in tallies:
        for key, value in t.items():
            if isinstance(value, dict):
                for name, v in value.items():
                    total[key][name] += v
            else:
                total[key] += value
    return total


def layer_metrics(t: dict, items: int, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its merged tally."""
    calls, counts = t["calls"], t["counts"]
    out: dict[str, float] = {}
    for name in TRACED:
        key = "cli" if name == "cli.main" else name
        out[f"{name}.calls"] = calls[name]
        out[f"{key}.self_s"] = t["self_s"][name]
    rh = "homology.reduced_homology"
    chordal = "hypergraphs.is_chordal_hypergraph"
    out.update(
        {
            "complexes.ind_r.facets": counts["complexes.ind_r"],
            "complexes.ind_r.calls_per_item": calls["complexes.ind_r"] / items if items else 0.0,
            "hypergraphs.minimal_vertex_covers.calls_per_dual": (
                calls["hypergraphs.minimal_vertex_covers"] / calls["ideals.dual_of_ind"]
                if calls["ideals.dual_of_ind"]
                else 0.0
            ),
            f"{rh}.faces": t["faces"],
            "homology.is_cohen_macaulay.links": t["links"],
            "homology.cone_share": counts[rh] / calls[rh] if calls[rh] else 0.0,
            "decompose.is_shellable.explored": counts["decompose.is_shellable"],
            "decompose.is_vertex_decomposable.explored": counts["decompose.is_vertex_decomposable"],
            "ideals.is_vertex_splittable.explored": counts["ideals.is_vertex_splittable"],
            f"{chordal}.minors_visited": counts[chordal],
            f"{chordal}.minors_per_s": (
                counts[chordal] / t["total_s"][chordal] if t["total_s"][chordal] else 0.0
            ),
            "cli.report_bytes": report_bytes,
            "trace.spans": t["spans"],
        }
    )
    return out
