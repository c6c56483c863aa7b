"""Command-line surface: build complexes, run property checks with
certificates, sweep graph families, and replay certificates.

Exit codes: 0 completed (verdicts may still be false), 1 an invalid
certificate (``verify``), 2 rejected input (a parse or usage error, a negative
or non-integer budget, a ``--jobs`` below 1, ``--r`` with ``--complex``, a
``--props`` that names no property, a ``scan --n`` below 1 or above the
20-vertex guard, a field order that is not a prime below 2**64, an input
beyond an enumeration guard, a JSON file invalid or too deep to read, or an
input whose certificate nests too deeply to write as JSON), 3 a search budget
ran out, 4 an internal check failed (a certificate its verifier rejects, a
nonzero boundary of a boundary, or two routes to one result that disagree).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .complexes import (
    SimplicialComplex,
    complex_from_json_dict,
    f_vector,
    ind_r,
)
from .decompose import (
    DEFAULT_SHELL_BUDGET,
    DEFAULT_VD_BUDGET,
    SheddingNode,
    is_shellable,
    is_vertex_decomposable,
    verify_shedding_certificate,
    verify_shelling_certificate,
)
from .graphs import (
    CrossCheckError,
    Graph,
    check_guard,
    complete_graph,
    cycle_graph,
    demo_graph,
    enumerate_trees,
    graph_from_json_dict,
    half_apex_clique,
    is_caterpillar,
    make_caterpillar,
    parse_edge_list,
    path_graph,
    star_graph,
    twin_bridge_paths,
)
from .homology import field_name, is_cohen_macaulay, is_scm, parse_field, reduced_homology
from .hypergraphs import DEFAULT_MINOR_BUDGET, con_r, is_chordal_hypergraph
from .ideals import (
    DEFAULT_SPLIT_BUDGET,
    SplitNode,
    dual_of_ind,
    facet_dual,
    is_vertex_splittable,
    verify_split_certificate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_CROSSCHECK = 4

ALL_PROPS = ("vd", "shellable", "cm", "scm", "homology", "splittable", "chordal-hypergraph")

# each budget is the flag --budget-<name> and the key ``run_checks`` reads
BUDGETS = {
    "vd": DEFAULT_VD_BUDGET,
    "shell": DEFAULT_SHELL_BUDGET,
    "minor": DEFAULT_MINOR_BUDGET,
    "split": DEFAULT_SPLIT_BUDGET,
}

# the generators that take one integer
_SIZED_GENERATORS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "star": star_graph,
    "H": half_apex_clique,
    "G": twin_bridge_paths,
}


def _budget(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be non-negative, got {value}")
    return value


def build_generator(token: str) -> Graph:
    """Named graph generators: fig1, path:n, cycle:n, complete:n, star:n,
    caterpillar:m1,...,ml, H:r, G:r."""
    name, colon, arg = token.partition(":")
    try:
        if name in _SIZED_GENERATORS:
            return _SIZED_GENERATORS[name](int(arg))
        if name == "fig1":
            if colon:
                raise ValueError("fig1 takes no argument")
            return demo_graph()
        if name == "caterpillar":
            return make_caterpillar([int(x) for x in arg.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad generator argument {token!r}: {exc}") from exc
    raise ValueError(f"unknown generator {token!r}")


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _graph_input(args) -> tuple[Graph, dict]:
    if args.gen is not None:
        return build_generator(args.gen), {"kind": "generator", "source": args.gen}
    if args.input.endswith(".json"):
        graph = graph_from_json_dict(_load_json(args.input))
    else:
        graph = parse_edge_list(Path(args.input).read_text())
    return graph, {"kind": "graph-file", "source": args.input}


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, default=lambda o: o.to_json_dict())
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_build(args) -> int:
    graph, _ = _graph_input(args)
    _emit(ind_r(graph, args.r).to_json_dict(), args.out)
    return EXIT_OK


def _budgets(args) -> dict[str, int]:
    return {name: getattr(args, f"budget_{name}") for name in BUDGETS}


def run_checks(
    complex_: SimplicialComplex,
    props: list[str],
    budgets: dict[str, int],
    field: int | None,
    graph: Graph | None,
    r: int | None,
) -> dict:
    """Run the requested property checks and assemble the report blocks,
    from ``field`` to ``timings``; ``_emit`` renders the objects in them.

    ``graph`` and ``r`` enable the graph-level checks (the hypergraph route
    of the splittable check, and hypergraph chordality, which needs them).
    A true ``vd``, ``shellable`` or ``splittable`` verdict is recorded only
    once its certificate has been verified, or the zero-ideal note written;
    a certificate that fails its verifier raises ``CrossCheckError``."""
    verdicts: dict[str, str] = {}
    certificates: dict[str, object] = {}
    witnesses: dict[str, object] = {}
    extras: dict[str, object] = {}
    timings: dict[str, float] = {}

    def record(prop: str, value: bool | None) -> None:
        verdicts[prop] = "budget-exceeded" if value is None else str(value).lower()

    def verified(prop: str, ok: bool) -> None:
        if not ok:
            raise CrossCheckError(f"the {prop} certificate fails its verifier")

    for prop in props:
        start = time.perf_counter()
        if prop == "vd":
            res = is_vertex_decomposable(complex_, budgets["vd"])
            if res.decomposable:
                verified(prop, verify_shedding_certificate(complex_, res.certificate))
                certificates["vd"] = res.certificate
            record(prop, res.decomposable)
        elif prop == "shellable":
            res = is_shellable(complex_, budgets["shell"])
            if res.shellable:
                verified(prop, verify_shelling_certificate(complex_, res.order))
                certificates["shellable"] = [sorted(f) for f in res.order]
            record(prop, res.shellable)
        elif prop == "cm":
            rep = is_cohen_macaulay(complex_, field)
            record(prop, rep.cohen_macaulay)
            if not rep.cohen_macaulay:
                witnesses["cm"] = rep
        elif prop == "scm":
            rep = is_scm(complex_, field)
            record(prop, rep.sequentially_cohen_macaulay)
            extras["scm"] = rep
            if not rep.sequentially_cohen_macaulay:
                first_bad = rep.failing_dimensions()[0]
                bad = dict(rep.skeletons)[first_bad]
                witnesses["scm"] = {"m": first_bad, **bad.to_json_dict()}
        elif prop == "homology":
            profile = reduced_homology(complex_, field)
            extras["betti"] = {"field": profile.field, "reduced": list(profile.reduced)}
            extras["f_vector"] = f_vector(complex_)
        elif prop == "splittable":
            if complex_.masks == {(1 << len(complex_.ground_set)) - 1}:
                # the full simplex is the one complex with a zero Stanley-Reisner
                # ideal; zero and unit ideals are both split base cases, so the
                # verdict is true without taking a dual
                extras["splittable"] = {"note": "stanley-reisner ideal is zero (simplex)"}
                record(prop, True)
            else:
                # a graph's dual is cross-checked against the covers of con_r
                dual = facet_dual(complex_) if graph is None else dual_of_ind(graph, r, complex_)
                res = is_vertex_splittable(dual, budgets["split"])
                extras["splittable"] = {"dual_ideal": dual}
                if res.splittable:
                    verified(prop, verify_split_certificate(dual, res.certificate))
                    certificates["splittable"] = res.certificate
                record(prop, res.splittable)
        elif prop == "chordal-hypergraph":
            res = is_chordal_hypergraph(con_r(graph, r), budgets["minor"])
            record(prop, res.chordal)
            extras["chordal-hypergraph"] = {"minors_visited": res.minors_visited}
            if res.chordal is False:
                witnesses["chordal-hypergraph"] = res.witness
        timings[prop] = round(time.perf_counter() - start, 6)

    report = {"field": field_name(field), "verdicts": verdicts}
    if certificates:
        report["certificates"] = certificates
    if witnesses:
        report["witnesses"] = witnesses
    report.update(extras)
    report["timings"] = timings
    return report


def _parse_props(raw: str) -> list[str]:
    """The named properties, each once, in the order of first mention."""
    props = list(dict.fromkeys(p.strip() for p in raw.split(",") if p.strip()))
    if not props:
        raise ValueError(f"--props names no property, got {raw!r}")
    for p in props:
        if p not in ALL_PROPS:
            raise ValueError(f"unknown property {p!r}; known: {', '.join(ALL_PROPS)}")
    return props


def cmd_check(args) -> int:
    field = parse_field(args.field)
    props = _parse_props(args.props)
    if args.complex is not None:
        if "chordal-hypergraph" in props:
            raise ValueError("chordal-hypergraph needs a graph input and r")
        if args.r is not None:
            raise ValueError("--r applies to a graph input, not to --complex")
        complex_ = complex_from_json_dict(_load_json(args.complex))
        graph, r = None, None
        input_desc = {"kind": "complex-file", "source": args.complex}
    else:
        graph, input_desc = _graph_input(args)
        r = args.r
        if r is None or r < 1:
            raise ValueError("--r is required (a positive integer) for graph inputs")
        complex_ = ind_r(graph, r)
    report = {
        "schema_version": 1,
        "tool": {"name": "rindep", "version": __version__},
        "input": {**input_desc, "r": r},
        **run_checks(complex_, props, _budgets(args), field, graph, r),
    }
    _emit(report, args.out)
    if any(v == "budget-exceeded" for v in report["verdicts"].values()):
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan


def _r_range(raw: str) -> range:
    lo, dots, hi = raw.partition("..")
    try:
        rs = range(int(lo), int(hi if dots else lo) + 1)
        if rs and rs[0] >= 1:
            return rs
    except ValueError:  # a bound that is no integer
        pass
    raise ValueError(f"--r must be a non-empty range of positive integers, got {raw!r}")


def _scan_item(family: str, props: list[str], budgets: dict[str, int], field: int | None, item) -> dict:
    """One JSON line of ``scan`` for the item ``(n, index, tree, r)``."""
    n, index, tree, r = item
    verdicts = run_checks(ind_r(tree, r), props, budgets, field, tree, r)["verdicts"]
    line = {
        "family": family,
        "n": n,
        "index": index,
        "r": r,
        "edges": [list(e) for e in tree.sorted_edges()],
        "verdicts": verdicts,
    }
    # run_checks records these true only with a verified certificate
    certified = {p: True for p in ("vd", "shellable", "splittable") if verdicts.get(p) == "true"}
    if certified:
        line["certified"] = certified
    return line


def _bounded_map(pool, fn, items, width: int):
    """``map(fn, items)`` on ``pool`` with at most ``width`` items submitted and not yet yielded."""
    window = [pool.submit(fn, item) for item in itertools.islice(items, width)]
    while window:
        line = window.pop(0).result()
        window.extend(pool.submit(fn, item) for item in itertools.islice(items, 1))
        yield line


def cmd_scan(args) -> int:
    """Write each item's line as soon as it is done; a failure mid-scan
    keeps the lines already written and writes no summary."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    # every argument, and the output file, is checked before the first item is built
    rs, props, field = _r_range(args.r), _parse_props(args.props), parse_field(args.field)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    check_guard(args.n, "facet")  # the guard each item's Graph applies
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(args.out, "w")) if args.out else sys.stdout
        items = (
            (n, index, tree, r)
            for n in range(1, args.n + 1)
            for index, tree in enumerate(
                t for t in enumerate_trees(n) if args.family == "trees" or is_caterpillar(t)
            )
            for r in rs
        )
        worker = functools.partial(_scan_item, args.family, props, _budgets(args), field)
        # a pool starts all its workers at once, so never more than can run
        head = list(itertools.islice(items, min(args.jobs, os.cpu_count() or 1)))
        items = itertools.chain(head, items)
        if len(head) > 1:
            import concurrent.futures  # only a pool needs it, and it is slow to import

            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=len(head)))
            lines = _bounded_map(pool, worker, items, 2 * len(head))
        else:
            lines = map(worker, items)
        counts: dict[str, dict[str, int]] = {}
        counterexamples = []
        done = 0
        for line in lines:
            print(json.dumps(line, separators=(",", ":")), file=out)
            done += 1
            for prop, verdict in line["verdicts"].items():
                tally = counts.setdefault(prop, {})
                tally[verdict] = tally.get(verdict, 0) + 1
                if verdict == "false":
                    counterexamples.append({"n": line["n"], "index": line["index"], "r": line["r"], "prop": prop})
        budget_hits = sum(tally.get("budget-exceeded", 0) for tally in counts.values())
        summary = {
            "summary": {
                "items": done,
                "verdicts": counts,
                "counterexamples": counterexamples,
                "budget_exceeded": budget_hits,
            }
        }
        print(json.dumps(summary, separators=(",", ":")), file=out)
    return EXIT_BUDGET if budget_hits else EXIT_OK


def cmd_verify(args) -> int:
    """The certificate's kind is read off its JSON shape, tried in this
    order: a dict with ``generators`` is a splitting, replayed on the dual
    ideal; any other dict without ``order`` is a shedding tree; anything
    else is a shelling, a bare list or the list under ``order``."""
    complex_ = complex_from_json_dict(_load_json(args.complex))
    cert = _load_json(args.certificate)
    try:
        if isinstance(cert, dict) and "generators" in cert:
            ok = verify_split_certificate(facet_dual(complex_), SplitNode.from_json_dict(cert))
        elif isinstance(cert, dict) and "order" not in cert:
            ok = verify_shedding_certificate(complex_, SheddingNode.from_json_dict(cert))
        else:
            order = cert["order"] if isinstance(cert, dict) else cert
            ok = isinstance(order, list) and all(isinstance(f, list) for f in order)
            ok = ok and verify_shelling_certificate(complex_, order)
    except ValueError:  # malformed, or a simplex (zero ideal)
        ok = False
    print("valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_INVALID


# ---------------------------------------------------------------------------
# argument parsing


def _add_input_args(p: argparse.ArgumentParser, with_complex: bool = False) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gen", help="named generator, e.g. fig1, path:7, caterpillar:1,2,1,1, H:2, G:3")
    source.add_argument("--input", help="graph file: JSON if its name ends in .json, else an edge list")
    if with_complex:
        source.add_argument("--complex", help="complex JSON file instead of a graph")


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    for name, default in BUDGETS.items():
        p.add_argument(f"--budget-{name}", type=_budget, default=default)
    p.add_argument("--field", default="q", help="q or gf:p")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rindep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rindep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit the facets of the r-independence complex")
    _add_input_args(p_build)
    p_build.add_argument("--r", type=int, required=True)
    p_build.add_argument("--out")
    p_build.set_defaults(func=cmd_build)

    p_check = sub.add_parser("check", help="run property checks and emit a report")
    _add_input_args(p_check, with_complex=True)
    p_check.add_argument("--r", type=int)
    p_check.add_argument("--props", required=True, help=f"comma list of {', '.join(ALL_PROPS)}")
    _add_budget_args(p_check)
    p_check.add_argument("--out")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="sweep a graph family, one JSON line per (graph, r)")
    p_scan.add_argument("--family", choices=("trees", "caterpillars"), required=True)
    p_scan.add_argument("--n", type=int, required=True, help="maximum vertex count")
    p_scan.add_argument("--r", required=True, help="range like 1..3 or a single value")
    p_scan.add_argument("--props", required=True)
    p_scan.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")
    _add_budget_args(p_scan)
    p_scan.add_argument("--out")
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="replay a certificate against a complex")
    p_verify.add_argument("complex", help="complex JSON file")
    p_verify.add_argument("certificate", help="certificate JSON file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:  # json.dumps(indent=2) recurses once per certificate level
        print("error: certificate nested deeper than the recursion limit", file=sys.stderr)
        return EXIT_PARSE
    except CrossCheckError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK


if __name__ == "__main__":
    sys.exit(main())
