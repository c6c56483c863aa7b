"""Correctness gate: check every call's output against the expected table.

Runs after the timed passes.  Certificates are replayed with the package's
public verifiers; facts about graphs (r-independence, trees, minors,
simplicial vertices) are re-derived here with code of the benchmark's own,
so the gate does not share a search with the program it checks.
"""

from __future__ import annotations

import itertools
import json
import random

from workloads import Call

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}
SCAN_SAMPLE = 6  # scan lines per run whose verdicts are re-derived and certified


class Outcome:
    """Operations attempted and failed in one call, with the reasons."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.verdicts = 0
        self.budget_exceeded = 0
        self.results = 0  # verdicts, Betti profiles and complexes produced
        self.problems: list[str] = []

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.problems.append(problem)


def expected_ops(call: Call) -> int:
    if call.argv[0] == "scan":
        return sum(call.extra["tree_counts"]) * len(call.extra["r"])
    return 1


# ---------------------------------------------------------------------------
# independent combinatorics


def _capped_components(adj, subset, r) -> bool:
    """True when every component of the induced subgraph has <= r vertices."""
    seen = set()
    for start in subset:
        if start in seen:
            continue
        stack, size = [start], 0
        seen.add(start)
        while stack:
            v = stack.pop()
            size += 1
            for u in adj[v]:
                if u in subset and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if size > r:
            return False
    return True


def _maximal_r_independent(adj, subset, r) -> bool:
    return _capped_components(adj, subset, r) and not any(
        _capped_components(adj, subset | {v}, r) for v in adj if v not in subset
    )


def _all_maximal_r_independent(adj, r) -> set[frozenset]:
    verts = sorted(adj)
    faces = [
        frozenset(c)
        for k in range(len(verts) + 1)
        for c in itertools.combinations(verts, k)
        if _capped_components(adj, frozenset(c), r)
    ]
    face_set = set(faces)
    return {f for f in faces if not any(f | {v} in face_set for v in verts if v not in f)}


def _tree_code(n: int, edges) -> str | None:
    """Canonical code of a tree (centre-rooted AHU encoding), None if not a tree."""
    adj = {str(v): set() for v in range(1, n + 1)}
    for u, v in edges:
        if u not in adj or v not in adj or u == v:
            return None
        adj[u].add(v)
        adj[v].add(u)
    if len(edges) != n - 1 or len(_component(adj, "1")) != n:
        return None
    layer = [v for v in adj if len(adj[v]) <= 1]
    degree = {v: len(adj[v]) for v in adj}
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for leaf in layer:
            for u in adj[leaf]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt

    def encode(v, parent):
        return "(" + "".join(sorted(encode(c, v) for c in adj[v] if c != parent)) + ")"

    return min(encode(c, None) for c in layer)


def _component(adj, start) -> set:
    seen, stack = {start}, [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _connected_subsets(adj, size) -> set[frozenset]:
    return {
        frozenset(c)
        for c in itertools.combinations(sorted(adj), size)
        if len(_component({v: adj[v] & set(c) for v in c}, c[0])) == size
    }


def _minimal(sets) -> set[frozenset]:
    sets = set(sets)
    return {s for s in sets if not any(t < s for t in sets)}


def _is_minor(edges, vertices, witness_vertices, witness_edges) -> bool:
    """Is (witness_vertices, witness_edges) a deletion/contraction minor?"""
    rest = sorted(set(vertices) - set(witness_vertices))
    if not set(witness_vertices) <= set(vertices) or len(rest) > 16:
        return False
    for mask in range(1 << len(rest)):
        deleted = {v for i, v in enumerate(rest) if mask >> i & 1}
        contracted = set(rest) - deleted
        minor = _minimal(e - contracted for e in edges if not e & deleted)
        if minor == witness_edges:
            return True
    return False


def _has_simplicial_vertex(vertices, edges) -> bool:
    for v in vertices:
        through = [e for e in edges if v in e]
        if all(
            any(e3 <= (e1 | e2) - {v} for e3 in edges)
            for e1, e2 in itertools.combinations(through, 2)
        ):
            return True
    return False


def _euler(values) -> int:
    """Alternating sum over degrees -1, 0, 1, ..."""
    return sum(-v if i % 2 == 0 else v for i, v in enumerate(values))


# ---------------------------------------------------------------------------
# gate


class Gate:
    """Checks outputs; identical outputs are checked once per run."""

    def __init__(self, seed: int):
        import rindep.cli as cli
        from rindep import complexes, decompose, homology, ideals

        self.cli, self.cx, self.dec, self.hom, self.ideals = cli, complexes, decompose, homology, ideals
        self.rng = random.Random(seed)
        self.cache: dict = {}

    def check(self, call: Call, res: dict) -> Outcome:
        key = (call.name, res["exit"], res["exception"], _strip_timings(res["stdout"]))
        if key not in self.cache:
            self.cache[key] = self._check(call, res)
        return self.cache[key]

    def _check(self, call: Call, res: dict) -> Outcome:
        out = Outcome(expected_ops(call))
        if res["exception"]:
            out.fail(f"exception out of cli.main: {res['exception']}", out.attempted)
            return out
        if res["exit"] not in DOCUMENTED_EXIT_CODES:
            out.fail(f"undocumented exit code {res['exit']}", out.attempted)
            return out
        if res["exit"] != call.exit_code:
            out.fail(f"exit {res['exit']}, expected {call.exit_code}: {res['stderr']}", out.attempted)
            return out
        if call.exit_code != 0:
            return out
        try:
            if call.argv[0] == "scan":
                self._scan(call, res["stdout"], out)
            elif call.argv[0] == "build":
                self._build(call, json.loads(res["stdout"]), out)
                out.results = 1
            else:
                rep = json.loads(res["stdout"])
                self._report(call, rep, out)
                out.results = out.verdicts + ("betti" in rep)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            out.fail(f"malformed output: {type(exc).__name__}: {exc}", out.attempted)
        return out

    # -- scan ---------------------------------------------------------------

    def _scan(self, call: Call, stdout: str, out: Outcome) -> None:
        rows = [json.loads(line) for line in stdout.splitlines()]
        summary, lines = rows[-1]["summary"], rows[:-1]
        if summary["items"] != out.attempted or summary["budget_exceeded"] or summary["counterexamples"]:
            out.fail(f"summary {summary}")
        if len(lines) != out.attempted:
            out.fail(f"{len(lines)} lines, expected {out.attempted}", out.attempted)
            return
        codes: dict[int, dict[int, str]] = {}
        seen = set()
        for line in lines:
            n, index, r = line["n"], line["index"], line["r"]
            out.verdicts += len(line["verdicts"])
            out.budget_exceeded += sum(v == "budget-exceeded" for v in line["verdicts"].values())
            problems = []
            if (n, index, r) in seen or r not in call.extra["r"]:
                problems.append("duplicate or unexpected item")
            seen.add((n, index, r))
            if line["verdicts"] != call.verdicts:
                problems.append(f"verdicts {line['verdicts']}")
            if line.get("certified") != {p: True for p in call.verdicts}:
                problems.append(f"certified {line.get('certified')}")
            code = _tree_code(n, [tuple(e) for e in line["edges"]])
            if code is None or codes.setdefault(n, {}).setdefault(index, code) != code:
                problems.append("edges are not the tree of this item")
            if problems:
                out.fail(f"n={n} index={index} r={r}: {'; '.join(problems)}")
        for n, count in enumerate(call.extra["tree_counts"], start=1):
            classes = codes.get(n, {})
            if len(classes) != count or len(set(classes.values())) != count:
                out.fail(f"n={n}: {len(set(classes.values()))} tree classes, expected {count}")
        out.results = out.verdicts
        for line in self.rng.sample(lines, min(SCAN_SAMPLE, len(lines))):
            self._certify_tree_item(line, out)

    def _certify_tree_item(self, line: dict, out: Outcome) -> None:
        """Re-derive a scan item's verdicts and replay their certificates."""
        dec, ideals = self.dec, self.ideals
        n, r = line["n"], line["r"]
        graph = self.cli.Graph.from_edges([str(i) for i in range(1, n + 1)], line["edges"])
        k = self.cx.ind_r(graph, r)
        where = f"n={n} index={line['index']} r={r}"
        if set(k.facets) != _all_maximal_r_independent(graph.adjacency, r):
            out.fail(f"{where}: facets are not the maximal r-independent sets")
        vd = dec.is_vertex_decomposable(k)
        if not (vd.decomposable and dec.verify_shedding_certificate(k, vd.certificate)):
            out.fail(f"{where}: no valid shedding certificate")
        sh = dec.is_shellable(k)
        if not (sh.shellable and dec.verify_shelling_certificate(k, sh.order)):
            out.fail(f"{where}: no valid shelling certificate")
        if k.is_simplex:
            return  # zero Stanley-Reisner ideal: splittable without a dual
        dual = ideals.dual_of_ind(graph, r)
        sp = ideals.is_vertex_splittable(dual)
        if not (sp.splittable and ideals.verify_split_certificate(dual, sp.certificate)):
            out.fail(f"{where}: no valid splitting certificate")

    # -- build --------------------------------------------------------------

    def _build(self, call: Call, data: dict, out: Outcome) -> None:
        graph = self.cli.build_generator(call.extra["gen"])
        r = call.extra["r"]
        facets = [frozenset(f) for f in data["facets"]]
        if data["ground_set"] != list(graph.vertices):
            out.fail("ground set differs from the graph's vertices")
        if len(facets) != call.extra["facets"] or len(set(facets)) != len(facets):
            out.fail(f"{len(facets)} facets, expected {call.extra['facets']} distinct")
        adj = graph.adjacency
        if not all(_maximal_r_independent(adj, f, r) for f in facets):
            out.fail("a facet is not a maximal r-independent set")

    # -- check --------------------------------------------------------------

    def _report(self, call: Call, rep: dict, out: Outcome) -> None:
        gen, r = call.extra["gen"], call.extra["r"]
        verdicts = rep["verdicts"]
        out.verdicts += len(verdicts)
        out.budget_exceeded += sum(v == "budget-exceeded" for v in verdicts.values())
        if rep["input"] != {"kind": "generator", "source": gen, "r": r}:
            out.fail(f"input block {rep['input']}")
        if verdicts != call.verdicts:
            out.fail(f"verdicts {verdicts}, expected {call.verdicts}")
            return
        graph = self.cli.build_generator(gen)
        k = self.cx.ind_r(graph, r)
        field = self.hom.parse_field(call.argv[call.argv.index("--field") + 1]) if "--field" in call.argv else None
        certs = rep.get("certificates", {})
        dec, ideals = self.dec, self.ideals
        if verdicts.get("vd") == "true" and not (
            "vd" in certs
            and dec.verify_shedding_certificate(k, dec.SheddingNode.from_json_dict(certs["vd"]))
        ):
            out.fail("vd certificate missing or invalid")
        if verdicts.get("shellable") == "true" and not (
            "shellable" in certs and dec.verify_shelling_certificate(k, certs["shellable"])
        ):
            out.fail("shelling certificate missing or invalid")
        if verdicts.get("splittable") == "true":
            self._splittable(call, rep, graph, certs, out)
        if "scm" in verdicts:
            self._scm(call, rep, k, field, out)
        if "betti" in call.extra:
            self._homology(call, rep, k, out)
        if verdicts.get("chordal-hypergraph") == "false":
            self._chordal_witness(rep, graph, r, out)
        elif "chordal-hypergraph" in rep.get("witnesses", {}):
            out.fail("chordal verdict true but a witness is present")

    def _splittable(self, call, rep, graph, certs, out) -> None:
        ideals = self.ideals
        dual_json = rep["splittable"]["dual_ideal"]
        dual = ideals.MonomialIdeal.from_supports(dual_json["variables"], dual_json["generators"])
        if not (
            "splittable" in certs
            and ideals.verify_split_certificate(dual, ideals.SplitNode.from_json_dict(certs["splittable"]))
        ):
            out.fail("splitting certificate missing or invalid")
        everything = frozenset(graph.vertices)
        complements = [everything - g for g in dual.generators]
        if len(complements) != call.extra["dual_generators"] or not all(
            _maximal_r_independent(graph.adjacency, c, call.extra["r"]) for c in complements
        ):
            out.fail("dual generators are not the complements of the facets")

    def _scm(self, call, rep, k, field, out) -> None:
        cx, hom = self.cx, self.hom
        skeletons = rep["scm"]["skeletons"]
        if [s["m"] for s in skeletons] != list(range(1, k.dimension + 1)):
            out.fail("scm report does not list every skeleton m = 1..dim")
        failing = tuple(s["m"] for s in skeletons if not s["cohen_macaulay"])
        if "failing" in call.extra and failing != call.extra["failing"]:
            out.fail(f"failing skeletons {failing}, expected {call.extra['failing']}")
        if "failing_includes" in call.extra and call.extra["failing_includes"] not in failing:
            out.fail(f"skeleton {call.extra['failing_includes']} should fail; failing {failing}")
        if rep["verdicts"]["scm"] == "true":
            if failing or "scm" in rep.get("witnesses", {}):
                out.fail("scm true with failing skeletons or a witness")
            return
        witness = rep.get("witnesses", {}).get("scm")
        if not witness or not failing or witness["m"] != failing[0]:
            out.fail("scm false without a witness for its first failing skeleton")
            return
        face = frozenset(witness["witness_face"])
        if "witness_face" in call.extra and face != frozenset(call.extra["witness_face"]):
            out.fail(f"witness face {sorted(face)}, expected {call.extra['witness_face']}")
        lk = cx.link(cx.pure_skeleton(k, witness["m"]), face)
        degree = witness["witness_degree"]
        if not (degree < lk.dimension and hom.reduced_homology(lk, field).betti(degree) != 0):
            out.fail("scm witness does not violate Reisner's criterion")

    def _homology(self, call, rep, k, out) -> None:
        betti, f = rep["betti"]["reduced"], rep["f_vector"]
        if tuple(betti) != call.extra["betti"]:
            out.fail(f"betti {betti}, expected {list(call.extra['betti'])}")
        if f[:2] != [1, len(k.ground_set)] or len(f) != k.dimension + 2:
            out.fail(f"f_vector {f} does not fit the complex")
        if _euler(betti) != _euler(f):
            out.fail("Betti numbers contradict the Euler characteristic of the f-vector")

    def _chordal_witness(self, rep, graph, r, out) -> None:
        witness = rep.get("witnesses", {}).get("chordal-hypergraph")
        if not witness:
            out.fail("chordal verdict false without a witness")
            return
        verts = witness["vertices"]
        edges = {frozenset(e) for e in witness["edges"]}
        if not verts or _has_simplicial_vertex(verts, edges):
            out.fail("witness minor has a simplicial vertex")
        hyper_edges = _connected_subsets(graph.adjacency, r + 1)
        if not _is_minor(hyper_edges, graph.vertices, verts, edges):
            out.fail("witness is not a minor of the connected-subset hypergraph")


def _strip_timings(stdout: str) -> str:
    if not stdout.startswith("{\n"):
        return stdout
    try:
        rep = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(rep, dict):
        rep.pop("timings", None)
    return json.dumps(rep, sort_keys=True)
