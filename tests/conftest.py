"""Shared brute-force oracles, written independently of the package code
paths they check."""

from __future__ import annotations

import contextlib
import itertools
import random
import sys
from collections import deque
from fractions import Fraction

import networkx as nx
from hypothesis import settings

from rindep.complexes import SimplicialComplex, mask_order, pure_skeleton, submasks
from rindep.decompose import DEFAULT_VD_BUDGET, SheddingNode, VDResult
from rindep.graphs import Graph
from rindep.homology import CMReport, SCMReport, _betti, field_name
from rindep.hypergraphs import DEFAULT_MINOR_BUDGET, ChordalityResult, Hypergraph
from rindep.ideals import DEFAULT_SPLIT_BUDGET, SplitNode, SplitResult

# the same examples on every run, so that a red run can be reproduced
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@contextlib.contextmanager
def recursion_limit(frames: int):
    """Lower the recursion limit to ``frames`` above the caller's depth, so
    that a test of deep inputs stays small and fast."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def path_complex(n: int):
    """Facets {i, i+1} on the labels "0".."n-1": a shedding tree nests
    about n levels deep."""
    verts = [str(i) for i in range(n)]
    facets = frozenset(frozenset(verts[i : i + 2]) for i in range(n - 1))
    return SimplicialComplex(tuple(verts), facets)


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(tuple(e) for e in g.edges)
    return out


def random_graph(rng: random.Random, n_min: int = 3, n_max: int = 7) -> Graph:
    n = rng.randint(n_min, n_max)
    verts = [str(i) for i in range(1, n + 1)]
    p = rng.choice((0.2, 0.35, 0.5, 0.7))
    edges = [e for e in itertools.combinations(verts, 2) if rng.random() < p]
    return Graph.from_edges(verts, edges)


def oracle_r_independent(g: Graph, subset: frozenset[str], r: int) -> bool:
    """Definition check through networkx components."""
    sub = to_networkx(g).subgraph(subset)
    return all(len(c) <= r for c in nx.connected_components(sub))


def oracle_ind_r_facets(g: Graph, r: int) -> set[frozenset[str]]:
    """All maximal r-independent sets by scanning the full power set."""
    independent = [
        frozenset(c)
        for k in range(len(g.vertices) + 1)
        for c in itertools.combinations(g.vertices, k)
        if oracle_r_independent(g, frozenset(c), r)
    ]
    pool = set(independent)
    return {
        s
        for s in pool
        if not any(v not in s and (s | {v}) in pool for v in g.vertices)
    }


def oracle_ind_hypergraph_facets(h: Hypergraph) -> set[frozenset[str]]:
    """Maximal vertex sets containing no edge, by scanning the full power
    set; an empty edge leaves no face at all."""
    faces = {
        frozenset(c)
        for k in range(len(h.vertices) + 1)
        for c in itertools.combinations(h.vertices, k)
        if not any(e <= frozenset(c) for e in h.edges)
    }
    return {f for f in faces if not any(f | {v} in faces for v in h.vertices if v not in f)}


def oracle_minimal_covers(vertices, edges) -> set[frozenset[str]]:
    """All minimal transversals by scanning the full power set twice."""
    edges = [frozenset(e) for e in edges]
    if any(not e for e in edges):
        return set()
    covers = {
        frozenset(c)
        for k in range(len(vertices) + 1)
        for c in itertools.combinations(vertices, k)
        if all(frozenset(c) & e for e in edges)
    }
    return {c for c in covers if not any(d < c for d in covers)}


def reduced_hypergraph(vertices, edges) -> Hypergraph:
    """The simple hypergraph of the inclusion-minimal members of ``edges``."""
    by_size = sorted({frozenset(map(str, e)) for e in edges}, key=len)
    minimal: list[frozenset[str]] = []
    for e in by_size:
        if not any(m <= e for m in minimal):
            minimal.append(e)
    return Hypergraph(tuple(map(str, vertices)), frozenset(minimal))


def _check_vertex(h: Hypergraph, v: str) -> None:
    if v not in h.vertices:
        raise ValueError(f"unknown vertex {v!r}")


def delete_vertex(h: Hypergraph, v: str) -> Hypergraph:
    """Drop ``v`` and every edge containing it."""
    _check_vertex(h, v)
    verts = tuple(u for u in h.vertices if u != v)
    return reduced_hypergraph(verts, (e for e in h.edges if v not in e))


def contract_vertex(h: Hypergraph, v: str) -> Hypergraph:
    """Drop ``v`` from the vertex set and from every edge, then reduce to the
    underlying simple hypergraph.  Contracting the last vertex of an edge
    leaves the empty edge, which is retained as the unique minimal edge."""
    _check_vertex(h, v)
    verts = tuple(u for u in h.vertices if u != v)
    return reduced_hypergraph(verts, (e - {v} for e in h.edges))


def is_simplicial_vertex(h: Hypergraph, v: str) -> bool:
    """True iff every two distinct edges through ``v`` contain a third edge
    inside their union minus ``v``; reading "two edges" as distinct pairs
    makes the notion agree with graph chordality on graphs."""
    _check_vertex(h, v)
    through = [e for e in h.edges if v in e]
    for e1, e2 in itertools.combinations(through, 2):
        target = (e1 | e2) - {v}
        if not any(e3 <= target for e3 in h.edges):
            return False
    return True


def oracle_chordality(h: Hypergraph, budget: int = DEFAULT_MINOR_BUDGET) -> ChordalityResult:
    """Breadth-first search over labelled minors through the public minor
    operations, deduplicated by (vertex tuple, sorted edge list)."""

    def key(m: Hypergraph) -> tuple:
        return m.vertices, tuple(sorted(tuple(sorted(e)) for e in m.edges))

    queue = deque([h])
    seen = {key(h)}
    visited = 0
    while queue:
        minor = queue.popleft()
        visited += 1
        if visited > budget:
            return ChordalityResult(None, None, visited - 1)
        if minor.vertices and not any(is_simplicial_vertex(minor, v) for v in minor.vertices):
            return ChordalityResult(False, minor, visited)
        for v in minor.vertices:
            for child in (delete_vertex(minor, v), contract_vertex(minor, v)):
                if key(child) not in seen:
                    seen.add(key(child))
                    queue.append(child)
    return ChordalityResult(True, None, visited)


class _BudgetSpent(Exception):
    pass


def _labelled_search(root, candidates, children, budget, node):
    """Recursive certificate search over labelled set families: a family
    with at most one member is a leaf; a state is memoized, reserved as
    failed while open, and the budget counts memo entries."""
    memo = {}

    def canon(sets):
        return tuple(sorted(tuple(sorted(s)) for s in sets))

    def solve(sets):
        if sets in memo:
            return memo[sets]
        if len(memo) >= budget:
            raise _BudgetSpent
        memo[sets] = None
        if len(sets) <= 1:
            memo[sets] = node(canon(sets))
            return memo[sets]
        for v in candidates(sets):
            parts = children(sets, v)
            if parts is None:
                continue
            first = solve(parts[0])
            if first is None:
                continue
            second = solve(parts[1])
            if second is None:
                continue
            memo[sets] = node(canon(sets), v, first, second)
            return memo[sets]
        return None

    try:
        cert = solve(root)
    except _BudgetSpent:
        return None, None, len(memo)
    return cert is not None, cert, len(memo)


def oracle_vd(k, budget: int = DEFAULT_VD_BUDGET, candidate_order=None) -> VDResult:
    """Vertex decomposability by the definition: a vertex sheds when the
    maximal sets of the deletion are facets; candidates in ground-set order
    (or ``candidate_order``)."""
    order = tuple(candidate_order) if candidate_order is not None else k.ground_set

    def candidates(facets):
        support = frozenset().union(*facets)
        return [v for v in order if v in support]

    def children(facets, v):
        parts = {f - {v} for f in facets}
        deletion = frozenset(p for p in parts if not any(p < q for q in parts))
        if not deletion <= facets:
            return None
        return frozenset(f - {v} for f in facets if v in f), deletion

    return VDResult(*_labelled_search(k.facets, candidates, children, budget, SheddingNode))


def oracle_split(i, budget: int = DEFAULT_SPLIT_BUDGET) -> SplitResult:
    """Vertex splitting by the definition, pivots in the string order of
    the variables that occur."""

    def children(gens, x):
        quotients = frozenset(g - {x} for g in gens if x in g)
        remainder = frozenset(g for g in gens if x not in g)
        if not quotients or not all(any(q <= f for q in quotients) for f in remainder):
            return None
        return quotients, remainder

    return SplitResult(
        *_labelled_search(
            i.generators, lambda gens: sorted(frozenset().union(*gens)), children, budget, SplitNode
        )
    )


def oracle_shelling_order_ok(order: list[frozenset[str]]) -> bool:
    """Direct definition: each facet meets the union of its predecessors in
    a pure subcomplex one dimension down."""
    for t in range(1, len(order)):
        fk = order[t]
        meets = {fj & fk for fj in order[:t]}
        maximal = {m for m in meets if not any(m < other for other in meets)}
        if any(len(m) != len(fk) - 1 for m in maximal):
            return False
    return True


def oracle_is_shellable(facets: list[frozenset[str]]) -> bool:
    if len(facets) <= 1:
        return True
    return any(
        oracle_shelling_order_ok(list(perm)) for perm in itertools.permutations(facets)
    )


def oracle_rank_over_q(rows: list[list[int]]) -> int:
    """Dense Gaussian elimination with exact fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((i for i in range(pivot_row, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        mat[pivot_row] = [x * inv for x in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def oracle_reduced_betti(k) -> list[int]:
    """Reduced Betti numbers over Q, degree -1 upward: every boundary matrix
    rebuilt densely from the labelled faces and ranked with fractions."""
    grouped = k.faces_by_dimension()
    top = max(grouped)
    ranks = {}
    for d in range(0, top + 1):
        lower = grouped.get(d - 1, [])
        upper = grouped.get(d, [])
        idx = {f: i for i, f in enumerate(lower)}
        dense = [[0] * len(upper) for _ in lower]
        for col, face in enumerate(upper):
            ordered = sorted(face, key=lambda v: k.index[v])
            for j, v in enumerate(ordered):
                dense[idx[face - {v}]][col] = (-1) ** j
        ranks[d] = oracle_rank_over_q(dense) if lower and upper else 0
    ranks[top + 1] = 0
    return [len(grouped.get(d, [])) - ranks.get(d, 0) - ranks[d + 1] for d in range(-1, top + 1)]


def oracle_cm(k, field: int | None = None) -> CMReport:
    """Reisner's criterion with the link of every face eliminated afresh,
    faces in (dimension, label) order."""
    name = field_name(field)
    if not k.is_pure():
        smallest = min(k.facets, key=lambda f: (len(f), k.face_key(f)))
        return CMReport(False, name, smallest, None, "non-pure")
    facets = k.facet_masks
    for face in sorted(k.face_masks(), key=mask_order):
        lk = submasks(f ^ face for f in facets if f & face == face)
        for i, b in enumerate(_betti(lk, field)[:-1]):
            if b:
                return CMReport(False, name, k.labels(face), i - 1, "link-homology")
    return CMReport(True, name)


def oracle_scm(k, field: int | None = None) -> SCMReport:
    """Every pure m-skeleton, m = 1..dim in ascending order, checked by
    ``oracle_cm``: no memo shared between skeletons and none inferred."""
    entries = tuple(
        (m, oracle_cm(pure_skeleton(k, m), field)) for m in range(1, (k.dimension or 0) + 1)
    )
    return SCMReport(all(rep.cohen_macaulay for _, rep in entries), field_name(field), entries)


def prufer_decode(seq: tuple[int, ...], n: int) -> frozenset[frozenset[int]]:
    """Labeled tree on 0..n-1 from its length n-2 sequence."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = set()
    leaves = sorted(i for i in range(n) if degree[i] == 1)
    import heapq

    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.add(frozenset((leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.add(frozenset((u, v)))
    return frozenset(edges)


def ahu_canonical_key(edges: frozenset[frozenset[int]], n: int):
    """Canonical form of a free tree: AHU encoding rooted at the centers."""
    if n == 1:
        return ("()",)
    adj = {i: set() for i in range(n)}
    for e in edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    # peel leaves to find the center(s)
    degree = {v: len(ns) for v, ns in adj.items()}
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    alive = {v: True for v in range(n)}
    while remaining > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            remaining -= 1
            for w in adj[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(n) if alive[v]]

    def encode(v: int, parent: int | None) -> str:
        subs = sorted(encode(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return tuple(sorted(encode(c, None) for c in centers))
