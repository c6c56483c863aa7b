"""Shared brute-force oracles, written independently of the package code
paths they check."""

from __future__ import annotations

import contextlib
import functools
import itertools
import random
import sys
from collections import deque
from math import gcd

import networkx as nx
import pytest
from hypothesis import settings

from rindep import homology

from rindep.complexes import SimplicialComplex, mask_order, pure_skeleton
from rindep.decompose import (
    DEFAULT_SHELL_BUDGET,
    DEFAULT_VD_BUDGET,
    SheddingNode,
    ShellingResult,
    VDResult,
)
from rindep.graphs import Graph, parse_family, sets_of
from rindep.homology import CMReport, SCMReport, field_name
from rindep.hypergraphs import (
    DEFAULT_MINOR_BUDGET,
    ChordalityResult,
    Hypergraph,
    minimal_vertex_covers,
)
from rindep.ideals import (
    DEFAULT_SPLIT_BUDGET,
    MonomialIdeal,
    SplitNode,
    SplitResult,
    _splits,
)

# the same examples on every run, so that a red run can be reproduced
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_cached_betti_numbers():
    """Each test starts with an empty cache of link Betti numbers, so what
    it counts does not depend on the tests that ran before it."""
    homology._betti.cache_clear()


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


def oracle_check_family(labels: tuple[str, ...], sets: frozenset[frozenset[str]], member: str) -> None:
    """The family rule on labels: raise ``ValueError`` unless ``labels`` are
    distinct and ``sets``, a family of distinct sets, form an antichain
    over them; ``member`` names one set in the messages, the least
    offender by sorted labels.  Two distinct sets of one size are never
    nested, so only sets of different sizes are compared."""
    known = set(labels)
    if len(known) != len(labels):
        twice = next(v for i, v in enumerate(labels) if v in labels[:i])
        raise ValueError(f"label {twice!r} appears twice under the {member}s")
    unknown = [s for s in sets if not s <= known]
    if unknown:
        raise ValueError(f"{member} {min(map(sorted, unknown))} uses unknown labels")
    by_size: dict[int, list[frozenset[str]]] = {}
    for s in sets:
        by_size.setdefault(len(s), []).append(s)
    groups = [by_size[n] for n in sorted(by_size)]
    inner = [a for i, small in enumerate(groups) for large in groups[i + 1 :] for a in small for b in large if a < b]
    if inner:
        raise ValueError(f"{member} {min(map(sorted, inner))} lies inside another {member}")


MEMBERS = {SimplicialComplex: "facet", Hypergraph: "edge", MonomialIdeal: "generator", Graph: "edge"}


def labelled(cls, labels, sets):
    """The record ``cls`` (a complex, hypergraph, ideal or graph) over ``labels``
    whose family is the labelled ``sets``, through the package's one entry
    from labels to masks."""
    labels = tuple(map(str, labels))
    return cls(labels, frozenset(parse_family(labels, sets, MEMBERS[cls])))


def complex_from_faces(ground_set, faces) -> SimplicialComplex:
    """The complex on ``ground_set`` generated by ``faces``: only the
    inclusion-maximal ones are kept as facets."""
    sets = {frozenset(map(str, f)) for f in faces}
    return labelled(SimplicialComplex, ground_set, (f for f in sets if not any(f < g for g in sets)))


def faces_of(k: SimplicialComplex) -> set[frozenset[str]]:
    """Every face of ``k``, the empty set included (unless void)."""
    return set(map(k.labels, k.face_masks()))


def has_face(k: SimplicialComplex, face) -> bool:
    """Whether ``face`` lies inside some facet of ``k``."""
    f = frozenset(face)
    return any(f <= g for g in k.facets)


def sorted_facets(k: SimplicialComplex) -> list[frozenset[str]]:
    """The facets of ``k`` in the order of their ground-set index tuples."""
    return sorted(k.facets, key=lambda f: sorted(map(k.ground_set.index, f)))


def faces_by_dimension(k: SimplicialComplex) -> dict[int, list[frozenset[str]]]:
    """Faces grouped by dimension (-1 upward), each group in ground-set
    index order."""
    grouped: dict[int, list[frozenset[str]]] = {}
    for m in sorted(k.face_masks(), key=mask_order):
        grouped.setdefault(m.bit_count() - 1, []).append(k.labels(m))
    return grouped


def path_complex(n: int):
    """Facets {i, i+1} on the labels "0".."n-1": a shedding tree nests
    about n levels deep."""
    verts = [str(i) for i in range(n)]
    return labelled(SimplicialComplex, verts, (verts[i : i + 2] for i in range(n - 1)))


def variable_ideal(n: int) -> MonomialIdeal:
    """The ideal generated by the variables "x000".."x{n-1}": a splitting
    certificate nests n levels deep."""
    names = [f"x{i:03}" for i in range(n)]
    return MonomialIdeal.from_supports(names, [[v] for v in names])


def graph_edges(g: Graph) -> frozenset[frozenset[str]]:
    """The edges of ``g`` as label pairs; the graph itself keeps masks."""
    return sets_of(g.vertices, g.masks)


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(tuple(e) for e in graph_edges(g))
    return out


# ---------------------------------------------------------------------------
# labelled graph helpers: the definitions the mask code is checked against


def degree(g: Graph, v: str) -> int:
    return len(g.adjacency[v])


def induced_subgraph(g: Graph, s) -> Graph:
    """Subgraph on the vertex subset ``s`` with all edges inside it."""
    sub = frozenset(s)
    unknown = sub - set(g.vertices)
    if unknown:
        raise ValueError(f"unknown vertex labels: {sorted(unknown)}")
    verts = tuple(v for v in g.vertices if v in sub)
    return labelled(Graph, verts, (e for e in graph_edges(g) if e <= sub))


def connected_components(g: Graph) -> list[frozenset[str]]:
    """Partition of the vertex set into components, ordered by first vertex."""
    seen: set[str] = set()
    parts: list[frozenset[str]] = []
    adj = g.adjacency
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        parts.append(frozenset(comp))
    return parts


def is_connected(g: Graph) -> bool:
    return len(g.vertices) <= 1 or len(connected_components(g)) == 1


def is_tree(g: Graph) -> bool:
    return len(g.vertices) >= 1 and len(g.masks) == len(g.vertices) - 1 and is_connected(g)


def oracle_is_caterpillar(g: Graph) -> bool:
    """A tree whose non-leaf vertices induce a path: a connected subgraph in
    which every vertex has at most two neighbours, checked on labels."""
    if not is_tree(g):
        return False
    internal = [v for v in g.vertices if degree(g, v) >= 2]
    if not internal:
        return True
    spine = induced_subgraph(g, internal)
    return is_connected(spine) and all(degree(spine, v) <= 2 for v in internal)


# ---------------------------------------------------------------------------
# the Stanley-Reisner route to the dual ideal: minimal non-faces, then their
# minimal vertex covers


class ZeroIdealRejected(ValueError):
    """The zero ideal was passed where a nonzero ideal is required."""


class UnitIdealRejected(ValueError):
    """The unit ideal was passed where a proper ideal is required."""


def is_zero(i: MonomialIdeal) -> bool:
    return not i.generators


def is_unit(i: MonomialIdeal) -> bool:
    return frozenset() in i.generators


def minimal_nonfaces(k: SimplicialComplex) -> frozenset[frozenset[str]]:
    """Inclusion-minimal subsets of the ground set that are not faces: the
    minimal vertex covers of the facet complements, and the empty set alone
    when the complex is void."""
    ground = frozenset(k.ground_set)
    h = labelled(Hypergraph, k.ground_set, (ground - f for f in k.facets))
    return sets_of(h.vertices, minimal_vertex_covers(h))


def stanley_reisner(k: SimplicialComplex) -> MonomialIdeal:
    """Ideal generated by the minimal non-faces of ``k``."""
    if k.is_void:
        raise ValueError("void complex has no Stanley-Reisner ideal")
    return labelled(MonomialIdeal, k.ground_set, minimal_nonfaces(k))


def alexander_dual_ideal(i: MonomialIdeal) -> MonomialIdeal:
    """Dual ideal: generators are the minimal vertex covers of the generator
    hypergraph.  Zero and unit inputs are rejected outright rather than
    given a convention."""
    if is_zero(i):
        raise ZeroIdealRejected("the zero ideal has no Alexander dual here")
    if is_unit(i):
        raise UnitIdealRejected("the unit ideal has no Alexander dual here")
    covers = minimal_vertex_covers(labelled(Hypergraph, i.variables, i.generators))
    return labelled(MonomialIdeal, i.variables, sets_of(i.variables, covers))


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
    return labelled(Hypergraph, vertices, minimal)


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


def canon_sets(sets) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(s)) for s in sets))


def rendered(res) -> tuple:
    """(verdict, certificate, explored) of a search result, with a package
    certificate rendered by its ``to_json_dict``, the form the labelled
    oracles build."""
    verdict, cert, explored = vars(res).values()
    return verdict, cert.to_json_dict() if hasattr(cert, "to_json_dict") else cert, explored


def _labelled_search(root, candidates, children, budget, node):
    """Recursive certificate search over labelled set families, building
    the JSON dict of the certificate under the keys of ``node``: a family
    with at most one member is a leaf; a state is memoized, reserved as
    failed while open, and the budget counts memo entries.  As in the
    package search, a family whose members all hold the branch fails when
    its first child does."""
    sets_key, branch_key, first_key, second_key = node.keys
    memo = {}

    def solve(sets):
        if sets in memo:
            return memo[sets]
        if len(memo) >= budget:
            raise _BudgetSpent
        memo[sets] = None
        if len(sets) <= 1:
            memo[sets] = {sets_key: [list(s) for s in canon_sets(sets)]}
            return memo[sets]
        for v in candidates(sets):
            parts = children(sets, v)
            if parts is None:
                continue
            first = solve(parts[0])
            if first is None and all(v in s for s in sets):
                return None
            if first is None:
                continue
            second = solve(parts[1])
            if second is None:
                continue
            memo[sets] = {
                sets_key: [list(s) for s in canon_sets(sets)], branch_key: v, first_key: first, second_key: second
            }
            return memo[sets]
        return None

    try:
        cert = solve(root)
    except _BudgetSpent:
        return None, None, len(memo)
    return cert is not None, cert, len(memo)


def uncut_certificate_search(root, order, splits, budget) -> tuple:
    """``decompose.certificate_search`` without the rule that fails a state
    whose members all hold the pivot once its first child fails: every
    pivot is tried whatever its first child gave."""
    memo = {}

    def expand(state):
        support = functools.reduce(int.__or__, state)
        for i in order:
            if not support >> i & 1:
                continue
            held = [m ^ 1 << i for m in state if m >> i & 1]
            rest = [m for m in state if not m >> i & 1]
            if not splits(held, rest):
                continue
            first = yield frozenset(held)
            if first is None:
                continue
            second = yield frozenset(rest)
            if second is not None:
                memo[state] = (state, i, first, second)
                return memo[state]

    stack, state, value = [], root, None
    while True:
        if state is not None:
            if state in memo:
                value = memo[state]
            elif len(memo) >= budget:
                return None, None, len(memo)
            elif len(state) <= 1:
                value = memo[state] = (state, None, None, None)
            else:
                memo[state] = value = None
                stack.append(expand(state))
        if not stack:
            return value is not None, value, len(memo)
        try:
            state = stack[-1].send(value)
        except StopIteration as done:
            state, value = None, done.value
            stack.pop()


def uncut_split(i, budget: int = DEFAULT_SPLIT_BUDGET) -> SplitResult:
    """``is_vertex_splittable`` by ``uncut_certificate_search``."""
    root = i.masks
    pivots = sorted(range(len(i.variables)), key=i.variables.__getitem__)
    found, tree, explored = uncut_certificate_search(root, pivots, _splits, budget)
    return SplitResult(found, SplitNode(i.variables, tree) if found else None, explored)


def deletion_facets(facets, v: str) -> frozenset[frozenset[str]]:
    """Facets of the deletion of ``v``: the maximal sets among the facets
    with ``v`` removed."""
    parts = {f - {v} for f in facets}
    return frozenset(p for p in parts if not any(p < q for q in parts))


def split_children(gens, x: str):
    """(quotients, remainder) at pivot ``x`` by the definition, or None."""
    quotients = frozenset(g - {x} for g in gens if x in g)
    remainder = frozenset(g for g in gens if x not in g)
    if not quotients or not all(any(q <= f for q in quotients) for f in remainder):
        return None
    return quotients, remainder


def oracle_vd(k, budget: int = DEFAULT_VD_BUDGET) -> VDResult:
    """Vertex decomposability by the definition: a vertex sheds when the
    maximal sets of the deletion are facets; candidates in ground-set
    order."""

    def candidates(facets):
        support = frozenset().union(*facets)
        return [v for v in k.ground_set if v in support]

    def children(facets, v):
        deletion = deletion_facets(facets, v)
        if not deletion <= facets:
            return None
        return frozenset(f - {v} for f in facets if v in f), deletion

    return VDResult(*_labelled_search(k.facets, candidates, children, budget, SheddingNode))


def oracle_split(i, budget: int = DEFAULT_SPLIT_BUDGET) -> SplitResult:
    """Vertex splitting by the definition, pivots in the string order of
    the variables that occur."""

    def pivots(gens):
        return sorted(frozenset().union(*gens))

    return SplitResult(*_labelled_search(i.generators, pivots, split_children, budget, SplitNode))


def malformed_certificates(keys: tuple[str, str, str, str]) -> list:
    """Decoded JSON that is no certificate tree for the node keys ``keys``:
    a node that lacks its children, a list (empty or of label lists) where a
    node belongs, a child that is a number, a node without its sets, a
    number and null."""
    sets, branch, first, second = keys
    return [
        {"facets": [], "vertex": "a"},
        [],
        [["a"]],
        {sets: [["a"]], branch: "a", first: 5, second: {sets: []}},
        {"vertex": "a"},
        5,
        None,
    ]


def oracle_verify_shedding(k, data: dict) -> bool:
    """Recursive replay of a shedding tree in its JSON form: at every inner
    node the link and the deletion are recomputed by the definition, and
    the deletion's maximal sets must be facets."""
    if canon_sets(data["facets"]) != canon_sets(k.facets):
        return False

    def check(node) -> bool:
        facets = frozenset(frozenset(f) for f in node["facets"])
        if len(facets) != len(node["facets"]):
            return False
        if "vertex" not in node:
            return len(facets) == 1
        v = node["vertex"]
        if not any(v in f for f in facets) or "link" not in node or "del" not in node:
            return False
        deletion = deletion_facets(facets, v)
        if not deletion <= facets:
            return False
        if canon_sets(node["link"]["facets"]) != canon_sets(f - {v} for f in facets if v in f):
            return False
        if canon_sets(node["del"]["facets"]) != canon_sets(deletion):
            return False
        return check(node["link"]) and check(node["del"])

    return check(data)


def oracle_verify_split(i, data: dict) -> bool:
    """Recursive replay of a splitting certificate in its JSON form: every
    pivot condition recomputed by the definition from the generators
    stored at the node."""
    if canon_sets(data["generators"]) != canon_sets(i.generators):
        return False

    def check(node) -> bool:
        gens = frozenset(frozenset(g) for g in node["generators"])
        if len(gens) != len(node["generators"]) or any(a < b for a in gens for b in gens):
            return False
        if "pivot" not in node:
            return len(gens) <= 1
        if "quotient" not in node or "remainder" not in node:
            return False
        parts = split_children(gens, node["pivot"])
        if parts is None:
            return False
        if canon_sets(node["quotient"]["generators"]) != canon_sets(parts[0]):
            return False
        if canon_sets(node["remainder"]["generators"]) != canon_sets(parts[1]):
            return False
        return check(node["quotient"]) and check(node["remainder"])

    return check(data)


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


def oracle_plain_shelling(k, budget: int = DEFAULT_SHELL_BUDGET) -> ShellingResult:
    """The shelling search without the vertex-link rule: plain depth-first
    over prefixes of weakly decreasing dimension, dead prefix-sets memoized,
    candidates in (dimension descending, ground-set order)."""
    facets = sorted_facets(k)
    n = len(facets)
    if budget < 1:
        return ShellingResult(None, None, 0)
    if n == 1:
        return ShellingResult(True, tuple(facets), 1)
    masks = list(parse_family(k.ground_set, facets, "facet"))
    holding = [
        sum(1 << j for j, fj in enumerate(masks) if fj >> v & 1) for v in range(len(k.ground_set))
    ]
    near = []
    for fc in masks:
        by_x: dict[int, int] = {}
        for l, fl in enumerate(masks):
            x = fc & ~fl
            if x.bit_count() == 1:
                by_x[x] = by_x.get(x, 0) | 1 << l
        near.append([(ls, holding[x.bit_length() - 1]) for x, ls in by_x.items()])
    cand = sorted(range(n), key=lambda i: (-len(facets[i]), sorted(map(k.ground_set.index, facets[i]))))
    by_size: dict[int, list[tuple]] = {}
    for c in cand:
        by_size.setdefault(len(facets[c]), []).append((c, 1 << c, near[c]))
    at_depth = [by_size[len(facets[c])] for c in cand]
    dead: set[int] = set()
    visited = 1
    path: list[int] = []
    used = 0
    stack = [iter(at_depth[0])]
    while stack:
        for c, bit, groups in stack[-1]:
            if used & bit or used | bit in dead:
                continue
            holders = used
            for ls, held in groups:
                if used & ls:
                    holders &= held
                    if not holders:
                        break
            if holders:
                continue
            visited += 1
            if visited > budget:
                return ShellingResult(None, None, visited - 1)
            path.append(c)
            used |= bit
            if len(path) == n:
                return ShellingResult(True, tuple(facets[i] for i in path), visited)
            stack.append(iter(at_depth[len(path)]))
            break
        else:
            stack.pop()
            if stack:
                dead.add(used)
                used ^= 1 << path.pop()
    return ShellingResult(False, None, visited)


def oracle_rank_over_q(rows: list[list[int]]) -> int:
    """Dense row echelon form of an integer matrix, fraction-free: each row
    below a pivot is combined with the pivot row to clear its column and
    divided by the gcd of its entries, so every step is exact over Q."""
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        a = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            b = mat[i][col]
            if b:
                row = [x * a - y * b for x, y in zip(mat[i], mat[rank])]
                g = gcd(*row) or 1
                mat[i] = [x // g for x in row]
        rank += 1
    return rank


def oracle_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Dense Gaussian elimination over GF(p)."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def oracle_reduced_betti(k, field: int | None = None) -> list[int]:
    """Reduced Betti numbers over Q (``field`` None) or GF(field), degree -1
    upward: every boundary matrix of the whole complex rebuilt densely from
    the labelled faces and ranked by dense elimination."""
    rank = oracle_rank_over_q if field is None else functools.partial(oracle_rank_mod_p, p=field)
    grouped = faces_by_dimension(k)
    top = max(grouped)
    ranks = {}
    for d in range(0, top + 1):
        lower = grouped.get(d - 1, [])
        upper = grouped.get(d, [])
        idx = {f: i for i, f in enumerate(lower)}
        dense = [[0] * len(upper) for _ in lower]
        for col, face in enumerate(upper):
            ordered = sorted(face, key=k.ground_set.index)
            for j, v in enumerate(ordered):
                dense[idx[face - {v}]][col] = (-1) ** j
        ranks[d] = rank(dense) if lower and upper else 0
    ranks[top + 1] = 0
    return [len(grouped.get(d, [])) - ranks.get(d, 0) - ranks[d + 1] for d in range(-1, top + 1)]


def oracle_cm(k, field: int | None = None) -> CMReport:
    """Reisner's criterion with the link of every face built as a labelled
    complex and ranked densely by ``oracle_reduced_betti`` (no production
    elimination), faces in (dimension, label) order."""
    name = field_name(field)
    if not k.is_pure():
        smallest = min(k.facets, key=lambda f: (len(f), sorted(map(k.ground_set.index, f))))
        return CMReport(False, name, smallest, None, "non-pure")
    facets = k.masks
    for face in sorted(k.face_masks(), key=mask_order):
        lk = labelled(SimplicialComplex, k.ground_set, (k.labels(f ^ face) for f in facets if f & face == face))
        for i, b in enumerate(oracle_reduced_betti(lk, field)[:-1]):
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
