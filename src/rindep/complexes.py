"""Simplicial complexes in facet representation: higher independence
complexes, links, skeletons and face enumeration.

Conventions: the void complex has no faces at all (empty facet family), the
empty complex has the single facet {} (its only face), and a simplex is any
complex with exactly one facet.

A face is an ``int`` bitmask over the ground-set index (bit i is vertex
``ground_set[i]``); a complex holds its facets as masks, and labels appear
only in views for output and in ``graphs.parse_family`` for input.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import Graph, bits, check_family, check_guard, parse_family, record, sets_of


def mask_order(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key of a face: (dimension, ground-set order)."""
    return mask.bit_count(), bits(mask)


def submasks(generators: Iterable[int]) -> set[int]:
    """Every subset of some generator: the faces of the complex they
    generate, the empty face included unless there is no generator."""
    faces: set[int] = set()
    for g in generators:
        s = g
        while s:
            faces.add(s)
            s = (s - 1) & g
        faces.add(0)
    return faces


def maximal_sets(adj: Sequence[int], r: int) -> list[int]:
    """Facets of Ind_r of the graph with neighbour masks ``adj``: the maximal
    vertex sets whose induced components have at most r vertices, each once.

    Bron-Kerbosch with a pivot (Tomita, Tanaka and Takahashi 2006), on an
    explicit stack.  A node is an r-independent set s with P, the vertices
    that fit s (can join it) and are undecided, and X, those that fit s but
    were excluded; P starts as every vertex.  A maximal set above s that
    misses a vertex u of P | X with no neighbour in s holds a neighbour of u
    (else u would fit it), and that neighbour lies in P.  So the node
    branches only on u and its neighbours in P, for the u whose branch set
    is smallest (on all of P when no such u exists), and each branch vertex
    joins X once its child is stacked.  s is maximal when P and X are empty.
    A node is cut when some x in X fits ``s | P``: then x fits every set the
    node can reach, so none of them is maximal.

    A child adds one vertex i to s.  Only a vertex next to i's component in
    ``s | 1 << i`` can stop fitting, since every other vertex meets the same
    components as before, so the child keeps the rest of P and X and
    re-tests those neighbours alone; when the component already has r
    vertices, none of them fits, and none is tested.
    """

    def component(s: int, i: int) -> tuple[int, int]:
        """The component of i in ``s | 1 << i``, which only grows with s, and
        the vertices next to it; (0, 0) once it has more than r vertices."""
        comp, frontier, reach = 0, 1 << i, 0
        while frontier:
            comp |= frontier
            if comp.bit_count() > r:
                return 0, 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & s & ~comp
        return comp, reach & ~comp

    def fitting(s: int, candidates: int) -> int:
        kept = 0
        while candidates:
            low = candidates & -candidates
            if component(s, low.bit_length() - 1)[0]:
                kept |= low
            candidates ^= low
        return kept

    out = []
    stack = [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        s, p, x = stack.pop()
        if not p:
            if not x:
                out.append(s)
            continue
        if x and any(component(s | p, j)[0] for j in bits(x)):
            continue
        # the pivot: the first u of P | X with no neighbour in s whose branch
        # set has the fewest vertices; all of P when there is none
        # (a branch set as large as P is P itself)
        branch, candidates = p, p | x
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            u = low.bit_length() - 1
            if not adj[u] & s and ((low | adj[u]) & p).bit_count() < branch.bit_count():
                branch = (low | adj[u]) & p
        while branch:
            low = branch & -branch
            branch ^= low
            t = s | low
            p ^= low
            comp, near = component(t, low.bit_length() - 1)
            retest = near if comp.bit_count() < r else 0  # a full component admits no neighbour
            stack.append((t, p & ~near | fitting(t, p & retest), x & ~near | fitting(t, x & retest)))
            x |= low
    return out


@record
class SimplicialComplex:
    """Complex identified by its ground set and facet antichain (masks).

    The ground set is part of the identity: vertices in no facet ("ghosts")
    are kept because Alexander duality and Stanley-Reisner ideals depend on
    the ambient vertex set.
    """

    ground_set: tuple[str, ...]
    masks: frozenset[int]

    def __post_init__(self):
        check_family(self.ground_set, self.masks, "facet")

    facets = cached_property(lambda self: sets_of(self.ground_set, self.masks))  # a view for output

    def labels(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground_set[i] for i in bits(mask))

    @property
    def is_void(self) -> bool:
        return not self.masks

    @property
    def is_simplex(self) -> bool:
        return len(self.masks) == 1

    @property
    def dimension(self) -> int | None:
        """Maximum face dimension; -1 for the empty complex, None for void."""
        if self.is_void:
            return None
        return max(m.bit_count() for m in self.masks) - 1

    def is_pure(self) -> bool:
        return len({m.bit_count() for m in self.masks}) <= 1  # the void complex too

    def face_masks(self) -> set[int]:
        """Every face as a bitmask, the empty face included (unless void)."""
        check_guard(len(self.ground_set), "face")
        return submasks(self.masks)

    def to_json_dict(self) -> dict:
        """Each facet in ground-set order, the facets by their index tuples."""
        return {
            "ground_set": list(self.ground_set),
            "facets": [[self.ground_set[i] for i in bits(m)] for m in sorted(self.masks, key=bits)],
        }


def complex_from_json_dict(data: dict) -> SimplicialComplex:
    if not isinstance(data, dict) or "ground_set" not in data or "facets" not in data:
        raise ValueError("complex JSON needs 'ground_set' and 'facets'")
    gs, facets = data["ground_set"], data["facets"]
    if not (isinstance(gs, list) and isinstance(facets, list) and all(isinstance(f, list) for f in facets)):
        raise ValueError("complex JSON needs 'ground_set' as a list and 'facets' as a list of lists")
    ground = tuple(map(str, gs))
    return SimplicialComplex(ground, frozenset(parse_family(ground, facets, "facet")))


# ---------------------------------------------------------------------------
# higher independence complexes


def ind_r(g: Graph, r: int) -> SimplicialComplex:
    """Complex of all vertex subsets whose induced components have at most r
    vertices; facets are the maximal ones (a graph is within the guard)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    return SimplicialComplex(g.vertices, frozenset(maximal_sets(g.neighbour_masks, r)))


# ---------------------------------------------------------------------------
# subcomplex operations


def link(k: SimplicialComplex, face: Iterable[str]) -> SimplicialComplex:
    """Link of a face: maximal sets disjoint from it whose union with it is a
    face.  Ground set loses the face's vertices.

    Its facets are the facets of ``k`` through the face F, less F, and need
    no reduction to an antichain: for distinct facets G1 and G2 through F,
    G1 minus F inside G2 minus F would put G1 inside G2."""
    f = frozenset(map(str, face))
    if not any(f <= g for g in k.facets):
        raise ValueError(f"{sorted(f)} is not a face")
    ground = tuple(v for v in k.ground_set if v not in f)
    return SimplicialComplex(ground, frozenset(parse_family(ground, (g - f for g in k.facets if f <= g), "facet")))


def pure_skeleton(k: SimplicialComplex, m: int) -> SimplicialComplex:
    """Subcomplex generated by all faces of dimension exactly ``m``."""
    dim = k.dimension
    if dim is None or not 0 <= m <= dim:
        raise ValueError(f"m={m} out of range for a complex of dimension {dim}")
    faces = {sum(1 << i for i in c) for f in k.masks for c in itertools.combinations(bits(f), m + 1)}
    return SimplicialComplex(k.ground_set, frozenset(faces))


def f_vector(k: SimplicialComplex) -> list[int]:
    """Face counts per dimension starting at f_{-1} = 1; empty for void."""
    if k.is_void:
        return []
    sizes = [m.bit_count() for m in k.face_masks()]
    return [sizes.count(s) for s in range(max(sizes) + 1)]
