"""Simplicial complexes in facet representation: higher independence
complexes, links, skeletons and face enumeration.

Conventions: the void complex has no faces at all (empty facet family), the
empty complex has the single facet {} (its only face), and a simplex is any
complex with exactly one facet.

Internally a face is an ``int`` bitmask over the ground-set index (bit i is
vertex ``ground_set[i]``, as ``graphs.masks_of`` and ``graphs.sets_of``
convert); labels appear only in the public records and return values.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import Graph, bits, check_family, check_guard, masks_of, record, sets_of


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
    """

    def fits(s: int, i: int) -> bool:
        """Whether the component of i in ``s | 1 << i`` has at most r
        vertices; that component only grows with s."""
        comp, frontier = 1 << i, adj[i] & s
        while frontier:
            comp |= frontier
            if comp.bit_count() > r:
                return False
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & s & ~comp
        return True

    def fitting(s: int, candidates: int) -> int:
        kept = 0
        while candidates:
            low = candidates & -candidates
            if fits(s, low.bit_length() - 1):
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
        if x and any(fits(s | p, j) for j in bits(x)):
            continue
        branch_sets = ((1 << u | adj[u]) & p for u in bits(p | x) if not adj[u] & s)
        for i in bits(min(branch_sets, key=int.bit_count, default=p)):
            t = s | 1 << i
            p ^= 1 << i
            stack.append((t, fitting(t, p), fitting(t, x)))
            x |= 1 << i
    return out


@record
class SimplicialComplex:
    """Complex identified by its ground set and facet antichain.

    The ground set is part of the identity: vertices in no facet ("ghosts")
    are kept because Alexander duality and Stanley-Reisner ideals depend on
    the ambient vertex set.
    """

    ground_set: tuple[str, ...]
    facets: frozenset[frozenset[str]]

    def __post_init__(self):
        check_family(self.ground_set, self.facets, "facet")

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        """Facets as bitmasks over the ground-set index, ascending."""
        return tuple(sorted(masks_of(self.ground_set, self.facets)))

    def labels(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground_set[i] for i in bits(mask))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_simplex(self) -> bool:
        return len(self.facets) == 1

    @property
    def dimension(self) -> int | None:
        """Maximum face dimension; -1 for the empty complex, None for void."""
        if self.is_void:
            return None
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        if self.is_void:
            return True
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    def face_masks(self) -> set[int]:
        """Every face as a bitmask, the empty face included (unless void)."""
        check_guard(len(self.ground_set), "face")
        return submasks(self.facet_masks)

    def to_json_dict(self) -> dict:
        """Each facet in ground-set order, the facets by their index tuples."""
        return {
            "ground_set": list(self.ground_set),
            "facets": [[self.ground_set[i] for i in bits(m)] for m in sorted(self.facet_masks, key=bits)],
        }


def complex_from_json_dict(data: dict) -> SimplicialComplex:
    if not isinstance(data, dict) or "ground_set" not in data or "facets" not in data:
        raise ValueError("complex JSON needs 'ground_set' and 'facets'")
    gs, facets = data["ground_set"], data["facets"]
    if not (isinstance(gs, list) and isinstance(facets, list) and all(isinstance(f, list) for f in facets)):
        raise ValueError("complex JSON needs 'ground_set' as a list and 'facets' as a list of lists")
    return SimplicialComplex(tuple(map(str, gs)), frozenset(frozenset(map(str, f)) for f in facets))


# ---------------------------------------------------------------------------
# higher independence complexes


def ind_r(g: Graph, r: int) -> SimplicialComplex:
    """Complex of all vertex subsets whose induced components have at most r
    vertices; facets are the maximal ones, within the enumeration guard."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    check_guard(len(g), "facet")
    return SimplicialComplex(g.vertices, sets_of(g.vertices, maximal_sets(g.neighbour_masks, r)))


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
    return SimplicialComplex(ground, frozenset(g - f for g in k.facets if f <= g))


def pure_skeleton(k: SimplicialComplex, m: int) -> SimplicialComplex:
    """Subcomplex generated by all faces of dimension exactly ``m``."""
    dim = k.dimension
    if dim is None or not 0 <= m <= dim:
        raise ValueError(f"m={m} out of range for a complex of dimension {dim}")
    faces = {
        frozenset(c) for f in k.facets if len(f) >= m + 1 for c in itertools.combinations(f, m + 1)
    }
    return SimplicialComplex(k.ground_set, frozenset(faces))


def f_vector(k: SimplicialComplex) -> list[int]:
    """Face counts per dimension starting at f_{-1} = 1; empty for void."""
    if k.is_void:
        return []
    sizes = [m.bit_count() for m in k.face_masks()]
    return [sizes.count(s) for s in range(max(sizes) + 1)]
