"""Simple hypergraphs, the connected-subset hypergraph of a graph,
exhaustive chordality checking over mask minors, and minimal vertex covers
by Berge's rule, which give the dual ideal of ``ind_r`` from ``con_r``."""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable

from .graphs import Graph, bits, masks_of, record, sets_of

DEFAULT_MINOR_BUDGET = 2_000_000
FACE_ENUMERATION_GUARD = 20  # enumerations over all subsets allowed up to 2^20


class GuardExceeded(RuntimeError):
    """An enumeration would exceed the configured size guard."""


def check_guard(n: int, what: str) -> None:
    """Refuse an enumeration of ``what`` over ``n`` vertices past the guard."""
    if n > FACE_ENUMERATION_GUARD:
        raise GuardExceeded(f"{what} enumeration over {n} vertices exceeds the guard")


def is_antichain(sets: Iterable[frozenset[str]]) -> bool:
    """True iff no member of ``sets``, a family of distinct sets, lies
    inside another.  Two distinct sets of one size are never nested, so only
    sets of different sizes are compared."""
    by_size: dict[int, list[frozenset[str]]] = {}
    for s in sets:
        by_size.setdefault(len(s), []).append(s)
    groups = [by_size[n] for n in sorted(by_size)]
    return len(groups) < 2 or not any(
        a < b for i, small in enumerate(groups) for large in groups[i + 1 :] for a in small for b in large
    )


def check_family(labels: tuple[str, ...], sets: frozenset[frozenset[str]], member: str) -> None:
    """Raise ``ValueError`` unless ``labels`` are distinct and ``sets`` form
    an antichain over them; ``member`` names one set in the messages."""
    known = set(labels)
    if len(known) != len(labels):
        twice = next(v for i, v in enumerate(labels) if v in labels[:i])
        raise ValueError(f"label {twice!r} appears twice under the {member}s")
    for s in sets:
        if not s <= known:
            raise ValueError(f"{member} {sorted(s)} uses unknown labels")
    if not is_antichain(sets):
        inner = next(a for a in sets if any(a < b for b in sets))
        raise ValueError(f"{member} {sorted(inner)} lies inside another {member}")


@record
class Hypergraph:
    """Simple hypergraph: the edge set is an antichain under inclusion."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self):
        check_family(self.vertices, self.edges, "edge")

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": sorted([sorted(e) for e in self.edges], key=lambda e: (len(e), e)),
        }


def con_r(g: Graph, r: int) -> Hypergraph:
    """Hypergraph on V(g) whose edges are the (r+1)-subsets inducing a
    connected subgraph.  Uniform edge size makes it simple automatically.

    Each connected set grows once from its lowest vertex (Wernicke's ESU):
    it takes its candidates in turn, each child keeping the candidates
    above the one it took plus that vertex's neighbours above the lowest
    vertex that neither lie in the set nor neighbour it."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    adj = g.neighbour_masks
    # (set, candidates, the set with its neighbours, the vertices above its lowest)
    level = [(1 << v, adj[v] & -2 << v, 1 << v | adj[v], -2 << v) for v in range(len(g.vertices))]
    for _ in range(min(r, len(g.vertices))):  # no connected set is larger
        level = [
            (grown | 1 << i, cands >> i + 1 << i + 1 | adj[i] & above & ~reached, reached | adj[i], above)
            for grown, cands, reached, above in level
            for i in bits(cands)
        ]
    return Hypergraph(g.vertices, sets_of(g.vertices, (s[0] for s in level)))


@record
class ChordalityResult:
    """Outcome of the exhaustive minor search.

    ``chordal`` is None when the budget ran out before the search finished;
    a False verdict carries a witness minor with no simplicial vertex.
    """

    chordal: bool | None
    witness: Hypergraph | None
    minors_visited: int


def _minor_children(
    vs: int, members: tuple[int, ...], edges: frozenset[int], contracted: int, shift: int, pairs: set[int]
):
    """Delete-then-contract children of a mask minor, vertex by vertex in
    ground-set order (``members``, the bits of ``vs``), each with the mask
    of the vertices contracted on its way.  A child is keyed by its remaining and contracted vertices, ``rest
    | contracted << shift``.  A key already in ``pairs`` names a minor
    already generated, so that child is not built, and a vertex whose two
    keys are both known is skipped; a vertex in no edge marks both keys and
    yields one child.  Deletion drops the edges through the vertex; those
    edges are an antichain already.  Contraction shrinks them, and only an
    untouched edge can then contain a shrunk one, so reduction to minimal
    edges compares the two groups and runs only when some edge held it."""
    for i in members:
        b = 1 << i
        rest = vs ^ b
        deleted_key = rest | contracted << shift
        contracted_key = deleted_key | b << shift
        new_deleted, new_contracted = deleted_key not in pairs, contracted_key not in pairs
        if not (new_deleted or new_contracted):
            continue
        pairs.add(deleted_key)
        pairs.add(contracted_key)
        held = [e for e in edges if e & b]
        if not held:  # deletion and contraction agree
            yield rest, edges, contracted
            continue
        kept = [e for e in edges if not e & b]
        if new_deleted:
            yield rest, frozenset(kept), contracted
        if new_contracted:
            shrunk = [e ^ b for e in held]
            reduced = frozenset(shrunk + [f for f in kept if all(s & ~f for s in shrunk)])
            yield rest, reduced, contracted | b


def _has_simplicial_mask(members: tuple[int, ...], edges: frozenset[int]) -> bool:
    """Some vertex is simplicial: every two distinct edges through it
    contain a third edge inside their union minus the vertex.  Reading
    "two edges" as distinct pairs makes the notion agree with graph
    chordality on graphs."""
    for i in members:
        b = 1 << i
        through = [e for e in edges if e & b]
        outside = (~((e1 | e2) ^ b) for e1, e2 in itertools.combinations(through, 2))
        if all(any(not e3 & out for e3 in edges) for out in outside):
            return True
    return False


def _labelled(h: Hypergraph, vs: int, edges: frozenset[int]) -> Hypergraph:
    return Hypergraph(tuple(h.vertices[i] for i in bits(vs)), sets_of(h.vertices, edges))


def is_chordal_hypergraph(h: Hypergraph, budget: int = DEFAULT_MINOR_BUDGET) -> ChordalityResult:
    """Decide chordality by breadth-first search over all minors.

    Every minor is reachable by interleaving single-vertex deletions and
    contractions.  A minor is searched as a (vertex mask, edge masks) pair
    over the index of ``h.vertices``, which also deduplicates it; only a
    witness is turned back into a labelled ``Hypergraph``.  The budget
    counts distinct minors visited and exceeding it yields an explicit
    inconclusive result, never a silent answer.

    Deletion and contraction commute on clutters (Seymour 1976), so the
    minor reached by deleting a vertex set D and contracting a disjoint set
    C depends only on (D, C).  Each queued minor carries the C of the path
    that first found it, and a child whose (D, C) pair was generated before
    is skipped unbuilt; distinct pairs can still give one minor, so the
    set of minors stays the authority.  A minor's level is its vertex count
    and only the next level is generated from the current one, so both sets
    are emptied when the level being searched changes: the search holds
    at most two levels, never every minor.
    """
    n = len(h.vertices)
    full = (1 << n) - 1
    queue = deque([(full, frozenset(masks_of(h.vertices, h.edges)), 0)])
    size = n
    seen: set[tuple[int, frozenset[int]]] = set()  # minors of the level being built
    pairs: set[int] = set()  # their (remaining, contracted) keys
    visited = 0
    while queue:
        vs, edges, contracted = queue.popleft()
        visited += 1
        if visited > budget:
            return ChordalityResult(None, None, visited - 1)
        members = bits(vs)
        if members and not _has_simplicial_mask(members, edges):
            return ChordalityResult(False, h if vs == full else _labelled(h, vs, edges), visited)
        if len(members) != size:
            size = len(members)
            seen, pairs = set(), set()
        for rest, child_edges, child_contracted in _minor_children(vs, members, edges, contracted, n, pairs):
            if (rest, child_edges) not in seen:
                seen.add((rest, child_edges))
                queue.append((rest, child_edges, child_contracted))
    return ChordalityResult(True, None, visited)


def minimal_vertex_covers(h: Hypergraph) -> frozenset[frozenset[str]]:
    """All inclusion-minimal sets meeting every edge, by Berge's rule.

    The edges are taken one at a time in mask order.  The covers of the
    edges so far that meet the next edge stay; each other cover grows by
    one vertex of that edge in turn, and a grown set is dropped when it
    contains a cover that stayed.  Only those can make it non-minimal: a
    grown set holds one vertex of the edge, so it cannot contain another
    grown set without being it.  With no edges the empty set is the unique
    cover; an empty edge cannot be met, so the cover family is empty.
    """
    check_guard(len(h.vertices), "cover")
    covers = [0]
    for e in sorted(masks_of(h.vertices, h.edges)):
        hit = [c for c in covers if c & e]
        grown = [c | 1 << i for c in covers if not c & e for i in bits(e)]
        covers = hit + [g for g in grown if all(c & ~g for c in hit)]
    return sets_of(h.vertices, covers)
