"""Simple hypergraphs, the connected-subset hypergraph of a graph,
exhaustive chordality checking over mask minors, and minimal vertex covers
by Berge's rule, which give the dual ideal of ``ind_r`` from ``con_r``."""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations
from operator import and_, or_

from .graphs import Graph, bits, check_family, check_guard, masks_of, record, sets_of

DEFAULT_MINOR_BUDGET = 2_000_000


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


def is_chordal_hypergraph(h: Hypergraph, budget: int = DEFAULT_MINOR_BUDGET) -> ChordalityResult:
    """Decide chordality by breadth-first search over all minors.

    Every minor is reachable by interleaving single-vertex deletions and
    contractions.  A minor is searched as its vertex mask and its edge
    family, one int over the ids a table gives each edge mask when it first
    appears; only a witness gets labels again.  The budget counts distinct
    minors visited and exceeding it yields an explicit inconclusive result,
    never a silent answer.

    A minor passes when some vertex is simplicial: every two distinct edges
    through it have a third edge inside their union minus the vertex.
    Distinct pairs make the notion agree with graph chordality on graphs.

    Its children are built vertex by vertex in ground-set order, deletion
    then contraction, each with the mask of the vertices contracted on its
    way.  Deletion drops the edges through the vertex; contraction shrinks
    them, numbering each new one, and drops the kept edges holding all of
    one.  Deletion and contraction commute on clutters (Seymour 1976), so
    the minor reached by deleting a vertex set D and contracting a disjoint
    set C depends only on (D, C), keyed as ``rest | contracted << n``.  A
    child is built only when its key is new.  A key joins the known pairs
    only while new, and then its minor is queued or already seen; a
    contraction key at a vertex in no edge gets its minor as the deletion
    child, which is the same minor.  So a known key's minor is always seen,
    skipping it loses nothing, and a vertex in no edge whose deletion key
    is known yields no child.  Distinct pairs can still give one minor, so
    the set of minors stays the authority.  A minor's
    level is its vertex count and only the next level is generated from the
    current one, so both sets are emptied when the level being searched
    changes: the search holds at most two levels, never every minor.
    """
    n = len(h.vertices)
    masks = sorted(masks_of(h.vertices, h.edges))  # by edge id; contraction appends shrunk edges
    ids = {e: k for k, e in enumerate(masks)}
    holding = [0] * n  # the ids of the edges through each vertex
    for k, e in enumerate(masks):
        for v in bits(e):
            holding[v] |= 1 << k
    holders = holding.__getitem__
    queue = deque([((1 << n) - 1, (1 << len(masks)) - 1, 0)])
    size = n
    seen: set[tuple[int, int]] = set()  # minors of the level being built
    pairs: set[int] = set()  # their (remaining, contracted) keys
    visited = 0
    while queue:
        vs, family, contracted = queue.popleft()
        visited += 1
        if visited > budget:
            return ChordalityResult(None, None, visited - 1)
        members = bits(vs)
        for i in members:
            through = family & holding[i]
            if not through & through - 1:  # at most one edge: no pair to test
                break
            # a third edge holds neither i nor a vertex of vs outside e1 | e2
            for e1, e2 in combinations([masks[j] for j in bits(through)], 2):
                if not family & ~reduce(or_, map(holders, bits(vs & ~(e1 | e2))), holding[i]):
                    break  # no third edge: i is not simplicial
            else:  # i is simplicial
                break
        else:  # no vertex is simplicial: a witness unless the minor is empty
            if members:
                edges = sets_of(h.vertices, [masks[j] for j in bits(family)])
                witness = Hypergraph(tuple(map(h.vertices.__getitem__, members)), edges)
                return ChordalityResult(False, witness, visited)
        if len(members) != size:
            size = len(members)
            seen, pairs = set(), set()
        for i in members:
            b = 1 << i
            rest = vs ^ b
            deleted_key = rest | contracted << n
            contracted_key = deleted_key | b << n
            new_deleted, new_contracted = deleted_key not in pairs, contracted_key not in pairs
            if not (new_deleted or new_contracted):
                continue
            pairs.update((deleted_key, contracted_key))
            held = family & holding[i]
            kept = family ^ held
            if new_deleted and (rest, kept) not in seen:
                seen.add((rest, kept))
                queue.append((rest, kept, contracted))
            if new_contracted and held:
                shrunk = 0
                for j in bits(held):
                    s = masks[j] ^ b
                    k = ids.setdefault(s, len(masks))
                    if k == len(masks):
                        masks.append(s)
                        for u in bits(s):
                            holding[u] |= 1 << k
                    shrunk |= 1 << k
                    kept ^= kept and reduce(and_, map(holders, bits(s)), kept)
                kept |= shrunk
                if (rest, kept) not in seen:
                    seen.add((rest, kept))
                    queue.append((rest, kept, contracted | b))
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
