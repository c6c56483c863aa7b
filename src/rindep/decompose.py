"""Vertex decomposability with shedding-tree certificates, non-pure
shellability with shelling-order certificates, and independent certificate
verifiers."""

from __future__ import annotations

import functools
from typing import Callable, ClassVar, Iterable, Sequence

from .complexes import SimplicialComplex
from .graphs import bits, record

DEFAULT_VD_BUDGET = 500_000
DEFAULT_SHELL_BUDGET = 2_000_000


def _canon_sets(sets: Iterable[Iterable[str]]) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(s)) for s in sets))


def certificate_search(
    root: frozenset, order: list[int], splits: Callable, budget: int, labels: Sequence[str], node: type
) -> tuple:
    """Memoized depth-first search for a certificate tree over states, each
    a frozenset of masks over the index of ``labels``.  A state with at most
    one member is a leaf.  Otherwise, for each index i of ``order`` that some
    member holds, the state splits into ``held``, the members through i less
    i, and ``rest``, the others; the first i where ``splits(held, rest)``
    holds and both children have certificates makes ``node(sets, labels[i],
    first, second)``.  Every state entered takes a memo slot, failed until it
    succeeds (a state met again while open fails); the budget counts slots.
    Returns (verdict, certificate, slots); the verdict is None when the budget
    ran out.  A state with no ``rest`` at i fails with its first child there,
    the state less i: every other split only carries i along, so that child
    decides it."""
    memo: dict[frozenset[int], object] = {}

    @functools.cache  # one search meets each facet in many states
    def face(m: int) -> tuple[str, ...]:
        return tuple(sorted(labels[i] for i in bits(m)))

    def expand(state: frozenset[int]):
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
                if not rest:  # its first child, the state less i, decides it
                    return None
                continue
            second = yield frozenset(rest)
            if second is not None:
                memo[state] = node(tuple(sorted(map(face, state))), labels[i], first, second)
                return memo[state]

    # one generator per open state; ``state`` is the next state to enter, or
    # None to send ``value`` to the generator on top
    stack, state, value = [], root, None
    while True:
        if state is not None:
            if state in memo:
                value = memo[state]
            elif len(memo) >= budget:
                return None, None, len(memo)
            elif len(state) <= 1:
                value = memo[state] = node(tuple(sorted(map(face, state))))
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


@record
class CertificateNode:
    """One node of a certificate tree: a family of labelled sets and, at an
    inner node, the branch vertex with the certificates of the two families
    it splits the family into.  Subclasses name the four JSON keys of these
    fields; both conversions walk the tree on an explicit stack."""

    sets: tuple[tuple[str, ...], ...]
    branch: str | None = None
    first: CertificateNode | None = None
    second: CertificateNode | None = None
    keys: ClassVar[tuple[str, str, str, str]]

    def to_json_dict(self) -> dict:
        sets_key, branch_key, first_key, second_key = self.keys
        out: dict = {}
        stack = [(self, out)]
        while stack:
            node, data = stack.pop()
            data[sets_key] = [list(s) for s in node.sets]
            if node.branch is not None:
                data[branch_key] = node.branch
                data[first_key], data[second_key] = {}, {}
                stack += [(node.first, data[first_key]), (node.second, data[second_key])]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> CertificateNode:
        sets_key, branch_key, first_key, second_key = cls.keys
        # a pre-order (node, first, second) read backwards meets every node
        # after both its children, whose nodes then lie on top of ``built``
        preorder, stack = [], [data]
        while stack:
            preorder.append(stack.pop())
            if branch_key in preorder[-1]:
                stack += [preorder[-1][second_key], preorder[-1][first_key]]
        built: list[CertificateNode] = []
        for d in reversed(preorder):
            if not isinstance(d[sets_key], list) or not all(isinstance(s, list) for s in d[sets_key]):
                raise ValueError(f"certificate {sets_key!r} must be a list of label lists")
            sets = _canon_sets(map(str, s) for s in d[sets_key])
            if branch_key in d:
                built.append(cls(sets, str(d[branch_key]), built.pop(), built.pop()))
            else:
                built.append(cls(sets))
        return built[0]


def replay(cert: CertificateNode, sets: frozenset[frozenset[str]], splits: Callable) -> bool:
    """Check a certificate tree against the antichain ``sets`` at its root,
    node by node on an explicit stack.  Every node must store the canonical
    form of the family its parent computed (at the root, ``sets``).  Each
    such family is a link, deletion, quotient or remainder of an antichain,
    so it is again a family of distinct sets forming an antichain.  A leaf
    must hold at most one set.  An inner node splits its family at the
    branch into ``held``, the sets through it less it, and ``rest``, the
    others; ``held`` must not be empty, ``splits(held, rest)`` must hold,
    and the children must store the two."""
    stack = [(cert, sets)]
    while stack:
        node, family = stack.pop()
        if node is None or node.sets != _canon_sets(family):
            return False
        if node.branch is None:
            if len(family) > 1:
                return False
            continue
        held = [s - {node.branch} for s in family if node.branch in s]
        rest = [s for s in family if node.branch not in s]
        if not held or not splits(held, rest):
            return False
        stack += [(node.first, frozenset(held)), (node.second, frozenset(rest))]
    return True


class SheddingNode(CertificateNode):
    """One node of a shedding-tree certificate.

    Leaves are simplices (a single facet, the empty facet included); inner
    nodes name the shedding vertex and carry certificates for the link and
    the deletion at that vertex.
    """

    keys = ("facets", "vertex", "link", "del")


@record
class VDResult:
    """``decomposable`` is None when the search budget ran out."""

    decomposable: bool | None
    certificate: SheddingNode | None
    explored: int


def _sheds(link: list[int], rest: list[int]) -> bool:
    """The vertex sheds: every facet of its link lies inside some facet
    without it, so the deletion keeps exactly those."""
    return all(any(not l & ~f for f in rest) for l in link)


def is_vertex_decomposable(k: SimplicialComplex, budget: int = DEFAULT_VD_BUDGET) -> VDResult:
    """Exact recursive evaluation: a complex is vertex decomposable when it
    is a simplex, or some vertex sheds (deletion facets stay facets) with a
    decomposable link and deletion.

    Verdicts are memoized on the facet masks (``certificate_search``); the
    budget counts memo entries.  Candidate vertices are tried in ground-set
    order, and the first that sheds with certified children is the branch;
    the verdict itself does not depend on the order.
    """
    if k.is_void:
        raise ValueError("void complex")
    root = frozenset(k.facet_masks)
    order = list(range(len(k.ground_set)))
    return VDResult(*certificate_search(root, order, _sheds, budget, k.ground_set, SheddingNode))


def _sheds_sets(link: list[frozenset[str]], rest: list[frozenset[str]]) -> bool:
    """``_sheds`` on labelled facets; on an antichain it says the deletion's
    maximal sets are facets, namely the facets without the vertex."""
    return all(any(l <= f for f in rest) for l in link)


def verify_shedding_certificate(k: SimplicialComplex, cert: SheddingNode) -> bool:
    """Replay a shedding tree against ``k``, recomputing every local
    condition from the facets stored in the certificate."""
    return bool(k.facets) and replay(cert, k.facets, _sheds_sets)


# ---------------------------------------------------------------------------
# shellability


@record
class ShellingResult:
    """``shellable`` is None when the search budget ran out; ``explored``
    counts the facet prefixes visited, those of vertex-link searches
    included."""

    shellable: bool | None
    order: tuple[frozenset[str], ...] | None
    explored: int


def is_shellable(k: SimplicialComplex, budget: int = DEFAULT_SHELL_BUDGET) -> ShellingResult:
    """Search for a shelling order of the facets.

    Depth-first over prefixes.  Whether a facet may come next depends only on
    the set of facets already placed, so dead prefix-sets are memoized; the
    budget counts distinct prefix-sets visited.  Admissibility uses the
    pairwise form: F may follow the placed set P when for every J in P some
    L in P has |F \\ L| = 1 and J cap F inside L cap F.  With F \\ L = {x}
    the inclusion says x is not in J, so F may follow P exactly when no J
    in P contains every such x.

    The search only explores orders with weakly decreasing facet dimension.
    Every shellable complex admits such a shelling (any shelling can be
    rearranged into one), so restricting the space changes no verdict while
    making exhaustion feasible on complexes far from pure.

    Every link of a shellable complex is shellable (Bjorner-Wachs,
    *Shellable nonpure complexes and posets I*, 1996, Prop. 10.14).  So at
    its first backtrack the search runs itself once on each vertex link
    other than the empty one and a cone point's, fewest facets first; the
    first link that cannot be shelled makes the verdict False.  The rule
    only cuts orders that cannot be completed, so a True verdict returns
    the same order as the plain search, and a search that never backtracks
    runs no link.  The budget and ``explored`` count the prefix-sets of the
    link searches too.
    """
    if k.is_void:
        raise ValueError("void complex has no facets to shell")
    shellable, order, explored = shelling_search(k.facet_masks, budget)
    return ShellingResult(shellable, order and tuple(map(k.labels, order)), explored)


def shelling_search(masks: Iterable[int], budget: int) -> tuple[bool | None, list[int] | None, int]:
    """``is_shellable`` on an antichain of facet masks: (verdict, order,
    prefix-sets visited), the verdict None when the budget ran out.  The
    candidates come in (dimension descending, ground-set order)."""
    masks = sorted(masks, key=lambda m: (-m.bit_count(), bits(m)))
    n = len(masks)
    if budget < 1:
        return None, None, 0
    if n == 1:
        return True, masks, 1
    # holding[v]: the facets containing vertex v
    holding = [
        sum(1 << j for j, fj in enumerate(masks) if fj >> v & 1)
        for v in range(max(masks).bit_length())
    ]
    # near[c]: for each vertex x, (the facets F_l with F_c \ F_l = {x},
    # holding[x]); F_c may follow the placed set P when no placed facet holds
    # every x whose group meets P
    near = []
    for fc in masks:
        by_x: dict[int, int] = {}
        for l, fl in enumerate(masks):
            x = fc & ~fl
            if x.bit_count() == 1:
                by_x[x] = by_x.get(x, 0) | 1 << l
        near.append([(ls, holding[x.bit_length() - 1]) for x, ls in by_x.items()])

    # weakly decreasing dimensions force each size class to be exhausted
    # before the next smaller one starts, so the candidates at depth d are
    # the size class of facet d
    by_size: dict[int, list[tuple]] = {}
    for c, fc in enumerate(masks):
        by_size.setdefault(fc.bit_count(), []).append((c, 1 << c, near[c]))
    at_depth = [by_size[fc.bit_count()] for fc in masks]

    # depth-first in the order of a recursive search: one candidate iterator
    # per placed prefix, the prefix itself in ``path`` and as ``used``
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
                return None, None, visited - 1
            path.append(c)
            used |= bit
            if len(path) == n:
                return True, [masks[i] for i in path], visited
            stack.append(iter(at_depth[len(path)]))
            break
        else:
            stack.pop()
            if stack:
                if not dead:  # the first backtrack: try to refute through a link
                    links = [[f ^ 1 << v for f in masks if f >> v & 1] for v in range(len(holding))]
                    for link in sorted((l for l in links if 0 < len(l) < n), key=len):
                        shellable, _, seen = shelling_search(link, budget - visited)
                        visited += seen
                        if not shellable:
                            return shellable, None, visited
                dead.add(used)
                used ^= 1 << path.pop()
    return False, None, visited


def _reduce_to_maximal(sets: Iterable[frozenset[str]]) -> frozenset[frozenset[str]]:
    """Antichain of inclusion-maximal members of ``sets``."""
    by_size = sorted(set(sets), key=len, reverse=True)
    maximal: list[frozenset[str]] = []
    for s in by_size:
        if not any(s <= m for m in maximal):
            maximal.append(s)
    return frozenset(maximal)


def verify_shelling_certificate(k: SimplicialComplex, order: Sequence[Iterable[str]]) -> bool:
    """Check a facet ordering directly against the definition: each facet
    must meet the union of its predecessors in a pure subcomplex of exactly
    one dimension lower.  The void complex has no shelling.

    Independent of the search: this materializes the maximal intersections
    instead of using the pairwise reformulation.
    """
    seq = [frozenset(map(str, f)) for f in order]
    if not seq or frozenset(seq) != k.facets or len(seq) != len(k.facets):
        return False
    for t in range(1, len(seq)):
        fk = seq[t]
        if not fk:
            return False  # the empty facet can only come alone
        intersections = [fj & fk for fj in seq[:t]]
        maximal = _reduce_to_maximal(intersections)
        if any(len(m) != len(fk) - 1 for m in maximal):
            return False
    return True
