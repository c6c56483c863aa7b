"""Vertex decomposability with shedding-tree certificates, non-pure
shellability with shelling-order certificates, and independent certificate
verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import SimplicialComplex
from .hypergraphs import reduce_to_maximal

DEFAULT_VD_BUDGET = 500_000
DEFAULT_SHELL_BUDGET = 2_000_000


class _BudgetExhausted(Exception):
    pass


def _canon_facets(facets: Iterable[frozenset[str]]) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(f)) for f in facets))


def _link_facets(facets: frozenset[frozenset[str]], v: str) -> frozenset[frozenset[str]]:
    # facets containing v stay facets after removing it (antichain preserved)
    return frozenset(f - {v} for f in facets if v in f)


def _deletion_facets(facets: frozenset[frozenset[str]], v: str) -> frozenset[frozenset[str]]:
    parts: set[frozenset[str]] = set()
    for f in facets:
        parts.add(f - {v} if v in f else f)
    return reduce_to_maximal(parts)


@dataclass(frozen=True)
class SheddingNode:
    """One node of a shedding-tree certificate.

    Leaves are simplices (a single facet, the empty facet included); inner
    nodes name the shedding vertex and carry certificates for the link and
    the deletion at that vertex.
    """

    facets: tuple[tuple[str, ...], ...]
    vertex: str | None = None
    link: SheddingNode | None = None
    deletion: SheddingNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.vertex is None

    def to_json_dict(self) -> dict:
        out: dict = {"facets": [list(f) for f in self.facets]}
        if not self.is_leaf:
            out["vertex"] = self.vertex
            out["link"] = self.link.to_json_dict()
            out["del"] = self.deletion.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> SheddingNode:
        facets = tuple(sorted(tuple(sorted(map(str, f))) for f in data["facets"]))
        if "vertex" not in data:
            return cls(facets)
        return cls(
            facets,
            str(data["vertex"]),
            cls.from_json_dict(data["link"]),
            cls.from_json_dict(data["del"]),
        )


@dataclass(frozen=True)
class VDResult:
    """``decomposable`` is None when the search budget ran out."""

    decomposable: bool | None
    certificate: SheddingNode | None
    explored: int

    @property
    def budget_exceeded(self) -> bool:
        return self.decomposable is None


def is_shedding_vertex(k: SimplicialComplex, v: str) -> bool:
    """True iff every facet of the deletion at ``v`` is a facet of ``k``."""
    if v not in k.ground_set:
        raise ValueError(f"unknown vertex {v!r}")
    if not any(v in f for f in k.facets):
        raise ValueError(f"vertex {v!r} is in no face")
    return _deletion_facets(k.facets, v) <= k.facets


def is_vertex_decomposable(
    k: SimplicialComplex,
    budget: int = DEFAULT_VD_BUDGET,
    candidate_order: Sequence[str] | None = None,
) -> VDResult:
    """Exact recursive evaluation: a complex is vertex decomposable when it
    is a simplex, or some vertex sheds (deletion facets stay facets) with a
    decomposable link and deletion.

    Verdicts are memoized on the facet antichain; the budget counts memo
    entries.  ``candidate_order`` overrides the ground-set vertex order
    (the verdict itself is order independent).
    """
    if k.is_void:
        raise ValueError("void complex")
    order = tuple(candidate_order) if candidate_order is not None else k.ground_set
    memo: dict[frozenset[frozenset[str]], SheddingNode | None] = {}

    def solve(facets: frozenset[frozenset[str]]) -> SheddingNode | None:
        if facets in memo:
            return memo[facets]
        if len(memo) >= budget:
            raise _BudgetExhausted
        memo[facets] = None  # reserve the slot; overwritten on success
        if len(facets) == 1:
            node = SheddingNode(_canon_facets(facets))
            memo[facets] = node
            return node
        support = frozenset().union(*facets)
        for v in order:
            if v not in support:
                continue
            del_facets = _deletion_facets(facets, v)
            if not del_facets <= facets:
                continue
            link_cert = solve(_link_facets(facets, v))
            if link_cert is None:
                continue
            del_cert = solve(del_facets)
            if del_cert is None:
                continue
            node = SheddingNode(_canon_facets(facets), v, link_cert, del_cert)
            memo[facets] = node
            return node
        return None

    try:
        cert = solve(k.facets)
    except _BudgetExhausted:
        return VDResult(None, None, len(memo))
    return VDResult(cert is not None, cert, len(memo))


def verify_shedding_certificate(k: SimplicialComplex, cert: SheddingNode) -> bool:
    """Replay a shedding tree against ``k``, recomputing every local
    condition from the facets stored in the certificate."""
    if cert.facets != _canon_facets(k.facets):
        return False

    def check(node: SheddingNode) -> bool:
        facets = frozenset(frozenset(f) for f in node.facets)
        if len(facets) != len(node.facets):
            return False
        if node.is_leaf:
            return len(facets) == 1
        v = node.vertex
        if not any(v in f for f in facets):
            return False
        if node.link is None or node.deletion is None:
            return False
        del_facets = _deletion_facets(facets, v)
        if not del_facets <= facets:
            return False
        if node.link.facets != _canon_facets(_link_facets(facets, v)):
            return False
        if node.deletion.facets != _canon_facets(del_facets):
            return False
        return check(node.link) and check(node.deletion)

    return check(cert)


# ---------------------------------------------------------------------------
# shellability


@dataclass(frozen=True)
class ShellingResult:
    """``shellable`` is None when the search budget ran out."""

    shellable: bool | None
    order: tuple[frozenset[str], ...] | None
    explored: int

    @property
    def budget_exceeded(self) -> bool:
        return self.shellable is None


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
    """
    if k.is_void:
        raise ValueError("void complex has no facets to shell")
    facets = k.sorted_facets()
    n = len(facets)
    if budget < 1:
        return ShellingResult(None, None, 0)
    if n == 1:
        return ShellingResult(True, tuple(facets), 1)
    masks = [k.mask(f) for f in facets]
    # holding[v]: the facets containing vertex v
    holding = [
        sum(1 << j for j, fj in enumerate(masks) if fj >> v & 1) for v in range(len(k.ground_set))
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
    # the size class of cand[d]
    cand = sorted(range(n), key=lambda i: (-len(facets[i]), k.face_key(facets[i])))
    by_size: dict[int, list[tuple]] = {}
    for c in cand:
        by_size.setdefault(len(facets[c]), []).append((c, 1 << c, near[c]))
    at_depth = [by_size[len(facets[c])] for c in cand]

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


def verify_shelling_certificate(k: SimplicialComplex, order: Sequence[Iterable[str]]) -> bool:
    """Check a facet ordering directly against the definition: each facet
    must meet the union of its predecessors in a pure subcomplex of exactly
    one dimension lower.

    Independent of the search: this materializes the maximal intersections
    instead of using the pairwise reformulation.
    """
    seq = [frozenset(map(str, f)) for f in order]
    if frozenset(seq) != k.facets or len(seq) != len(k.facets):
        return False
    for t in range(1, len(seq)):
        fk = seq[t]
        if not fk:
            return False  # the empty facet can only come alone
        intersections = [fj & fk for fj in seq[:t]]
        maximal = reduce_to_maximal(intersections)
        if any(len(m) != len(fk) - 1 for m in maximal):
            return False
    return True


def verify_certificate(k: SimplicialComplex, cert) -> bool:
    """Dispatch on certificate shape: shedding trees are dicts/SheddingNode,
    shelling orders are facet sequences, bare or under ``"order"``.  A
    certificate of any other shape is invalid."""
    if isinstance(cert, SheddingNode):
        return verify_shedding_certificate(k, cert)
    try:
        if isinstance(cert, dict) and "order" not in cert:
            return verify_shedding_certificate(k, SheddingNode.from_json_dict(cert))
        order = cert["order"] if isinstance(cert, dict) else cert
        if isinstance(order, (list, tuple)):
            return verify_shelling_certificate(k, order)
    except (KeyError, TypeError, ValueError):
        pass
    return False
