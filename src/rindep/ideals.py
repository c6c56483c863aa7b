"""Square-free monomial ideals as support antichains: the Alexander dual of
a Stanley-Reisner ideal, generated by the facet complements, and the
vertex-splittable recursion with replayable certificates."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .complexes import SimplicialComplex, ind_r, mask_order
from .decompose import CertificateNode, certificate_search, replay
from .graphs import CrossCheckError, Graph, bits, check_family, parse_family, record, sets_of
from .hypergraphs import con_r, minimal_vertex_covers

DEFAULT_SPLIT_BUDGET = 500_000


@record
class MonomialIdeal:
    """Square-free monomial ideal: generators are supports, kept as an
    antichain of masks under divisibility (= inclusion).  No generators is
    the zero ideal; the single generator {} (the monomial 1) is the unit ideal."""

    variables: tuple[str, ...]
    masks: frozenset[int]

    def __post_init__(self):
        check_family(self.variables, self.masks, "generator")

    @classmethod
    def from_supports(cls, variables: Iterable, supports: Iterable) -> MonomialIdeal:
        names = tuple(str(v) for v in variables)
        return cls(names, frozenset(parse_family(names, supports, "generator")))

    generators = cached_property(lambda self: sets_of(self.variables, self.masks))  # a view for output

    def to_json_dict(self) -> dict:
        """Generators in (size, variable order), each in variable order."""
        return {
            "variables": list(self.variables),
            "generators": [[self.variables[i] for i in bits(m)] for m in sorted(self.masks, key=mask_order)],
        }


def facet_dual(k: SimplicialComplex) -> MonomialIdeal:
    """Alexander dual of the Stanley-Reisner ideal of ``k``, over its whole
    ground set: the ideal generated by the facet complements
    (Miller-Sturmfels, ch. 1), which form an antichain as the facets do.

    The void complex has no Stanley-Reisner ideal, and a single facet on
    the whole ground set has the zero ideal, whose dual is rejected rather
    than given a convention.  A single facet that misses some vertex of the
    ground set has a principal dual.
    """
    if k.is_void:
        raise ValueError("void complex has no Stanley-Reisner ideal")
    full = (1 << len(k.ground_set)) - 1
    if k.masks == {full}:
        raise ValueError("a simplex on its whole ground set has the zero Stanley-Reisner ideal")
    return MonomialIdeal(k.ground_set, frozenset(full ^ f for f in k.masks))


def dual_of_ind(g: Graph, r: int, k: SimplicialComplex | None = None) -> MonomialIdeal:
    """Dual of the Stanley-Reisner ideal of the r-independence complex.

    Computed twice, by enumerations that share no code: Berge's rule gives
    the minimal vertex covers of ``con_r``, whose edges generate the
    Stanley-Reisner ideal, and ``maximal_sets`` the facets of the complex,
    whose complements generate the dual (``facet_dual``).  The two are
    compared as masks over the graph's vertices, and any mismatch raises.
    ``k`` is ``ind_r(g, r)`` when the caller has built it already, else
    built here.

    When the graph has no connected (r+1)-subset the complex is the full
    simplex, and ``facet_dual`` rejects the dual of its zero ideal.  The
    Stanley-Reisner ideal is never the unit ideal, since every edge of
    ``con_r`` has r+1 >= 2 vertices.
    """
    covers = minimal_vertex_covers(con_r(g, r))
    k = ind_r(g, r) if k is None else k
    dual = facet_dual(k)
    if frozenset(covers) != dual.masks:
        raise CrossCheckError("cover dual and Stanley-Reisner dual disagree; this is a bug")
    return dual


# ---------------------------------------------------------------------------
# vertex-splittable recursion


class SplitNode(CertificateNode):
    """One node of a splitting certificate.

    Leaves are the zero ideal, the unit ideal, or a principal ideal; inner
    nodes name the pivot variable and carry certificates for the quotient
    part (generators that contained the pivot, with it removed) and the
    remainder part (generators avoiding the pivot).
    """

    keys = ("generators", "pivot", "quotient", "remainder")


@record
class SplitResult:
    """``splittable`` is None when the search budget ran out."""

    splittable: bool | None
    certificate: SplitNode | None
    explored: int


def _splits(quotients: list[int], remainder: list[int]) -> bool:
    """The pivot splits: every generator without it contains some quotient
    of a generator with it, so the quotients are exactly the minimal
    generators of the first part, and the remainder lies in it."""
    for f in remainder:
        for q in quotients:
            if not q & ~f:
                break
        else:
            return False
    return True


def is_vertex_splittable(i: MonomialIdeal, budget: int = DEFAULT_SPLIT_BUDGET) -> SplitResult:
    """Recursive splitting search with memoization on the generator masks
    (``certificate_search``), pivots in the string order of the variables.
    Zero, unit, and principal ideals are the base cases; the budget counts
    memo entries."""
    pivots = sorted(range(len(i.variables)), key=i.variables.__getitem__)
    found, tree, explored = certificate_search(i.masks, pivots, _splits, budget)
    return SplitResult(found, SplitNode(i.variables, tree) if found else None, explored)


def verify_split_certificate(i: MonomialIdeal, cert: SplitNode) -> bool:
    """Replay a splitting certificate whose root names the generators of
    ``i``, recomputing every quotient and remainder from its parent."""
    return cert.root_over(i.variables) == i.masks and replay(cert.tree, cert.tree[0], _splits)
