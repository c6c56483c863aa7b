"""Square-free monomial ideals as support antichains: Stanley-Reisner ideals,
Alexander duals via minimal vertex covers, and the vertex-splittable
recursion with replayable certificates."""

from __future__ import annotations

from typing import Iterable

from .complexes import SimplicialComplex, ind_r, minimal_nonfaces
from .decompose import CertificateNode, certificate_search, replay
from .graphs import Graph, record
from .hypergraphs import Hypergraph, check_family, con_r, minimal_vertex_covers

DEFAULT_SPLIT_BUDGET = 500_000


class ZeroIdealError(ValueError):
    """The zero ideal was passed where a proper ideal is required."""


class UnitIdealError(ValueError):
    """The unit ideal was passed where a proper ideal is required."""


class CrossCheckError(RuntimeError):
    """Two independent computation paths disagreed; always a bug."""


@record
class MonomialIdeal:
    """Square-free monomial ideal: generators are supports, kept as an
    antichain under divisibility (= inclusion).  No generators is the zero
    ideal; the single generator {} (the monomial 1) is the unit ideal."""

    variables: tuple[str, ...]
    generators: frozenset[frozenset[str]]

    def __post_init__(self):
        check_family(self.variables, self.generators, "generator")

    @classmethod
    def from_supports(cls, variables: Iterable, supports: Iterable) -> MonomialIdeal:
        return cls(
            tuple(str(v) for v in variables),
            frozenset(frozenset(map(str, s)) for s in supports),
        )

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return frozenset() in self.generators

    def to_json_dict(self) -> dict:
        """Generators in (size, variable order), each in variable order."""
        idx = {v: i for i, v in enumerate(self.variables)}
        keyed = sorted((len(g), sorted(idx[v] for v in g)) for g in self.generators)
        return {
            "variables": list(self.variables),
            "generators": [[self.variables[i] for i in key] for _, key in keyed],
        }


def stanley_reisner(k: SimplicialComplex) -> MonomialIdeal:
    """Ideal generated by the minimal non-faces of ``k``."""
    if k.is_void:
        raise ValueError("void complex has no Stanley-Reisner ideal")
    return MonomialIdeal(k.ground_set, minimal_nonfaces(k))


def alexander_dual_ideal(i: MonomialIdeal) -> MonomialIdeal:
    """Dual ideal: generators are the minimal vertex covers of the generator
    hypergraph.  Zero and unit inputs are rejected outright rather than
    given a convention."""
    if i.is_zero:
        raise ZeroIdealError("the zero ideal has no Alexander dual here")
    if i.is_unit:
        raise UnitIdealError("the unit ideal has no Alexander dual here")
    covers = minimal_vertex_covers(Hypergraph(i.variables, i.generators))
    return MonomialIdeal(i.variables, covers)


def dual_of_ind(g: Graph, r: int, k: SimplicialComplex | None = None) -> MonomialIdeal:
    """Dual of the Stanley-Reisner ideal of the r-independence complex.

    Computed twice, by enumerations that share no code: Berge's rule gives
    the minimal vertex covers of ``con_r``, whose edges generate the
    Stanley-Reisner ideal, and ``maximal_sets`` the facets of the complex,
    whose complements generate the dual (Miller-Sturmfels, ch. 1).  Any
    mismatch raises; the ideal is built once, from the covers.  ``k`` is
    ``ind_r(g, r)`` when the caller has built it already, else built here.

    When the graph has no connected (r+1)-subset the complex is the full
    simplex, its Stanley-Reisner ideal is zero, and the dual is rejected
    just like ``alexander_dual_ideal`` on the zero ideal.  That ideal is
    never the unit ideal, since every edge has r+1 >= 2 vertices.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    h = con_r(g, r)
    if not h.edges:
        raise ZeroIdealError(
            "every vertex subset is r-independent; the Stanley-Reisner ideal is zero"
        )
    covers = minimal_vertex_covers(h)
    full = frozenset(g.vertices)
    if k is None:
        k = ind_r(g, r)
    if covers != frozenset(full - f for f in k.facets):
        raise CrossCheckError(
            "cover dual and Stanley-Reisner dual disagree; this is a bug"
        )
    return MonomialIdeal(g.vertices, covers)


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


def _split_parts(
    gens: frozenset[frozenset[str]], x: str
) -> tuple[frozenset[frozenset[str]], frozenset[frozenset[str]]] | None:
    """Quotient/remainder decomposition at pivot ``x``, or None when the
    pivot does not satisfy the splitting conditions.

    The quotients of the pivot-containing generators must be exactly the
    minimal generators of the candidate first part: equivalently, every
    pivot-free generator must contain some quotient (which also gives the
    required containment of the remainder in the quotient part)."""
    with_x = [g for g in gens if x in g]
    if not with_x:
        return None
    quotients = frozenset(g - {x} for g in with_x)
    remainder = frozenset(g for g in gens if x not in g)
    for f in remainder:
        if not any(q <= f for q in quotients):
            return None
    return quotients, remainder


def _split(gens: frozenset[int], bit: int) -> tuple[frozenset[int], frozenset[int]] | None:
    """(quotients, remainder) at the pivot, or None: some generator must
    hold it, and every generator without it must contain some quotient."""
    quotients = frozenset(g ^ bit for g in gens if g & bit)
    remainder = frozenset(g for g in gens if not g & bit)
    if quotients and all(any(not q & ~f for q in quotients) for f in remainder):
        return quotients, remainder
    return None


def is_vertex_splittable(i: MonomialIdeal, budget: int = DEFAULT_SPLIT_BUDGET) -> SplitResult:
    """Recursive splitting search with memoization on the generator masks
    (``certificate_search``), pivots in the string order of the variables.
    Zero, unit, and principal ideals are the base cases; the budget counts
    memo entries."""
    index = {v: j for j, v in enumerate(i.variables)}
    root = frozenset(sum(1 << index[v] for v in g) for g in i.generators)
    pivots = sorted(range(len(i.variables)), key=i.variables.__getitem__)
    return SplitResult(*certificate_search(root, pivots, _split, budget, i.variables, SplitNode))


def verify_split_certificate(i: MonomialIdeal, cert: SplitNode) -> bool:
    """Replay a splitting certificate, recomputing every pivot condition
    from the generators recorded at each node."""
    return replay(cert, i.generators, _split_parts, (0, 1))
