"""Reduced simplicial homology over the rationals or a prime field, the
Reisner criterion for Cohen-Macaulayness, and sequential Cohen-Macaulayness
via pure skeletons.

The Reisner loop builds no skeleton.  A face F of the pure m-skeleton lies
in a facet with more than m vertices, and its link there is the pure
j-skeleton of lk(F), j = m - |F|.  Below degree j that link has the homology
of the complex generated by the facets of lk(F) of dimension at least j, as
both have the same j-skeleton, so a pure link is eliminated once for every
skeleton.  When those facets share a vertex the complex is a cone, which is
acyclic, and F is skipped.

Homology is taken relative to the star of a vertex v, a cone: H~_i(K) =
H_i(K, st v) = H_i(K - v, lk v) by the pair's long exact sequence and
excision (Munkres 1984, sections 23-24), so no face through v is listed."""

from __future__ import annotations

from functools import cache, reduce
from math import gcd
from operator import and_, or_
from typing import Container

from .complexes import SimplicialComplex, mask_order, submasks
from .graphs import CrossCheckError, bits, check_guard, record


def parse_field(spec: str) -> int | None:
    """Normalize a field descriptor: ``q``/``Q`` is the rationals (None),
    ``gf:p`` or ``GF(p)`` is the prime field of order p, for a prime
    p < 2**64."""
    s = spec.strip().lower()
    if s in ("q", "rational", "rationals"):
        return None
    if s.startswith("gf:"):
        digits = s[3:]
    elif s.startswith("gf(") and s.endswith(")"):
        digits = s[3:-1]
    else:
        digits = ""
    if not digits.isdecimal():  # so int() below never raises a message of its own
        raise ValueError(f"unknown field descriptor {spec!r}")
    p = int(digits)
    if p >= 1 << 64:
        raise ValueError(f"field order {p} is not below 2**64")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which decides
    primality exactly below 3.18e23 (Sorenson and Webster 2015)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def field_name(p: int | None) -> str:
    return "Q" if p is None else f"GF({p})"


@record
class BettiProfile:
    """Reduced Betti numbers; ``reduced[i]`` is the rank in degree i-1, so
    the list starts with the degree -1 entry."""

    reduced: tuple[int, ...]
    field: str

    def betti(self, degree: int) -> int:
        i = degree + 1
        if 0 <= i < len(self.reduced):
            return self.reduced[i]
        return 0


def _pivots(columns: list[dict], p: int | None, cleared: Container[int]) -> dict[int, dict]:
    """Column reduction of a sparse integer matrix, keyed by pivot row; the
    rank is the number of pivots.  A column is reduced against the stored
    column keyed by its largest row until that row is free.  Elimination is
    fraction-free, normalized by the gcd over Q and mod p over GF(p).
    Columns in ``cleared`` are known to reduce to zero and are skipped."""
    pivots: dict[int, dict[int, int]] = {}
    for i, col in enumerate(columns):
        if i in cleared:
            continue
        if p is not None:
            col = {r: v % p for r, v in col.items() if v % p}
        while col:
            row = max(col)
            pcol = pivots.get(row)
            if pcol is None:
                pivots[row] = col
                break
            a, b = pcol[row], col[row]
            merged = {r: v * a for r, v in col.items()}
            for r, v in pcol.items():
                merged[r] = merged.get(r, 0) - v * b
            if p is None:
                g = gcd(*merged.values())  # 0 only when every entry cancelled
                col = {r: v // g for r, v in merged.items() if v}
            else:
                col = {r: v % p for r, v in merged.items() if v % p}
    return pivots


def _boundary_columns(lower: list[int], upper: list[int], link: Container[int]) -> list[dict[int, int]]:
    """Boundary matrix columns relative to ``link``: for each upper face,
    alternating-sign incidences, signs taken in ground-set order, with its
    codimension-one subfaces not in ``link``, which must be in ``lower``."""
    index = {f: i for i, f in enumerate(lower)}
    cols = []
    for face in upper:
        col: dict[int, int] = {}
        sign, rest = 1, face
        while rest:
            low = rest & -rest
            if face ^ low not in link:
                col[index[face ^ low]] = sign
            sign, rest = -sign, rest ^ low
        cols.append(col)
    return cols


def _composition_vanishes(upper: list[dict[int, int]], lower: list[dict[int, int]]) -> bool:
    """Check that the product of two successive boundary matrices is zero,
    column by column of the upper one."""
    for col in upper:
        acc: dict[int, int] = {}
        for r, v in col.items():
            for r2, v2 in lower[r].items():
                acc[r2] = acc.get(r2, 0) + v * v2
        if any(acc.values()):
            return False
    return True


@cache
def _betti(generators: tuple[int, ...], p: int | None) -> tuple[int, ...]:
    """Reduced Betti numbers, degree -1 upward, of the non-void complex K
    generated by the face masks ``generators``, as the homology of (K - v,
    lk v), where v is the lowest of the vertices in the most generators of
    top size (degree -1 vanishes, as the empty face lies in lk v).
    Boundaries are reduced from the top down: a face that is the pivot of a
    reduced boundary one size up has a column that combines earlier
    columns, so it is cleared without reduction.  Results are cached for the
    process, so each distinct (generators, p) is eliminated once."""
    top = max(g.bit_count() for g in generators)
    if not top:
        return (1,)  # {∅} has no vertex to take the star of
    tops = [g for g in generators if g.bit_count() == top]
    bit = 1 << max(bits(reduce(or_, tops)), key=lambda i: (sum(g >> i & 1 for g in tops), -i))
    link = submasks(g ^ bit for g in generators if g & bit)
    grouped: list[list[int]] = [[] for _ in range(top + 1)]  # sized by K, so no degree is lost
    for f in sorted(submasks(g for g in generators if not g & bit) - link):
        grouped[f.bit_count()].append(f)
    ranks = [0] * (top + 2)  # ranks[s]: rank of the boundary out of size s
    upper: list[dict[int, int]] = []
    cleared: Container[int] = ()
    for s in range(top, 0, -1):
        cols = _boundary_columns(grouped[s - 1], grouped[s], link)
        if not _composition_vanishes(upper, cols):
            raise CrossCheckError("boundary of boundary is nonzero")
        cleared = _pivots(cols, p, cleared)
        ranks[s] = len(cleared)
        upper = cols
    counts = [len(level) for level in grouped]
    betti = tuple(counts[s] - ranks[s] - ranks[s + 1] for s in range(top + 1))
    if min(betti) < 0:
        raise CrossCheckError("a rank exceeds the dimension of its kernel")
    return betti


def reduced_homology(k: SimplicialComplex, field: int | None = None) -> BettiProfile:
    """Reduced Betti numbers of ``k``; ``field`` is None for the rationals or
    a prime p for GF(p).  Exact arithmetic throughout."""
    if k.is_void:
        return BettiProfile((), field_name(field))
    check_guard(len(k.ground_set), "face")
    return BettiProfile(_betti(tuple(sorted(k.masks)), field), field_name(field))


@record
class CMReport:
    """Cohen-Macaulayness verdict with a machine-checkable witness.

    A failed purity pre-check reports a smallest facet as witness with
    reason ``non-pure``; a Reisner failure reports the face whose link has
    unexpected homology together with the offending degree.
    """

    cohen_macaulay: bool
    field: str
    witness_face: frozenset[str] | None = None
    witness_degree: int | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"cohen_macaulay": self.cohen_macaulay, "field": self.field}
        if not self.cohen_macaulay:
            out["witness_face"] = sorted(self.witness_face)
            out["reason"] = self.reason
            if self.witness_degree is not None:
                out["witness_degree"] = self.witness_degree
        return out


def is_cohen_macaulay(k: SimplicialComplex, field: int | None = None) -> CMReport:
    """Reisner's criterion over a field (Reisner 1976): purity plus
    vanishing reduced homology of every face link below its dimension.

    Faces are scanned in ``mask_order``, (dimension, ground-set order), so a
    false verdict carries the first witness in that order.  Links that agree
    up to an order-preserving relabelling are eliminated once per process."""
    if k.is_void:
        raise ValueError("void complex")
    if not k.is_pure():
        smallest = k.labels(min(k.masks, key=mask_order))
        return CMReport(False, field_name(field), smallest, None, "non-pure")
    return _cohen_macaulay(k, sorted(k.face_masks(), key=mask_order), k.dimension, field)


def _relabelled(facets: list[int]) -> tuple[int, ...]:
    """Facet masks with each vertex in no facet deleted (top down, so lower bits
    stay put), then sorted; that keeps every boundary sign, so the key fixes the Betti numbers."""
    support = reduce(or_, facets)
    for i in reversed(bits(~support & (1 << support.bit_length()) - 1)):  # no facet holds vertex i
        facets = [f >> 1 & -1 << i | f & (1 << i) - 1 for f in facets]
    return tuple(sorted(facets))


def _cohen_macaulay(k: SimplicialComplex, faces: list[int], m: int, field: int | None) -> CMReport:
    """Reisner's criterion on the pure m-skeleton of ``k`` by the rules
    above; ``faces`` are the faces of ``k`` in ``mask_order``.  Faces with
    j <= 0 have nothing to test, as degree -1 vanishes once a vertex exists."""
    name = field_name(field)
    generators = [f for f in k.masks if f.bit_count() > m]
    for face in faces:
        j = m - face.bit_count()
        if j <= 0:
            break
        link = [f ^ face for f in generators if f & face == face]
        if not link or reduce(and_, link):
            continue
        betti = _betti(_relabelled(link), field)
        for i, b in enumerate(betti[: j + 1]):  # degrees -1 .. j - 1
            if b:
                return CMReport(False, name, k.labels(face), i - 1, "link-homology")
    return CMReport(True, name)


@record
class SCMReport:
    """Per-skeleton Cohen-Macaulay verdicts for m = 1..dim."""

    sequentially_cohen_macaulay: bool
    field: str
    skeletons: tuple[tuple[int, CMReport], ...]

    def failing_dimensions(self) -> list[int]:
        return [m for m, rep in self.skeletons if not rep.cohen_macaulay]

    def to_json_dict(self) -> dict:
        return {
            "sequentially_cohen_macaulay": self.sequentially_cohen_macaulay,
            "field": self.field,
            "skeletons": [
                {"m": m, **rep.to_json_dict()} for m, rep in self.skeletons
            ],
        }


def is_scm(k: SimplicialComplex, field: int | None = None) -> SCMReport:
    """Sequential Cohen-Macaulayness: every pure m-skeleton, m = 1..dim, is
    Cohen-Macaulay.  (The 0-skeleton, a disjoint set of points, is always
    Cohen-Macaulay, so starting at m = 1 agrees with the convention that
    includes it.)  Skeletons go from the top down.  Where k has no
    m-dimensional facet, its m-skeleton is a skeleton of the (m+1)-skeleton,
    so it is inferred Cohen-Macaulay when that one is (Duval 1996)."""
    name = field_name(field)
    if k.is_void:
        raise ValueError("void complex")
    faces = sorted(k.face_masks(), key=mask_order)
    facet_sizes = {f.bit_count() for f in k.masks}
    reports: dict[int, CMReport] = {}
    for m in range(k.dimension, 0, -1):
        above = reports.get(m + 1)
        if m + 1 not in facet_sizes and above is not None and above.cohen_macaulay:
            reports[m] = CMReport(True, name)
        else:
            reports[m] = _cohen_macaulay(k, faces, m, field)
    verdict = all(rep.cohen_macaulay for rep in reports.values())
    return SCMReport(verdict, name, tuple(sorted(reports.items())))
