"""Reduced simplicial homology over the rationals or a prime field, the
Reisner criterion for Cohen-Macaulayness, and sequential Cohen-Macaulayness
via pure skeletons."""

from __future__ import annotations

from math import gcd
from typing import Container

from .complexes import SimplicialComplex, mask_order, submasks
from .graphs import record


def parse_field(spec: str) -> int | None:
    """Normalize a field descriptor: ``q``/``Q`` is the rationals (None),
    ``gf:p`` or ``GF(p)`` is the prime field of order p, for a prime
    p < 2**64."""
    s = spec.strip().lower()
    if s in ("q", "rational", "rationals"):
        return None
    if s.startswith("gf:"):
        p = int(s[3:])
    elif s.startswith("gf(") and s.endswith(")"):
        p = int(s[3:-1])
    else:
        raise ValueError(f"unknown field descriptor {spec!r}")
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


def _pivots(columns: list[dict], p: int | None, cleared: Container[int] = ()) -> dict[int, dict]:
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


def _boundary_columns(lower: list[int], upper: list[int]) -> list[dict[int, int]]:
    """Boundary matrix columns: for each upper face, alternating-sign
    incidences with its codimension-one subfaces, signs taken in ground-set
    order."""
    index = {f: i for i, f in enumerate(lower)}
    cols = []
    for face in upper:
        col: dict[int, int] = {}
        sign, rest = 1, face
        while rest:
            low = rest & -rest
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


def _betti(faces: set[int], p: int | None) -> tuple[int, ...]:
    """Reduced Betti numbers, degree -1 upward, of the non-void complex with
    face bitmasks ``faces``.  Boundaries are reduced from the top down: a
    face that is the pivot of a reduced boundary one size up has a column
    that combines earlier columns, so it is cleared without reduction."""
    levels: dict[int, list[int]] = {}
    for f in faces:
        levels.setdefault(f.bit_count(), []).append(f)
    top = max(levels)  # faces are downward closed: every size 0..top occurs
    grouped = [sorted(levels[s]) for s in range(top + 1)]
    ranks = [0] * (top + 2)  # ranks[s]: rank of the boundary out of size s
    upper: list[dict[int, int]] = []
    cleared: Container[int] = ()
    for s in range(top, 0, -1):
        cols = _boundary_columns(grouped[s - 1], grouped[s])
        assert _composition_vanishes(upper, cols), "boundary of boundary is nonzero"
        cleared = _pivots(cols, p, cleared)
        ranks[s] = len(cleared)
        upper = cols
    counts = [len(level) for level in grouped]
    betti = tuple(counts[s] - ranks[s] - ranks[s + 1] for s in range(top + 1))
    euler_faces = sum((-1) ** s * c for s, c in enumerate(counts))
    euler_betti = sum((-1) ** s * b for s, b in enumerate(betti))
    assert euler_faces == euler_betti, "Euler-Poincare identity failed"
    return betti


def reduced_homology(k: SimplicialComplex, field: int | None = None) -> BettiProfile:
    """Reduced Betti numbers of ``k``; ``field`` is None for the rationals or
    a prime p for GF(p).  Exact arithmetic throughout."""
    name = field_name(field)
    if k.is_void:
        return BettiProfile((), name)
    return BettiProfile(_betti(k.face_masks(), field), name)


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

    Faces are scanned in (dimension, label) order, so a false verdict always
    carries the lexicographically first witness.  Links that agree up to an
    order-preserving relabelling are eliminated once per call."""
    if k.is_void:
        raise ValueError("void complex")
    if not k.is_pure():
        smallest = min(k.facets, key=lambda f: (len(f), k.face_key(f)))
        return CMReport(False, field_name(field), smallest, None, "non-pure")
    return _cohen_macaulay(k, k.face_masks(), field, {})


def _relabelled(facets: list[int]) -> tuple[int, ...]:
    """Facet masks moved onto the low bits in vertex order, then sorted.
    The move keeps every boundary sign, so the key fixes the Betti numbers."""
    support = 0
    for f in facets:
        support |= f
    gaps = ~support & (1 << support.bit_length()) - 1
    while gaps:  # squeeze out the lowest run of vertices in no facet
        start = gaps & -gaps
        end = (gaps + start) & -(gaps + start)
        width = end.bit_length() - start.bit_length()
        low = start - 1
        facets = [f >> width & ~low | f & low for f in facets]
        gaps = (gaps ^ (end - start)) >> width
    return tuple(sorted(facets))


def _cohen_macaulay(k: SimplicialComplex, faces: set[int], field: int | None, memo: dict) -> CMReport:
    """Reisner's criterion on the pure complex with face masks ``faces``
    over the ground set of ``k``; its facets are its largest faces.  The
    link Betti numbers are memoized in ``memo``."""
    name = field_name(field)
    faces = sorted(faces, key=mask_order)
    top = faces[-1].bit_count()
    facets = [f for f in faces if f.bit_count() == top]
    for face in faces:
        # the link's facets are the facets through the face, minus the face
        key = _relabelled([f ^ face for f in facets if f & face == face])
        betti = memo.get(key)
        if betti is None:
            betti = memo[key] = _betti(submasks(key), field)
        for i, b in enumerate(betti[:-1]):  # degrees -1 .. dim(link) - 1
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
    includes it.)  Skeletons go from the top down and share one link memo.
    Where k has no m-dimensional facet, its m-skeleton is a skeleton of the
    (m+1)-skeleton, so it is inferred Cohen-Macaulay when that one is (Duval
    1996)."""
    name = field_name(field)
    if k.is_void:
        raise ValueError("void complex")
    faces = k.face_masks() if k.dimension > 0 else set()  # no skeleton below dimension 1
    facet_sizes = {f.bit_count() for f in k.facet_masks}
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}  # link facets -> Betti numbers
    reports: dict[int, CMReport] = {}
    for m in range(k.dimension, 0, -1):
        above = reports.get(m + 1)
        if m + 1 not in facet_sizes and above is not None and above.cohen_macaulay:
            reports[m] = CMReport(True, name)
        else:
            # the pure m-skeleton is generated by the faces with m+1 vertices
            skeleton = submasks(f for f in faces if f.bit_count() == m + 1)
            reports[m] = _cohen_macaulay(k, skeleton, field, memo)
    verdict = all(rep.cohen_macaulay for rep in reports.values())
    return SCMReport(verdict, name, tuple(sorted(reports.items())))
