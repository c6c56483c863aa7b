"""Base layer: records, label-bit masks, the family and guard checks,
which reject input with a ``ValueError``, and ``CrossCheckError``, the one
exception class of the package; graphs, generators and formats."""

from __future__ import annotations

import itertools
import json
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

FACE_ENUMERATION_GUARD = 20  # enumerations over all subsets allowed up to 2^20


class CrossCheckError(RuntimeError):
    """An internal check failed: two independent computation paths
    disagreed, or a result failed its own verification; always a bug."""


def record(cls: type) -> type:
    """Make ``cls`` a frozen record like ``dataclass(frozen=True)``, from
    generic methods rather than generated code.  The fields are the class's
    own annotations in order, less ``ClassVar`` ones; a field's class
    attribute is its default, and defaults come last.  ``__init__`` takes
    fields by position, then runs any ``__post_init__``.  Records
    compare and hash by class and field values.  Instances keep a
    ``__dict__`` (for ``cached_property`` and pickling), but assigning or
    deleting an attribute raises."""
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(n for n, a in annotations.items() if not str(a).startswith(("ClassVar", "typing.ClassVar")))
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    required = len(names) - len(defaults)
    if any(n in cls.__dict__ for n in names[:required]):
        raise TypeError(f"{cls.__name__}: fields with defaults must come last")
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args):
        if not required <= len(args) <= len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names} by position, got {len(args)}")
        self.__dict__.update(zip(names, args + defaults[len(args) - required :]))
        if post_init is not None:
            post_init(self)

    def values(self) -> tuple:
        return tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def refuse(self, name: str, *value):
        raise AttributeError(f"cannot assign or delete {name!r}: {type(self).__name__} is frozen")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@record
class Graph:
    """Simple undirected graph; ``vertices`` fixes a stable label order.

    Labels are opaque strings.  Edges are 2-element frozensets, so loops and
    parallel edges cannot be represented.
    """

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self):
        # the least offender by sorted labels, so the message does not depend on the hash seed
        odd = [sorted(e) for e in self.edges if len(e) != 2]
        if odd:
            raise ValueError(f"edge {min(odd)} is not a 2-element set")
        check_family(self.vertices, self.edges, "edge")

    @classmethod
    def from_edges(cls, vertices: Iterable, edges: Iterable) -> Graph:
        vs = tuple(str(v) for v in vertices)
        es = frozenset(frozenset(map(str, e)) for e in edges)
        return cls(vs, es)

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(ns) for v, ns in nbrs.items()}

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        return tuple(masks_of(self.vertices, self.adjacency.values()))

    def __len__(self) -> int:
        return len(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        pairs = sorted(map(bits, masks_of(self.vertices, self.edges)))
        return [(self.vertices[i], self.vertices[j]) for i, j in pairs]


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def masks_of(labels: Sequence[str], sets: Iterable[Iterable[str]]) -> list[int]:
    """Each of ``sets`` as a bitmask, bit i being ``labels[i]``: the one place
    a label becomes a bit."""
    index = {v: i for i, v in enumerate(labels)}
    return [sum(1 << index[v] for v in s) for s in sets]


def sets_of(labels: Sequence[str], masks: Iterable[int]) -> frozenset[frozenset[str]]:
    """The labelled sets of ``masks``: the inverse of ``masks_of``."""
    return frozenset(frozenset(labels[i] for i in bits(m)) for m in masks)


def check_guard(n: int, what: str) -> None:
    """Refuse an enumeration of ``what`` over ``n`` vertices past the guard."""
    if n > FACE_ENUMERATION_GUARD:
        raise ValueError(f"{what} enumeration over {n} vertices exceeds the guard")


def check_family(labels: tuple[str, ...], sets: frozenset[frozenset[str]], member: str) -> None:
    """Raise ``ValueError`` unless ``labels`` are distinct and ``sets``, a
    family of distinct sets, form an antichain over them; ``member`` names
    one set in the messages, the least offender by sorted labels, so they
    do not depend on the hash seed.  Two distinct sets of one size are never
    nested, so only sets of different sizes are compared."""
    known = set(labels)
    if len(known) != len(labels):
        twice = next(v for i, v in enumerate(labels) if v in labels[:i])
        raise ValueError(f"label {twice!r} appears twice under the {member}s")
    unknown = [s for s in sets if not s <= known]
    if unknown:
        raise ValueError(f"{member} {min(map(sorted, unknown))} uses unknown labels")
    by_size: dict[int, list[frozenset[str]]] = {}
    for s in sets:
        by_size.setdefault(len(s), []).append(s)
    groups = [by_size[n] for n in sorted(by_size)]
    inner = [a for i, small in enumerate(groups) for large in groups[i + 1 :] for a in small for b in large if a < b]
    if inner:
        raise ValueError(f"{member} {min(map(sorted, inner))} lies inside another {member}")


def is_caterpillar(g: Graph) -> bool:
    """True iff ``g`` is a tree whose non-leaf vertices each have at most two
    non-leaf neighbours, so that they induce a path (the non-leaf vertices
    of a tree induce a subtree).  A tree has at least one vertex and one
    edge fewer than vertices, and a breadth-first search over the neighbour
    masks from vertex 0 reaches every vertex."""
    n, adj = len(g.vertices), g.neighbour_masks
    if not n or len(g.edges) != n - 1:
        return False
    reached = frontier = 1
    while frontier:
        reach = 0
        for i in bits(frontier):
            reach |= adj[i]
        frontier = reach & ~reached
        reached |= frontier
    inner = sum(1 << i for i, a in enumerate(adj) if a.bit_count() >= 2)
    return reached == (1 << n) - 1 and all((adj[i] & inner).bit_count() <= 2 for i in bits(inner))


# ---------------------------------------------------------------------------
# generators


def make_caterpillar(leaf_counts: Sequence[int]) -> Graph:
    """Caterpillar with spine ``a1..al``, l = ``len(leaf_counts)``, and
    ``leaf_counts[i-1]`` legs ``b{i}_{j}`` at ``a{i}``."""
    if not leaf_counts:
        raise ValueError("need at least one spine vertex")
    if any(m < 0 for m in leaf_counts):
        raise ValueError("leaf counts must be non-negative")
    verts: list[str] = []
    edges: list[tuple[str, str]] = []
    for i, legs in enumerate(leaf_counts, start=1):
        spine = f"a{i}"
        verts.append(spine)
        if i > 1:
            edges.append((f"a{i - 1}", spine))
        for j in range(1, legs + 1):
            leaf = f"b{i}_{j}"
            verts.append(leaf)
            edges.append((spine, leaf))
    return Graph.from_edges(verts, edges)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    verts = [str(i) for i in range(1, n + 1)]
    return Graph.from_edges(verts, zip(verts, verts[1:]))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    verts = [str(i) for i in range(1, n + 1)]
    return Graph.from_edges(verts, zip(verts, verts[1:] + verts[:1]))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    verts = [str(i) for i in range(1, n + 1)]
    return Graph.from_edges(verts, itertools.combinations(verts, 2))


def star_graph(n_leaves: int) -> Graph:
    """Star with centre ``0`` and leaves ``1..n``."""
    if n_leaves < 0:
        raise ValueError("leaf count must be non-negative")
    leaves = [str(i) for i in range(1, n_leaves + 1)]
    return Graph.from_edges(["0"] + leaves, (("0", leaf) for leaf in leaves))


def demo_graph() -> Graph:
    """Five-vertex tree used as the running example (CLI generator ``fig1``)."""
    return Graph.from_edges(
        ["v1", "v2", "v3", "v4", "v5"],
        [("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v5")],
    )


def half_apex_clique(r: int) -> Graph:
    """Complete graph on ``v1..v2r`` plus apexes ``x1`` over the first half
    and ``x2`` over the second half."""
    if r < 2:
        raise ValueError("r must be at least 2")
    vs = [f"v{i}" for i in range(1, 2 * r + 1)]
    edges = list(itertools.combinations(vs, 2))
    edges += [("x1", f"v{i}") for i in range(1, r + 1)]
    edges += [("x2", f"v{i}") for i in range(r + 1, 2 * r + 1)]
    return Graph.from_edges(vs + ["x1", "x2"], edges)


def twin_bridge_paths(r: int) -> Graph:
    """Two paths ``1..r`` and ``r+1..2r`` joined through the adjacent bridge
    vertices ``a`` and ``b``, each adjacent to both path ends: the 2r+2
    vertex family."""
    if r < 2:
        raise ValueError("r must be at least 2")
    left = [str(i) for i in range(1, r + 1)]
    right = [str(i) for i in range(r + 1, 2 * r + 1)]
    bridge = ["a", "b"]
    edges = list(zip(left, left[1:])) + list(zip(right, right[1:]))
    edges.append(("a", "b"))
    edges += [(left[-1], c) for c in bridge]
    edges += [(right[0], c) for c in bridge]
    return Graph.from_edges(left + bridge + right, edges)


# ---------------------------------------------------------------------------
# free tree enumeration (centroid-canonical rooted trees)
#
# A rooted tree is a tuple of child trees, kept sorted in non-increasing
# (size, structure) order, which makes the nested tuple a canonical form.


@lru_cache(maxsize=None)
def _rooted_trees(n: int) -> tuple[tuple, ...]:
    return tuple(_canonical_forests(n - 1, n - 1, None))


def _canonical_forests(total: int, size_cap: int, key_bound) -> Iterator[tuple]:
    """Forests with ``total`` vertices, trees in non-increasing key order,
    every tree of size <= size_cap and key <= key_bound."""
    if total == 0:
        yield ()
        return
    for s in range(min(total, size_cap), 0, -1):
        for t in _rooted_trees(s):
            key = (s, t)
            if key_bound is not None and key > key_bound:
                continue
            for rest in _canonical_forests(total - s, size_cap, key):
                yield (t,) + rest


def _numbered(tree: tuple) -> Graph:
    """The rooted ``tree`` as a graph on "1".."n", numbered in preorder from
    the root "1": each vertex's number is the count of edges placed before
    its own edge, plus 2."""
    edges: list[tuple[int, int]] = []

    def hang(children: tuple, parent: int) -> None:
        for child in children:
            me = len(edges) + 2
            edges.append((parent, me))
            hang(child, me)

    hang(tree, 1)
    return Graph.from_edges(range(1, len(edges) + 2), edges)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of trees on n vertices.

    Unicentroidal trees are rooted at the centroid (all child subtrees have
    fewer than n/2 vertices); bicentroidal trees are two half-trees joined by
    an edge, the second hung below the first's root as its last child.  Each
    class appears exactly once, numbered by ``_numbered``.
    """
    max_child = (n - 1) // 2
    for forest in _canonical_forests(n - 1, max_child, None):
        yield _numbered(forest)
    if n % 2 == 0:
        halves = _rooted_trees(n // 2)
        for i, t1 in enumerate(halves):
            for t2 in halves[i:]:
                yield _numbered(t1 + (t2,))


# ---------------------------------------------------------------------------
# I/O formats


def parse_edge_list(text: str) -> Graph:
    """Edge-list format: one ``u v`` pair per line, ``#`` comments, isolated
    vertices declared as ``vertex u``; ``vertex`` is no label."""
    verts: dict[str, None] = {}  # the labels in order of first mention
    edges: set[frozenset[str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if "vertex" in tokens[1:]:
            raise ValueError(f"line {lineno}: 'vertex' is a keyword, not a label")
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: 'vertex' lines take exactly one label")
            verts.setdefault(tokens[1])
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = tokens
        if u == v:
            raise ValueError(f"line {lineno}: loop edge {u!r} {v!r} not allowed")
        verts.setdefault(u)
        verts.setdefault(v)
        edges.add(frozenset((u, v)))
    return Graph(tuple(verts), frozenset(edges))


def parse_graph_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # malformed or nested too deeply
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError("graph JSON needs 'vertices' and 'edges'")
    vertices, edges = data["vertices"], data["edges"]
    if not (isinstance(vertices, list) and isinstance(edges, list) and all(isinstance(e, list) for e in edges)):
        raise ValueError("graph JSON needs 'vertices' as a list and 'edges' as a list of lists")
    return Graph.from_edges(vertices, edges)
