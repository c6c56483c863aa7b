"""Property tests of the bitmask kernel and the searches against
brute-force oracles and the public API and verifiers, a fuzz test of the
CLI's exit codes, and byte-stability of reports across hash seeds and jobs
and against pinned digests."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import networkx as nx
from conftest import (
    alexander_dual_ideal,
    complex_from_faces,
    deletion_facets,
    faces_by_dimension,
    faces_of,
    is_simplicial_vertex,
    is_zero,
    minimal_nonfaces,
    oracle_chordality,
    oracle_cm,
    oracle_ind_r_facets,
    oracle_minimal_covers,
    oracle_plain_shelling,
    oracle_reduced_betti,
    oracle_scm,
    oracle_split,
    oracle_vd,
    oracle_verify_shedding,
    oracle_verify_split,
    reduced_hypergraph,
    stanley_reisner,
    to_networkx,
    ZeroIdealRejected,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rindep.cli import main
from rindep.complexes import (
    SimplicialComplex,
    f_vector,
    ind_r,
    link,
    maximal_sets,
    pure_skeleton,
)
from rindep.decompose import (
    _sheds_sets,
    is_shellable,
    is_vertex_decomposable,
    verify_shedding_certificate,
    verify_shelling_certificate,
)
from rindep.graphs import Graph, bits, complete_graph, star_graph
from rindep.homology import _relabelled, is_cohen_macaulay, is_scm, reduced_homology
from rindep.hypergraphs import (
    DEFAULT_MINOR_BUDGET,
    con_r,
    is_chordal_hypergraph,
    minimal_vertex_covers,
)
from rindep.ideals import facet_dual, is_vertex_splittable, verify_split_certificate

SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_vertices=9):
    n = draw(st.integers(1, max_vertices))
    verts = [str(i) for i in range(1, n + 1)]
    pairs = list(itertools.combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(verts, [p for p, k in zip(pairs, keep) if k])


radii = st.integers(1, 3)


@st.composite
def _subsets(draw, min_vertices, max_vertices, min_size):
    """A vertex list and up to eight subsets of it."""
    n = draw(st.integers(min_vertices, max_vertices))
    verts = [chr(97 + i) for i in range(n)]
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=min_size, max_size=8))
    return verts, [[v for i, v in enumerate(verts) if m >> i & 1] for m in masks]


# simple hypergraphs (minimal edges kept) and complexes (maximal faces kept)
hypergraphs = _subsets(0, 7, 0).map(lambda vs: reduced_hypergraph(*vs))
antichain_complexes = _subsets(1, 7, 1).map(lambda vs: complex_from_faces(*vs))


@st.composite
def _scrambled_complexes(draw):
    """Antichain complexes on labels whose string order differs from their
    index order ("10" sorts before "2")."""
    verts, subsets = draw(_subsets(1, 7, 1))
    labels = draw(st.permutations([str(i) for i in range(2, 14)]))[: len(verts)]
    relabel = dict(zip(verts, labels))
    return complex_from_faces(labels, [[relabel[v] for v in s] for s in subsets])


con_r_of_graphs = st.builds(con_r, graphs(8), radii)
complexes = st.one_of(antichain_complexes, st.builds(ind_r, graphs(8), radii))
minor_budgets = st.one_of(st.just(DEFAULT_MINOR_BUDGET), st.integers(1, 50))


@SETTINGS
@given(graphs(), radii)
def test_ind_r_facets_match_power_set_oracle(g, r):
    assert set(ind_r(g, r).facets) == oracle_ind_r_facets(g, r)


@SETTINGS
@given(graphs(), st.integers(1, 4))
def test_con_r_edges_are_the_connected_subsets(g, r):
    """ESU growth finds exactly the (r+1)-subsets that networkx calls
    connected."""
    nxg = to_networkx(g)
    connected = {
        frozenset(c)
        for c in itertools.combinations(g.vertices, r + 1)
        if nx.is_connected(nxg.subgraph(c))
    }
    assert set(con_r(g, r).edges) == connected


@SETTINGS
@given(graphs(12), st.integers(1, 5))
@example(Graph((), frozenset()), 1)
@example(Graph.from_edges("abc", []), 2)
@example(complete_graph(5), 1)
@example(complete_graph(5), 5)
@example(star_graph(6), 2)
def test_maximal_sets_emits_each_set_once(g, r):
    """The pivoted search reaches each facet through one branch only: on
    edgeless graphs, where each branch set is the pivot alone; on cliques at
    both ends of r; and on a star, whose nodes that hold the centre have no
    pivot and branch on every undecided vertex."""
    found = maximal_sets(g.neighbour_masks, r)
    assert len(found) == len(set(found))


@SETTINGS
@given(_subsets(0, 8, 0).map(lambda vs: reduced_hypergraph(*vs)))
@example(reduced_hypergraph("abc", []))
@example(reduced_hypergraph("ab", [()]))
@example(reduced_hypergraph("abcdef", ["a", "bc", "cde", "bd"]))
def test_minimal_vertex_covers_match_power_set_oracle(h):
    """Berge's rule on clutters with edges of mixed sizes, no edges, the
    empty edge and vertices in no edge."""
    assert minimal_vertex_covers(h) == oracle_minimal_covers(h.vertices, h.edges)


@SETTINGS
@given(_subsets(0, 8, 0).map(lambda vs: complex_from_faces(*vs)))
@example(SimplicialComplex(("a", "b"), frozenset()))
@example(complex_from_faces("ab", [()]))
@example(complex_from_faces("abcde", ["abc", "cd"]))
def test_minimal_nonfaces_match_definition(k):
    """The covers of the facet complements are the sets that are not faces
    while every set one vertex smaller is: on the void complex, on the
    complex whose one face is empty and with vertices in no facet."""
    faces = faces_of(k)
    subsets = [frozenset(c) for n in range(len(k.ground_set) + 1)
               for c in itertools.combinations(k.ground_set, n)]
    assert minimal_nonfaces(k) == {
        s for s in subsets if s not in faces and all(s - {v} in faces for v in s)
    }


@SETTINGS
@given(_subsets(0, 8, 0).map(lambda vs: complex_from_faces(*vs)))
@example(SimplicialComplex(("a", "b"), frozenset()))
@example(SimplicialComplex((), frozenset({frozenset()})))
@example(complex_from_faces("ab", [()]))
@example(complex_from_faces("abcd", ["ac"]))
@example(complex_from_faces("abc", ["abc"]))
def test_facet_dual_is_the_dual_of_the_stanley_reisner_ideal(k):
    """The facet complements are the minimal vertex covers of the minimal
    non-faces, vertices in no facet included, and both routes reject the
    void complex (no ideal), in one message, and a simplex on its whole
    ground set (the zero ideal)."""
    try:
        expected = alexander_dual_ideal(stanley_reisner(k))
    except ValueError as exc:
        try:
            facet_dual(k)
        except ValueError as got:
            if isinstance(exc, ZeroIdealRejected):
                assert "zero Stanley-Reisner ideal" in str(got)
            else:
                assert str(got) == str(exc)
        else:
            raise AssertionError("facet_dual took a dual the other route rejects")
        return
    assert facet_dual(k) == expected


@SETTINGS
@given(graphs(7), radii)
def test_rational_betti_match_dense_oracle_and_bound_prime_fields(g, r):
    k = ind_r(g, r)
    q = reduced_homology(k).reduced
    assert list(q) == oracle_reduced_betti(k)
    for p in (2, 3):
        mod_p = reduced_homology(k, p).reduced
        assert len(mod_p) == len(q)
        assert all(a <= b for a, b in zip(q, mod_p))


@SETTINGS
@given(graphs(8), radii)
def test_betti_alternating_sum_is_euler_characteristic(g, r):
    k = ind_r(g, r)
    betti = reduced_homology(k).reduced
    faces = f_vector(k)
    assert sum((-1) ** i * b for i, b in enumerate(betti)) == sum(
        (-1) ** i * f for i, f in enumerate(faces)
    )


def _link_fails(k, face) -> int | None:
    """First degree below the link's dimension with nonzero homology,
    through the public link and homology functions."""
    lk = link(k, face)
    profile = reduced_homology(lk)
    return next((d for d in range(-1, lk.dimension) if profile.betti(d)), None)


def _recheck_cm(k, rep):
    if rep.reason == "non-pure":
        assert not k.is_pure()
        assert rep.witness_face in k.facets
        assert len(rep.witness_face) == min(len(f) for f in k.facets)
        return
    assert rep.reason == "link-homology"
    # every face before the witness in (dimension, label) order passes
    for faces in faces_by_dimension(k).values():
        for face in faces:
            if face == rep.witness_face:
                assert _link_fails(k, face) == rep.witness_degree
                return
            assert _link_fails(k, face) is None
    raise AssertionError("witness is not a face")


@SETTINGS
@given(graphs(8), radii)
def test_false_cm_witnesses_recheck_through_links(g, r):
    k = ind_r(g, r)
    rep = is_cohen_macaulay(k)
    if not rep.cohen_macaulay:
        _recheck_cm(k, rep)
    for m, skeleton_rep in is_scm(k).skeletons:
        if not skeleton_rep.cohen_macaulay:
            _recheck_cm(pure_skeleton(k, m), skeleton_rep)


@settings(SETTINGS, max_examples=250)
@given(complexes, st.sampled_from([None, 2, 3]))
def test_link_memo_and_skeleton_inference_match_unmemoized_oracle(k, field):
    assert is_cohen_macaulay(k, field) == oracle_cm(k, field)
    assert is_scm(k, field) == oracle_scm(k, field)


@SETTINGS
@given(st.lists(st.integers(1, (1 << 10) - 1), min_size=1, max_size=8, unique=True), st.data())
def test_link_memo_key_puts_the_support_on_the_low_bits_in_order(facets, data):
    """The key of a facet list sends the j-th vertex of its support to bit j
    and sorts; a relabel that keeps the vertex order keeps the key."""
    support = sorted({i for f in facets for i in bits(f)})
    rank = {v: j for j, v in enumerate(support)}
    key = _relabelled(facets)
    assert key == tuple(sorted(sum(1 << rank[i] for i in bits(f)) for f in facets))
    targets = sorted(data.draw(st.sets(st.integers(0, 40), min_size=len(support), max_size=len(support))))
    moved = [sum(1 << targets[rank[i]] for i in bits(f)) for f in facets]
    assert _relabelled(moved) == key


@SETTINGS
@given(complexes)
def test_skeleton_homology_below_top_is_that_of_the_facets_reaching_it(k):
    """The pure j-skeleton and the complex generated by the facets of
    dimension at least j share their j-skeleton, so their homology agrees
    in degrees below j; the Reisner loop tests links through the latter."""
    for j in range(k.dimension + 1):
        skeleton = pure_skeleton(k, j)
        tall = SimplicialComplex(k.ground_set, frozenset(f for f in k.facets if len(f) > j))
        assert oracle_reduced_betti(skeleton)[: j + 1] == list(reduced_homology(tall).reduced[: j + 1])
        mod2 = reduced_homology(skeleton, 2).reduced[: j + 1]
        assert mod2 == reduced_homology(tall, 2).reduced[: j + 1]


@SETTINGS
@given(complexes, st.sampled_from([None, 2]))
def test_inferred_skeletons_are_cohen_macaulay_when_computed(k, field):
    # is_scm infers skeleton m when k has no m-dimensional facet and
    # skeleton m + 1 is Cohen-Macaulay
    sizes = {len(f) for f in k.facets}
    verdicts = dict(is_scm(k, field).skeletons)
    for m in verdicts:
        if m + 1 not in sizes and m + 1 in verdicts and verdicts[m + 1].cohen_macaulay:
            assert is_cohen_macaulay(pure_skeleton(k, m), field).cohen_macaulay


@settings(SETTINGS, max_examples=250)
@given(st.one_of(hypergraphs, con_r_of_graphs), minor_budgets)
def test_minor_search_matches_labelled_oracle(h, budget):
    assert is_chordal_hypergraph(h, budget) == oracle_chordality(h, budget)


@SETTINGS
@given(st.one_of(hypergraphs, con_r_of_graphs))
def test_false_chordality_witness_has_no_simplicial_vertex(h):
    res = is_chordal_hypergraph(h)
    assert res.chordal is not None
    if res.chordal is False:
        w = res.witness
        assert w.vertices and not any(is_simplicial_vertex(w, v) for v in w.vertices)
        assert set(w.vertices) <= set(h.vertices)


@settings(SETTINGS, max_examples=250)
@given(
    st.one_of(_scrambled_complexes(), st.builds(ind_r, graphs(8), radii)),
    st.one_of(st.none(), st.integers(1, 50)),
    st.booleans(),
)
def test_certificate_search_matches_labelled_oracles(k, budget, reverse):
    if reverse:  # same facets; both searches visit the vertices in reverse
        k = SimplicialComplex(tuple(reversed(k.ground_set)), k.facets)
    kw = {} if budget is None else {"budget": budget}
    vd = is_vertex_decomposable(k, **kw)
    assert vd == oracle_vd(k, **kw)
    sr = stanley_reisner(k)
    # "!" sorts before every label, so this vertex in no facet is the first
    # pivot, and every generator of the dual holds it
    ghosted = facet_dual(SimplicialComplex(("!",) + k.ground_set, k.facets))
    for i in ([sr] if is_zero(sr) else [sr, alexander_dual_ideal(sr)]) + [ghosted]:
        assert is_vertex_splittable(i, **kw) == oracle_split(i, **kw)


@SETTINGS
@given(complexes)
def test_vd_implies_shellable_implies_scm_and_certificates_verify(k):
    vd = is_vertex_decomposable(k)
    sh = is_shellable(k)
    if vd.decomposable:
        assert sh.shellable is True
        assert verify_shedding_certificate(k, vd.certificate)
    if sh.shellable:
        assert verify_shelling_certificate(k, sh.order)
        assert is_scm(k).sequentially_cohen_macaulay
    sr = stanley_reisner(k)
    if not is_zero(sr):
        dual = alexander_dual_ideal(sr)
        split = is_vertex_splittable(dual)
        if split.splittable:
            assert verify_split_certificate(dual, split.certificate)


@SETTINGS
@given(complexes)
def test_link_rule_keeps_the_plain_search_verdict_and_order(k):
    sh, plain = is_shellable(k), oracle_plain_shelling(k)
    assert (sh.shellable, sh.order) == (plain.shellable, plain.order)
    if plain.shellable and plain.explored == len(k.facets) + 1:  # never backtracked
        assert sh.explored == plain.explored


@SETTINGS
@given(graphs(8), radii)
def test_chordal_con_r_implies_shellable_ind_r(g, r):
    # Ind_r(G) is the independence complex of con_r(G), and the independence
    # complex of a chordal clutter is shellable (Woodroofe)
    if is_chordal_hypergraph(con_r(g, r)).chordal:
        assert is_shellable(ind_r(g, r)).shellable is True


def _preorder(cert) -> list:
    nodes, stack = [], [cert]
    while stack:
        nodes.append(stack.pop())
        if nodes[-1].branch is not None:
            stack += [nodes[-1].second, nodes[-1].first]
    return nodes


def replace(node, **changes):
    """A copy of the certificate node ``node`` with ``changes`` to its fields."""
    fields = {"sets": node.sets, "branch": node.branch, "first": node.first, "second": node.second, **changes}
    return type(node)(*fields.values())


def _replaced(node, target, new):
    """``node`` with every occurrence of the subtree ``target`` replaced by
    ``new``."""
    if node is target:
        return new
    if node.branch is None:
        return node
    first, second = _replaced(node.first, target, new), _replaced(node.second, target, new)
    return replace(node, first=first, second=second)


def _unheld(node, j: int, labels) -> str:
    """A label that no set of ``node`` holds: one of ``labels``, or one
    outside them."""
    free = [v for v in labels if not any(v in s for s in node.sets)] + ["zz"]
    return free[j % len(free)]


def _any(node) -> bool:
    return True


def _inner(node) -> bool:
    return node.branch is not None


def _leaf(node) -> bool:
    return node.branch is None


_MUTATIONS = {  # name: (the nodes it applies to, (node, set index, labels) -> mutated node)
    "children swapped": (_inner, lambda n, j, _: replace(n, first=n.second, second=n.first)),
    "set dropped": (_any, lambda n, j, _: replace(n, sets=n.sets[:j] + n.sets[j + 1 :])),
    "set duplicated": (_any, lambda n, j, _: replace(n, sets=n.sets[: j + 1] + n.sets[j:])),
    "branch held by no set": (
        _inner, lambda n, j, labels: replace(n, branch=_unheld(n, j, labels))
    ),
    "first child missing": (_inner, lambda n, j, _: replace(n, first=None)),
    "second child missing": (_inner, lambda n, j, _: replace(n, second=None)),
    "inner node made a leaf": (
        _inner, lambda n, j, _: replace(n, branch=None, first=None, second=None)
    ),
    "leaf with no set": (_leaf, lambda n, j, _: replace(n, sets=())),
    "leaf with two sets": (
        _leaf, lambda n, j, _: replace(n, sets=tuple(sorted(n.sets + (("zz",),))))
    ),
}


@SETTINGS
@given(complexes, complexes, st.data())
def test_replay_matches_recursive_oracle_verifiers(k, other, data):
    """Both verifiers give the verdicts of the recursive oracles on search
    certificates, against another complex or ideal, and after each mutation
    at a drawn node."""
    cases = []
    vd = is_vertex_decomposable(k)
    if vd.decomposable:
        cert = vd.certificate
        cases.append((verify_shedding_certificate, oracle_verify_shedding, k, other, cert))
    sr = stanley_reisner(k)
    i = sr if is_zero(sr) else alexander_dual_ideal(sr)
    split = is_vertex_splittable(i)
    if split.splittable:
        wrong = stanley_reisner(other)
        cases.append((verify_split_certificate, oracle_verify_split, i, wrong, split.certificate))
    for verify, oracle, target, wrong, cert in cases:
        assert verify(target, cert) and oracle(target, cert)
        assert verify(wrong, cert) == oracle(wrong, cert)
        labels = target.ground_set if verify is verify_shedding_certificate else target.variables
        for applies, mutate in _MUTATIONS.values():
            nodes = [n for n in _preorder(cert) if applies(n)]
            if nodes:
                node = data.draw(st.sampled_from(nodes))
                j = data.draw(st.integers(0, max(len(node.sets) - 1, 0)))
                mutated = _replaced(cert, node, mutate(node, j, labels))
                assert verify(target, mutated) == oracle(target, mutated)


@SETTINGS
@given(complexes)
def test_labelled_shedding_condition_matches_definition(k):
    """Split as the replay splits a family, a vertex sheds when some facet
    holds it and the maximal sets of its deletion are facets; the second
    child, the facets without it, is then that deletion."""
    for v in k.ground_set:
        deletion = deletion_facets(k.facets, v)
        held = [f - {v} for f in k.facets if v in f]
        rest = [f for f in k.facets if v not in f]
        sheds = bool(held) and _sheds_sets(held, rest)
        assert sheds == (any(v in f for f in k.facets) and deletion <= k.facets)
        assert not sheds or frozenset(rest) == deletion


# ---------------------------------------------------------------------------
# CLI fuzz: each subcommand's command line, its flags drawn from pools of
# valid and invalid values over plausible and malformed input files, then
# mutated by inserting and dropping tokens.  Values stay small and --jobs is
# never drawn, so no call is slow or starts processes; free tokens hold no
# digits or dashes, so they cannot form a number or a flag.

_VALUES = {  # flag: (valid values, invalid values)
    "--gen": (["fig1", "path:4", "cycle:5", "star:4", "complete:0", "complete:4",
               "caterpillar:1,2", "H:1", "G:1"],
              ["path:-1", "path:x", "caterpillar:", "nope:3", "H:0", "G:0", "cycle:2"]),
    "--input": (["graph.txt", "graph.json"], ["complex.json", "nofile", "out"]),
    "--complex": (["complex.json"], ["graph.json", "nofile"]),
    "--r": (["1", "2", "3", "1..3"], ["0", "-1", "x", "2..1", "1..", "a..b"]),
    "--n": (["1", "3", "4"], ["0", "11", "-2", "x"]),
    "--family": (["trees", "caterpillars"], ["forests"]),
    "--props": (["vd,shellable", "cm,scm,homology", "splittable", "chordal-hypergraph"],
                ["vd,,", "nope", ""]),
    "--field": (["q", "gf:2"], ["gf:4", "gf:x", "z", ""]),
    "--out": (["out/report"], ["out", "missing/out"]),
    "certificate": (["cert.json"], ["complex.json", "nofile"]),
    **{f"--budget-{b}": (["0", "1", "50"], ["-1", "x", "1.5"])
       for b in ("vd", "shell", "minor", "split")},
}
_OPTIONAL = ("--budget-vd", "--budget-shell", "--budget-minor", "--budget-split",
             "--field", "--out")
_COMMANDS = {  # command: (required flags, optional flags)
    "build": (("--r",), ("--out",)),
    "check": (("--r", "--props"), _OPTIONAL),
    "scan": (("--family", "--n", "--r", "--props"), _OPTIONAL),
    "verify": ((), ()),
}
_PATHS = ("graph.txt", "graph.json", "complex.json", "cert.json", "nofile", "out")

_labels = st.sampled_from("abcd")
_facet_lists = st.lists(st.lists(_labels, max_size=3), max_size=4)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | _labels,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["vertices", "edges", "ground_set", "facets", "order", "vertex",
                         "link", "del"]),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)
_shedding = st.recursive(
    st.fixed_dictionaries({"facets": _facet_lists}),
    lambda inner: st.fixed_dictionaries(
        {"facets": _facet_lists, "vertex": _labels, "link": inner, "del": inner}
    ),
    max_leaves=4,
)


def _json_file(*plausible):
    return st.one_of(*plausible, *plausible, _json_values, st.binary(max_size=20)).map(
        lambda v: v if isinstance(v, bytes) else json.dumps(v).encode()
    )


_files = st.fixed_dictionaries({
    "graph.txt": st.one_of(
        st.lists(st.sampled_from(["a b", "b c", "c d", "vertex d", "a a", "a", "# x", ""]),
                 max_size=5).map(lambda lines: "\n".join(lines).encode()),
        st.binary(max_size=20),
    ),
    "graph.json": _json_file(st.fixed_dictionaries({
        "vertices": st.lists(_labels, max_size=4),
        "edges": st.lists(st.lists(_labels, min_size=1, max_size=3), max_size=4),
    })),
    "complex.json": _json_file(st.fixed_dictionaries({
        "ground_set": st.lists(_labels, max_size=4), "facets": _facet_lists,
    })),
    "cert.json": _json_file(_facet_lists, st.fixed_dictionaries({"order": _facet_lists}),
                            _shedding),
})


def _value(draw, flag):
    valid, invalid = _VALUES[flag]
    return draw(st.sampled_from(valid if draw(st.integers(0, 7)) else invalid))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    argv = [command]
    if command == "verify":
        argv += [_value(draw, "--complex"), _value(draw, "certificate")]
    elif command != "scan":
        source = draw(st.sampled_from(["--gen", "--input", "--complex"][: 2 + (command == "check")]))
        argv += [source, _value(draw, source)]
        if source == "--complex":  # a complex file takes no --r
            required = required[1:]
    for flag in required:
        argv += [flag, _value(draw, flag)]
    for flag in optional:
        if draw(st.integers(0, 3)) == 0:
            argv += [flag, _value(draw, flag)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(1, len(argv)))
        if draw(st.booleans()) and at < len(argv):
            del argv[at]
        else:
            token = draw(st.one_of(
                st.sampled_from([f for f in sorted(_VALUES) if f.startswith("--")]),
                st.sampled_from(_PATHS),
                st.text("abxyz:,.{}[]\" ", max_size=8),
            ))
            argv.insert(at, token)
    return argv


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs(), _files)
def test_cli_returns_only_documented_exit_codes(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        Path(tmp, "out").mkdir()  # writing a report onto a directory fails
        paths = {a: str(Path(tmp, a)) for a in (*_PATHS, "out/report", "missing/out")}
        argv = [paths.get(a, a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                assert exc.code == 2
                return
    assert code in (0, 1, 2, 3, 4)


_HASH_REPORTS = """
import contextlib, hashlib, io, json
from rindep.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    text = out.getvalue()
    if argv[0] == "check":
        report = json.loads(text)
        report.pop("timings")
        text = json.dumps(report)
    return hashlib.sha256(text.encode()).hexdigest()

def fail(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        main(argv)
    return err.getvalue()

props = "vd,shellable,cm,scm,homology,splittable,chordal-hypergraph"
scan = ["scan", "--family", "trees", "--n", "6", "--r", "1..3", "--props", props]
print(json.dumps({
    "G:3": run(["check", "--gen", "G:3", "--r", "3", "--props", props]),
    "H:2": run(["check", "--gen", "H:2", "--r", "3", "--props", props]),
    "scan": run(scan + ["--jobs", "1"]),
    "scan-jobs-2": run(scan + ["--jobs", "2"]),
    "ghost": run(["check", "--complex", "ghost.json", "--props", "splittable,vd"]),
    "simplex-ghost": run(["check", "--complex", "simplex-ghost.json", "--props", "splittable,vd"]),
    "empty": run(["check", "--complex", "empty.json", "--props", "splittable,vd"]),
    "cycle:12": run(["check", "--gen", "cycle:12", "--r", "2", "--props", "cm,scm"]),
    "G:4": run(["check", "--gen", "G:4", "--r", "4", "--props", "homology,scm"]),
    "build-G:3": run(["build", "--gen", "G:3", "--r", "2"]),
    "scan-vd-n10": run(["scan", "--family", "trees", "--n", "10", "--r", "1", "--props", "vd"]),
    "G:4-chordal": run(["check", "--gen", "G:4", "--r", "2", "--props", "chordal-hypergraph"]),
    "scan-homology-n9": run(["scan", "--family", "trees", "--n", "9", "--r", "1..3", "--props", "cm,scm,homology"]),
    "nested-facet": fail(["check", "--complex", "nested.json", "--props", "vd"]),
    "unknown-facet": fail(["check", "--complex", "unknown.json", "--props", "vd"]),
    "unknown-edge": fail(["build", "--input", "unknown-edge.json", "--r", "1"]),
}))
"""

# complex files, whose dual ideal keeps the vertices in no facet ("ghosts"):
# "g" here, "b" and "d" beside a single facet, and both vertices of the
# empty complex
_COMPLEX_FILES = {
    "ghost.json": {"ground_set": list("abcdefg"), "facets": [list(f) for f in ("abc", "bcd", "de", "ae", "af")]},
    "simplex-ghost.json": {"ground_set": list("abcd"), "facets": [["a", "c"]]},
    "empty.json": {"ground_set": ["a", "b"], "facets": [[]]},
}

# inputs rejected with several offenders; the message names the least by
# sorted labels, whatever the hash seed
_REJECTED_FILES = {
    "nested.json": {"ground_set": list("abcd"), "facets": [["a"], ["b"], ["c"], list("abcd")]},
    "unknown.json": {"ground_set": list("ab"), "facets": [["a", "x"], ["b", "y"], ["z"]]},
    "unknown-edge.json": {"vertices": ["a", "b"], "edges": [["a", "x"], ["b", "y"], ["c", "z"]]},
}

# SHA-256 of each report above (without ``timings``), taken before minimal
# covers moved to Berge's rule, for the two false SCM verdicts before the
# Reisner loop kept only the facets a skeleton needs, and for the single facet
# and the empty complex before complex files took the facet-complement dual,
# and for the ``build`` of G:3 (ground order 1,2,3,a,b,4,5,6, not string
# order) and the n<=10 tree scan (labels past "9") before faces and edges
# were ordered by their masks, and for the chordality of G:4 at r=2 (witness
# six levels deep) before the minor search skipped (deleted, contracted)
# pairs it had generated, and for the n<=9 homology tree scan before link
# Betti numbers were cached for the process; a change to any report byte
# fails here.  The last three are the stderr of rejected inputs
_PINNED = {
    "G:3": "4458f2b02dc4b796f211faf3ca43014ab8557e1c0a181970f7f9975e40497a4d",
    "H:2": "abbc178dd4a6612fa4643794e74828fd0a545fd8da1b6f78eb6e8bba805fe4bc",
    "scan": "3637994d1e60ca92ae7d2f86d924196bc22297a59394d263116774782162116c",
    "scan-jobs-2": "3637994d1e60ca92ae7d2f86d924196bc22297a59394d263116774782162116c",
    "ghost": "13aed4f8d2c7fafa7afaa452f7a46182b054958bb2a2544eb0a9d00afa80c7e4",
    "simplex-ghost": "229fe976478112925bc9b430a1e731c63d18492819a1af0afd4ff5a3e76b3554",
    "empty": "316b9e6648acaf86abcde4e16bcf2ec66b84653aa45fb32f5acb68123ff4b934",
    "cycle:12": "46be31b0ca85242e979502a37520029c89b3fd5d5a5816f77170af400c804ec2",
    "G:4": "0353b6613af66c9ce45a20b2bb10f774654a2aa5e68ba1e023cc48f93661fd2d",
    "build-G:3": "33a2152f3f84d5fae00bd7f75b11df9eaf9107db19d65be1dc2a90cd288d46cd",
    "scan-vd-n10": "c89e908a27ee711bafe7b245a81373ecf265db49c7648ca87c3b6fa7d93d5554",
    "G:4-chordal": "4402919a62a989a5d1b80f23bd4a1806efd92f25f75bbce7de88420a7a03ba13",
    "scan-homology-n9": "3df6f7affbb1728450af598195f03f0331695c4f6eb738fbcbe42c2fbcab09f1",
    "nested-facet": "error: facet ['a'] lies inside another facet\n",
    "unknown-facet": "error: facet ['a', 'x'] uses unknown labels\n",
    "unknown-edge": "error: edge ['a', 'x'] uses unknown labels\n",
}


def test_reports_identical_across_hash_seeds_and_jobs(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    for name, data in {**_COMPLEX_FILES, **_REJECTED_FILES}.items():
        (tmp_path / name).write_text(json.dumps(data))
    hashes = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _HASH_REPORTS], cwd=tmp_path,
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        hashes.append(json.loads(out))
    assert hashes[0]["scan"] == hashes[0]["scan-jobs-2"]
    assert hashes[0] == hashes[1] == hashes[2]
    assert hashes[0] == _PINNED
