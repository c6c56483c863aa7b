import functools
import random
import time

import pytest
import networkx as nx
from conftest import complex_from_faces, oracle_reduced_betti, oracle_scm, random_graph

from rindep import homology
from rindep.complexes import SimplicialComplex, ind_r, link, pure_skeleton
from rindep.decompose import is_shellable, is_vertex_decomposable
from rindep.graphs import Graph, half_apex_clique, masks_of, path_graph, twin_bridge_paths
from rindep.homology import (
    field_name,
    is_cohen_macaulay,
    is_scm,
    parse_field,
    reduced_homology,
)
from rindep.ideals import CrossCheckError, dual_of_ind, is_vertex_splittable


def fs(*labels):
    return frozenset(labels)


@functools.cache
def chordal_atlas() -> tuple[nx.Graph, ...]:
    """The chordal graphs of networkx's atlas: every chordal graph with 1-7
    vertices, once up to isomorphism."""
    return tuple(g for g in nx.graph_atlas_g()[1:] if nx.is_chordal(g))


def boundary_simplex(n_vertices):
    verts = [chr(97 + i) for i in range(n_vertices)]
    full = frozenset(verts)
    return complex_from_faces(verts, [full - {v} for v in verts])


class TestFieldParsing:
    def test_rationals(self):
        assert parse_field("q") is None
        assert parse_field("Q") is None
        assert field_name(None) == "Q"

    def test_prime_fields(self):
        assert parse_field("gf:2") == 2
        assert parse_field("GF(7)") == 7
        assert field_name(5) == "GF(5)"

    def test_rejects_composite_and_junk(self):
        with pytest.raises(ValueError):
            parse_field("gf:6")
        with pytest.raises(ValueError):
            parse_field("banana")
        with pytest.raises(ValueError, match="unknown field descriptor 'gf:x'"):
            parse_field("gf:x")

    def test_largest_prime_below_2_64_is_accepted_at_once(self):
        start = time.perf_counter()
        assert parse_field("gf:18446744073709551557") == 2**64 - 59
        assert time.perf_counter() - start < 0.5

    # the square of the largest 32-bit prime, and a strong pseudoprime to
    # every prime base up to 23
    @pytest.mark.parametrize("n", [4294967291**2, 3825123056546413051])
    def test_large_composites_are_rejected(self, n):
        with pytest.raises(ValueError, match="not prime"):
            parse_field(f"gf:{n}")

    def test_orders_from_2_64_up_are_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            parse_field("gf:18446744073709551629")

    def test_primality_matches_trial_division_below_3000(self):
        primes = [n for n in range(2, 3000) if all(n % d for d in range(2, int(n**0.5) + 1))]
        assert [n for n in range(-5, 3000) if homology._is_prime(n)] == primes


class TestReducedHomology:
    def test_boundaries_of_simplices_are_spheres(self):
        for n in (3, 4, 5):
            profile = reduced_homology(boundary_simplex(n))
            expected = [0] * n
            expected[n - 1] = 1  # degree n-2 entry; the list starts at degree -1
            assert list(profile.reduced) == expected

    def test_empty_complex(self):
        k = SimplicialComplex(("a",), frozenset({frozenset()}))
        assert reduced_homology(k).reduced == (1,)

    def test_void_complex(self):
        k = SimplicialComplex(("a",), frozenset())
        assert reduced_homology(k).reduced == ()

    def test_beyond_the_guard_raises(self):
        # two triangles among 21 vertices: the faces are few, but the
        # ground set is past the enumeration guard
        ground = [f"v{i}" for i in range(21)]
        k = complex_from_faces(ground, [ground[0:3], ground[3:6]])
        with pytest.raises(ValueError, match="face enumeration over 21 vertices exceeds the guard"):
            reduced_homology(k)

    def test_point_is_acyclic(self):
        k = complex_from_faces("a", ["a"])
        assert not any(reduced_homology(k).reduced)

    def test_two_points(self):
        k = complex_from_faces("ab", [("a",), ("b",)])
        assert reduced_homology(k).betti(0) == 1

    def test_bridge_complexes_are_acyclic_over_both_fields(self):
        for r in (2, 3):
            k = ind_r(twin_bridge_paths(r), r)
            assert not any(reduced_homology(k).reduced)
            assert not any(reduced_homology(k, 2).reduced)

    def test_glued_simplices_are_acyclic(self):
        k = complex_from_faces("abcdef", [("a", "b", "c", "d"), ("c", "d", "e", "f")])
        assert not any(reduced_homology(k).reduced)

    def test_cones_are_acyclic(self):
        rng = random.Random(83)
        for _ in range(10):
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            apex = "apex"
            cone = complex_from_faces(
                tuple(k.ground_set) + (apex,), [f | {apex} for f in k.facets]
            )
            assert not any(reduced_homology(cone).reduced)
            assert not any(reduced_homology(cone, 3).reduced)

    def test_circle_has_first_betti_one(self):
        k = complex_from_faces("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert reduced_homology(k).betti(1) == 1
        assert reduced_homology(k, 2).betti(1) == 1

    def test_ranks_against_dense_oracle(self):
        rng = random.Random(89)
        for _ in range(8):
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            assert list(reduced_homology(k).reduced) == oracle_reduced_betti(k)

    def test_field_consistency_on_sphere_like_complexes(self):
        # complexes coming from decomposable families are torsion free, so
        # the betti numbers agree over Q, GF(2), GF(3)
        rng = random.Random(97)
        checked = 0
        while checked < 10:
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            if not is_vertex_decomposable(k).decomposable:
                continue
            q = reduced_homology(k).reduced
            assert reduced_homology(k, 2).reduced == q
            assert reduced_homology(k, 3).reduced == q
            checked += 1

    def test_fields_agree_on_chordal_graphs(self):
        # Ind_r of a chordal graph is a wedge of spheres, so it has no torsion
        items = 0
        for g in chordal_atlas():
            for r in (1, 2, 3):
                k = ind_r(Graph.from_edges(g.nodes, g.edges), r)
                q = reduced_homology(k).reduced
                assert reduced_homology(k, 2).reduced == q and reduced_homology(k, 3).reduced == q
                items += 1
        assert items == 1593

    def test_shellable_homology_sits_in_facet_dimensions(self):
        from rindep.decompose import is_shellable

        rng = random.Random(193)
        checked = 0
        while checked < 12:
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            if not is_shellable(k).shellable:
                continue
            facet_dims = {len(f) - 1 for f in k.facets}
            profile = reduced_homology(k)
            for degree in range(-1, k.dimension + 1):
                if degree not in facet_dims:
                    assert profile.betti(degree) == 0
            checked += 1


class TestCohenMacaulay:
    def test_simplex_is_cm(self):
        assert is_cohen_macaulay(complex_from_faces("abc", ["abc"])).cohen_macaulay

    def test_non_pure_is_reported_with_reason(self):
        k = complex_from_faces("abc", [("a", "b"), ("c",)])
        rep = is_cohen_macaulay(k)
        assert not rep.cohen_macaulay
        assert rep.reason == "non-pure"
        assert rep.witness_face == fs("c")

    def test_glued_simplices_witness(self):
        k = ind_r(half_apex_clique(2), 3)
        rep = is_cohen_macaulay(pure_skeleton(k, 3))
        assert not rep.cohen_macaulay
        assert rep.witness_face == fs("x1", "x2")
        assert rep.witness_degree == 0

    def test_bridge_top_skeleton_witness(self):
        k = ind_r(twin_bridge_paths(2), 2)
        rep = is_cohen_macaulay(pure_skeleton(k, 3))
        assert not rep.cohen_macaulay
        assert rep.witness_face == fs("1", "4")
        assert rep.witness_degree == 0
        lk = link(pure_skeleton(k, 3), ["1", "4"])
        assert {frozenset(f) for f in lk.facets} == {fs("2", "3"), fs("a", "b")}

    def test_witness_is_first_in_dimension_then_label_order(self):
        # contractible; the links of edge {0,1} and of vertex 5 are both
        # disconnected, and the vertex comes first although its index is larger
        k = complex_from_faces(
            "012345678", [("0", "1", "2", "3"), ("0", "1", "4", "5"), ("5", "6", "7", "8")]
        )
        rep = is_cohen_macaulay(k)
        assert (rep.witness_face, rep.witness_degree) == (fs("5"), 0)
        assert reduced_homology(link(k, ["0", "1"])).betti(0) == 1

    @pytest.mark.parametrize("first", ["w", "u"])
    def test_witness_follows_the_ground_set_not_the_labels(self, first):
        # a chain of three triangles: the links of w and of u are both
        # disconnected, and the one listed first in the ground set is the witness
        others = [v for v in ("w", "u", "x1", "x2", "y1", "z1", "z2") if v != first]
        k = complex_from_faces([first, *others], [("w", "x1", "x2"), ("w", "y1", "u"), ("u", "z1", "z2")])
        rep = is_cohen_macaulay(k)
        assert (rep.cohen_macaulay, rep.witness_face, rep.witness_degree) == (False, fs(first), 0)

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            is_cohen_macaulay(SimplicialComplex(("a",), frozenset()))


class TestSCM:
    def test_half_apex_families(self):
        for r in (2, 3):
            k = ind_r(half_apex_clique(r), r + 1)
            rep = is_scm(k)
            assert not rep.sequentially_cohen_macaulay
            assert rep.failing_dimensions() == [r + 1]
            skeletons = dict(rep.skeletons)
            for m in range(1, r + 1):
                assert skeletons[m].cohen_macaulay
            assert skeletons[r + 1].witness_face == fs("x1", "x2")

    def test_bridge_families(self):
        for r in (2, 3):
            k = ind_r(twin_bridge_paths(r), r)
            rep = is_scm(k)
            assert not rep.sequentially_cohen_macaulay
            assert 2 * r - 1 in rep.failing_dimensions()

    def test_chordal_graph_below_2r_plus_2_vertices(self):
        # the paper's G:r has 2r+2 vertices; at r=3 this 6-vertex chordal
        # graph already fails: its pure 3-skeleton is the tetrahedra 0145 and
        # 1235, and the link of their shared edge 15 is two disjoint edges
        edges = [(int(e[0]), int(e[1])) for e in "02 03 04 05 12 13 23 24 34 45".split()]
        assert nx.is_chordal(nx.Graph(edges))
        k = ind_r(Graph.from_edges(range(6), edges), 3)
        rep = is_scm(k)
        assert not rep.sequentially_cohen_macaulay and rep.failing_dimensions() == [3]
        bad = dict(rep.skeletons)[3]
        assert (bad.witness_face, bad.witness_degree) == (fs("1", "5"), 0)
        assert rep == oracle_scm(k)
        assert is_vertex_decomposable(k).decomposable is False
        assert is_shellable(k).shellable is False

    def test_chordal_graph_on_seven_vertices_at_r4(self):
        # the paper's G:4 has 10 vertices; this chordal graph has 7
        edges = [(int(e[0]), int(e[1])) for e in "01 05 15 16 23 24 26 34 46 56".split()]
        assert nx.is_chordal(nx.Graph(edges))
        k = ind_r(Graph.from_edges(range(7), edges), 4)
        rep = is_scm(k)
        assert not rep.sequentially_cohen_macaulay and rep.failing_dimensions() == [4]
        bad = dict(rep.skeletons)[4]
        assert (bad.witness_face, bad.witness_degree) == (fs("0", "3"), 1)
        assert rep == oracle_scm(k)

    def test_smaller_chordal_graphs_are_scm_at_r4_and_r5(self):
        # no chordal graph on at most 6 vertices has a non-SCM Ind_4, and
        # none on at most 7 a non-SCM Ind_5 (networkx's atlas, the empty
        # graph left out)
        checked = {4: 0, 5: 0}
        for g in nx.graph_atlas_g()[1:]:
            if not nx.is_chordal(g):
                continue
            for r in (4, 5) if g.number_of_nodes() <= 6 else (5,):
                k = ind_r(Graph.from_edges(g.nodes, g.edges), r)
                assert is_scm(k).sequentially_cohen_macaulay
                checked[r] += 1
        assert checked == {4: 138, 5: 531}

    def test_chordal_atlas_is_vd_exactly_when_shellable_exactly_when_scm(self):
        # every chordal graph on 1-7 vertices at r = 1..5: VD, shellability
        # and SCM agree on all 2,655 items.  The 23 non-SCM items lie at
        # r = 2..4; the smallest at r = 2 and 3 have 6 vertices (G:2 at r=2,
        # the graph pinned by test_chordal_graph_below_2r_plus_2_vertices at
        # r=3), those at r = 4 all have 7, and none is at r = 1 or 5
        graphs = chordal_atlas()
        failing = {r: [] for r in range(1, 6)}
        for g in graphs:
            for r in failing:
                k = ind_r(Graph.from_edges(g.nodes, g.edges), r)
                scm = is_scm(k).sequentially_cohen_macaulay
                assert is_vertex_decomposable(k).decomposable is is_shellable(k).shellable is scm
                if not scm:
                    failing[r].append(g)
        assert len(graphs) == 531
        sizes = {r: [g.number_of_nodes() for g in failing[r]] for r in failing}
        assert sizes == {1: [], 2: [6] + [7] * 5, 3: [6] + [7] * 7, 4: [7] * 9, 5: []}
        g2 = twin_bridge_paths(2)
        assert nx.is_isomorphic(failing[2][0], nx.Graph([tuple(e) for e in g2.edges]))
        r3_pin = nx.Graph([(e[0], e[1]) for e in "02 03 04 05 12 13 23 24 34 45".split()])
        assert nx.is_isomorphic(failing[3][0], r3_pin)

    def test_chordal_graph_on_eight_vertices_at_r5(self):
        # the paper's G:5 has 12 vertices; this chordal graph has 8, and of
        # the 98 chordal graphs on 8 vertices with a non-SCM Ind_5 it is one
        # of the three with the fewest edges, 11
        edges = [(int(e[0]), int(e[1])) for e in "03 04 12 13 14 25 26 34 56 57 67".split()]
        assert nx.is_chordal(nx.Graph(edges))
        g = Graph.from_edges(range(8), edges)
        k = ind_r(g, 5)
        rep = is_scm(k)
        assert not rep.sequentially_cohen_macaulay and rep.failing_dimensions() == [5]
        bad = dict(rep.skeletons)[5]
        assert (bad.witness_face, bad.witness_degree) == (fs("0", "7"), 2)
        assert rep == oracle_scm(k)
        assert is_vertex_decomposable(k).decomposable is False
        assert is_shellable(k).shellable is False
        for r in (2, 3, 4):
            assert is_scm(ind_r(g, r)).sequentially_cohen_macaulay

    def test_ten_vertex_graph_with_non_scm_ind_3(self):
        # the SCM test refutes this Ind_3 where the shelling search runs out
        # of budget: only the pure 3-skeleton fails, through the empty face
        edges = "01 02 03 04 05 06 07 09 12 17 19 23 25 28 29 36 38 39 45 46 47 67 68 69 78 89"
        g = Graph.from_edges(range(10), edges.split())
        k = ind_r(g, 3)
        assert sorted(len(f) for f in k.facets) == [3] * 39 + [4] * 30 + [5] * 7
        rep = is_scm(k)
        assert not rep.sequentially_cohen_macaulay and rep.failing_dimensions() == [3]
        bad = dict(rep.skeletons)[3]
        assert (bad.witness_face, bad.witness_degree) == (frozenset(), 2)
        assert rep == oracle_scm(k)
        assert is_vertex_decomposable(k).decomposable is False
        assert is_vertex_splittable(dual_of_ind(g, 3, k)).splittable is False

    def test_chordal_atlas_counts_are_a048192(self):
        sizes = [g.number_of_nodes() for g in chordal_atlas()]
        assert [sizes.count(n) for n in range(1, 8)] == [1, 2, 4, 10, 27, 94, 393]

    def test_smallest_chordal_graphs_with_non_scm_ind_2_and_ind_3(self):
        # every chordal graph on at most 5 vertices is SCM at r=2 and 3; on 6
        # one fails at each: G:2 at r=2, the graph pinned by
        # test_chordal_graph_below_2r_plus_2_vertices at r=3
        failing = {2: [], 3: []}
        for g in chordal_atlas():
            if g.number_of_nodes() > 6:
                continue
            for r in (2, 3):
                if not is_scm(ind_r(Graph.from_edges(g.nodes, g.edges), r)).sequentially_cohen_macaulay:
                    failing[r].append(g)
        assert [g.number_of_nodes() for r in (2, 3) for g in failing[r]] == [6, 6]
        g2 = twin_bridge_paths(2)
        assert nx.is_isomorphic(failing[2][0], nx.Graph([tuple(e) for e in g2.edges]))
        r3_pin = nx.Graph([(e[0], e[1]) for e in "02 03 04 05 12 13 23 24 34 45".split()])
        assert nx.is_isomorphic(failing[3][0], r3_pin)

    def test_decomposable_complexes_are_scm(self):
        rng = random.Random(101)
        checked = 0
        while checked < 10:
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            if not is_vertex_decomposable(k).decomposable:
                continue
            assert is_scm(k).sequentially_cohen_macaulay
            checked += 1

    def test_zero_dimensional_is_trivially_scm(self):
        k = complex_from_faces("ab", [("a",), ("b",)])
        rep = is_scm(k)
        assert rep.sequentially_cohen_macaulay and rep.skeletons == ()

    def test_skeleton_with_its_own_facets_is_computed(self):
        # the 2-skeleton, a triangle, is CM; the 1-skeleton adds the facet
        # {d, e}, which disconnects it, so it must not be inferred from above
        k = complex_from_faces("abcde", [("a", "b", "c"), ("d", "e")])
        rep = is_scm(k)
        assert rep.failing_dimensions() == [1]
        assert dict(rep.skeletons)[1].witness_face == frozenset()


class TestLinkMemo:
    """Pinned counts of link eliminations, the misses of ``_betti``'s cache,
    which the conftest clears before each test.  In the pure m-skeleton a
    face F with j = m - |F| > 0 is tested through the complex generated by
    the facets of its link of dimension at least j, which has the same
    homology below degree j, so a pure link is eliminated once for all
    skeletons; a face whose generators share a vertex has a cone and is
    skipped.  Each distinct generated complex up to an order-preserving
    relabelling is eliminated once per process, and skeletons inferred from
    the one above are not eliminated at all, so a repeated call, or a CM
    check after the SCM check of the same pure complex, eliminates
    nothing."""

    @pytest.mark.parametrize(
        "k, calls",
        [(ind_r(path_graph(12), 2), 265), (ind_r(twin_bridge_paths(4), 4), 102)],
        ids=["path12-r2", "G4-r4"],
    )
    def test_betti_calls_per_scm_call(self, k, calls):
        first = is_scm(k)
        assert homology._betti.cache_info().misses == calls
        assert is_scm(k) == first
        assert homology._betti.cache_info().misses == calls

    def test_cm_after_scm_of_a_pure_complex_eliminates_nothing(self):
        k = ind_r(path_graph(8), 3)
        assert k.is_pure()
        scm = is_scm(k)
        eliminations = homology._betti.cache_info().misses
        assert eliminations > 0
        assert is_cohen_macaulay(k) == dict(scm.skeletons)[k.dimension]
        assert homology._betti.cache_info().misses == eliminations


@pytest.fixture
def columns_built(monkeypatch):
    """A one-item list that counts the boundary columns built from here on."""
    count = [0]
    build = homology._boundary_columns

    def counting(lower, upper, link):
        count[0] += len(upper)
        return build(lower, upper, link)

    monkeypatch.setattr(homology, "_boundary_columns", counting)
    return count


class TestBoundaryColumns:
    """Pinned counts of boundary columns built.  Each complex is eliminated
    as the pair (K - v, lk v), so only the faces of K - v outside lk v get
    a column; eliminating every face would build 48,152 and 10,670
    columns."""

    @pytest.mark.parametrize(
        "call, columns",
        [
            (lambda: is_scm(ind_r(path_graph(12), 2)), 6131),
            (lambda: reduced_homology(ind_r(path_graph(14), 3)), 401),
        ],
        ids=["scm-path12-r2", "homology-path14-r3"],
    )
    def test_columns_per_call(self, columns_built, call, columns):
        call()
        assert columns_built == [columns]


def _star_vertex(k) -> str:
    """The vertex whose star the elimination takes: the lowest of those in
    the most faces of top size."""
    tops = [f for f in k.facets if len(f) == k.dimension + 1]
    return max(k.ground_set, key=lambda v: sum(v in f for f in tops))


class TestRelativeElimination:
    """Homology relative to a vertex star, on the cases where the star is
    small, absent or a whole component, each against the dense oracle over
    the whole complex."""

    @pytest.mark.parametrize(
        "k",
        [
            SimplicialComplex(("a",), frozenset({frozenset()})),
            complex_from_faces("a", ["a"]),
            complex_from_faces("abcde", ["abc", "de"]),
            complex_from_faces("abcdef", ["abc", "de", "f"]),
            boundary_simplex(4),
            boundary_simplex(5),
            complex_from_faces("abcx", ["abx", "cx"]),
            complex_from_faces("abcdx", ["abx", "bcx", "dx"]),
            complex_from_faces("abcdx", ["abx", "bcx", "cdx", "dax"]),
        ],
        ids=[
            "empty-face",
            "vertex",
            "disconnected",
            "three-components",
            "hollow-triangle",
            "hollow-tetrahedron",
            "cone-apex-last",
            "cone-two-edges-and-a-point",
            "cone-over-square",
        ],
    )
    @pytest.mark.parametrize("field", [None, 2, 3])
    def test_edge_cases_match_dense_oracle(self, k, field):
        assert list(reduced_homology(k, field).reduced) == oracle_reduced_betti(k, field)

    def test_disconnected_star_covers_one_component(self):
        k = complex_from_faces("abcde", ["abc", "de"])
        assert _star_vertex(k) == "a"
        assert reduced_homology(k).reduced == (0, 1, 0, 0)

    @pytest.mark.parametrize(
        "k", [complex_from_faces("abcx", ["abx", "cx"]), complex_from_faces("abcdx", ["abx", "bcx", "dx"])]
    )
    def test_cone_with_another_vertex_chosen_is_eliminated_and_acyclic(self, columns_built, k):
        # the apex x lies in every facet, but a lower vertex ties with it, so
        # the star is not the whole cone and some faces are eliminated
        assert _star_vertex(k) != "x"
        assert not any(reduced_homology(k).reduced)
        assert columns_built[0] > 0

    @pytest.mark.parametrize(
        "k",
        [complex_from_faces("abcdef", ["abc", "def"]), ind_r(path_graph(8), 2), ind_r(twin_bridge_paths(3), 3)],
        ids=["two-triangles", "path8-r2", "G3-r3"],
    )
    def test_flipped_sign_fails_the_signed_check(self, monkeypatch, k):
        build = homology._boundary_columns
        flipped = False

        def flip_one(lower, upper, link):
            nonlocal flipped
            cols = build(lower, upper, link)
            col = next((c for c in cols if len(c) > 1), None)
            if col is not None and not flipped:
                row = min(col)
                col[row] = -col[row]
                flipped = True
            return cols

        monkeypatch.setattr(homology, "_boundary_columns", flip_one)
        with pytest.raises(CrossCheckError, match="boundary of boundary is nonzero"):
            reduced_homology(k)
        assert flipped

    @pytest.mark.parametrize(
        "ground, generators",
        [
            ("abcde", ["abc", "ab", "c", "de", "d"]),
            ("abcdef", ["abc", "abc", "de", "de", "f"]),
            ("abc", ["ab", "bc", "ca", "ab", "a", "b"]),
            ("abcx", ["abx", "cx", "bx", "x"]),
            ("abcdx", ["abx", "bcx", "dx", "bcx", "ax"]),
        ],
        ids=["faces-beside-facets", "duplicates", "hollow-triangle", "cone", "cone-two-edges-and-a-point"],
    )
    @pytest.mark.parametrize("field", [None, 2, 3])
    def test_redundant_generators_match_dense_oracle(self, ground, generators, field):
        # a face listed beside its facet, or twice, generates nothing new; in
        # the cones a lower vertex ties with the apex x, so v is not x
        k = complex_from_faces(ground, generators)
        assert _star_vertex(k) != "x"
        masks = tuple(masks_of(tuple(ground), generators))
        assert list(homology._betti(masks, field)) == oracle_reduced_betti(k, field)

    @pytest.mark.parametrize(
        "k",
        [boundary_simplex(4), ind_r(path_graph(8), 2), ind_r(twin_bridge_paths(3), 3)],
        ids=["hollow-tetrahedron", "path8-r2", "G3-r3"],
    )
    def test_no_face_through_the_star_vertex_is_enumerated(self, monkeypatch, k):
        listed = []
        enumerate_faces = homology.submasks

        def recording(generators):
            faces = enumerate_faces(generators)
            listed.extend(faces)
            return faces

        monkeypatch.setattr(homology, "submasks", recording)
        reduced_homology(k)
        v = 1 << k.ground_set.index(_star_vertex(k))
        assert listed and not any(f & v for f in listed)
