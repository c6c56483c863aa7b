import itertools
import random

import pytest
from conftest import (
    complex_from_faces,
    deletion_facets,
    faces_by_dimension,
    faces_of,
    induced_subgraph,
    is_connected,
    oracle_ind_hypergraph_facets,
    oracle_ind_r_facets,
    oracle_r_independent,
    random_graph,
    reduced_hypergraph,
)

from rindep.complexes import (
    SimplicialComplex,
    complex_from_json_dict,
    f_vector,
    ind_r,
    link,
    pure_skeleton,
)
from rindep.graphs import (
    complete_graph,
    cycle_graph,
    demo_graph,
    half_apex_clique,
    make_caterpillar,
    path_graph,
    star_graph,
    twin_bridge_paths,
)
from rindep.hypergraphs import con_r


def facet_sets(k):
    return {frozenset(f) for f in k.facets}


def fs(*labels):
    return frozenset(labels)


class TestComplexType:
    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), frozenset({fs("a"), fs("a", "b")}))

    def test_conventions(self):
        void = SimplicialComplex(("a",), frozenset())
        empty = SimplicialComplex(("a",), frozenset({frozenset()}))
        point = SimplicialComplex(("a",), frozenset({fs("a")}))
        assert void.is_void and void.dimension is None
        assert empty.facets == frozenset({frozenset()})
        assert empty.is_simplex and empty.dimension == -1
        assert point.is_simplex and point.dimension == 0

    def test_json_round_trip(self):
        k = ind_r(demo_graph(), 2)
        assert complex_from_json_dict(k.to_json_dict()) == k


class TestIndR:
    def test_demo_r1(self):
        k = ind_r(demo_graph(), 1)
        assert facet_sets(k) == {fs("v2", "v3", "v4"), fs("v3", "v4", "v5"), fs("v1", "v5")}

    def test_demo_r2(self):
        k = ind_r(demo_graph(), 2)
        assert facet_sets(k) == {
            fs("v1", "v2"),
            fs("v1", "v3", "v5"),
            fs("v1", "v4", "v5"),
            fs("v2", "v3", "v4", "v5"),
        }

    def test_connected_graph_on_r_plus_one_vertices_gives_boundary(self):
        rng = random.Random(43)
        found = 0
        while found < 10:
            g = random_graph(rng, 3, 5)
            if not is_connected(g):
                continue
            r = len(g) - 1
            k = ind_r(g, r)
            full = frozenset(g.vertices)
            assert facet_sets(k) == {full - {v} for v in g.vertices}
            found += 1

    def test_faces_are_exactly_r_independent_sets(self):
        rng = random.Random(47)
        for _ in range(15):
            g = random_graph(rng, 3, 7)
            for r in (1, 2):
                k = ind_r(g, r)
                faces = faces_of(k)
                for size in range(len(g) + 1):
                    for combo in itertools.combinations(g.vertices, size):
                        s = frozenset(combo)
                        assert (s in faces) == oracle_r_independent(g, s, r)

    def test_facets_match_brute_force(self):
        rng = random.Random(53)
        for _ in range(10):
            g = random_graph(rng, 3, 7)
            for r in (1, 2, 3):
                assert facet_sets(ind_r(g, r)) == oracle_ind_r_facets(g, r)

    def test_nested_in_next_r(self):
        rng = random.Random(59)
        for _ in range(10):
            g = random_graph(rng, 3, 7)
            for r in (1, 2):
                lower = faces_of(ind_r(g, r))
                upper = faces_of(ind_r(g, r + 1))
                assert lower <= upper

    def test_complete_graph_skeleton(self):
        for n, r in ((4, 1), (5, 2), (6, 3)):
            k = ind_r(complete_graph(n), r)
            assert facet_sets(k) == {
                frozenset(c) for c in itertools.combinations(k.ground_set, r)
            }

    def test_never_void(self):
        k = ind_r(complete_graph(3), 1)
        assert not k.is_void

    # the builds at the 20-vertex guard that the benchmark times, and dense,
    # star, clique and caterpillar inputs of 12 to 20 vertices
    @pytest.mark.parametrize(
        "graph, r, count",
        [(path_graph(20), 2, 684), (cycle_graph(20), 2, 851),
         (path_graph(20), 4, 470), (cycle_graph(20), 3, 974),
         (twin_bridge_paths(9), 9, 55), (star_graph(19), 2, 20), (half_apex_clique(5), 6, 912),
         (complete_graph(12), 3, 220), (make_caterpillar([3, 0, 4, 1, 2]), 2, 75)],
        ids=["path20-r2", "cycle20-r2", "path20-r4", "cycle20-r3",
             "G9-r9", "star19-r2", "H5-r6", "complete12-r3", "caterpillar-r2"],
    )
    def test_facet_counts_at_the_guard(self, graph, r, count):
        assert len(ind_r(graph, r).facets) == count


class TestIndHypergraph:
    def test_single_full_edge_gives_boundary(self):
        h = reduced_hypergraph("abcd", [("a", "b", "c", "d")])
        full = frozenset("abcd")
        assert oracle_ind_hypergraph_facets(h) == {full - {v} for v in "abcd"}

    def test_matches_ind_r_through_con(self):
        rng = random.Random(61)
        for _ in range(25):
            g = random_graph(rng, 3, 8)
            for r in (1, 2, 3):
                assert oracle_ind_hypergraph_facets(con_r(g, r)) == set(ind_r(g, r).facets)

    def test_empty_edge_gives_void(self):
        assert oracle_ind_hypergraph_facets(reduced_hypergraph("ab", [()])) == set()


class TestLinkAndDelete:
    def test_link_of_empty_face_is_identity(self):
        k = ind_r(demo_graph(), 2)
        assert link(k, ()) == k

    def test_link_in_bridge_complex_is_cone(self):
        k = ind_r(twin_bridge_paths(2), 2)
        lk = link(k, ["3"])
        assert all("1" in f for f in lk.facets)
        assert facet_sets(lk) == {fs("1", "2", "4"), fs("1", "a"), fs("1", "b")}

    def test_link_in_pure_skeleton(self):
        k = ind_r(half_apex_clique(2), 3)
        sk = pure_skeleton(k, 3)
        lk = link(sk, ["x1", "x2"])
        assert facet_sets(lk) == {fs("v1", "v2"), fs("v3", "v4")}

    def test_link_requires_a_face(self):
        k = ind_r(demo_graph(), 1)
        with pytest.raises(ValueError):
            link(k, ["v1", "v2"])  # an edge of the graph is a non-face here

    # vertex deletion as the shedding oracles compute it, on labelled facets

    def test_delete_vertex_drops_ground(self):
        k = complex_from_faces("abc", [("a", "b")])
        assert deletion_facets(k.facets, "c") == k.facets  # a ghost vertex

    def test_delete_matches_join_structure(self):
        g = twin_bridge_paths(2)
        k = ind_r(g, 2)
        sub = ind_r(induced_subgraph(g, ["1", "2", "a", "b"]), 2)
        expected = {f | fs("4") for f in sub.facets}
        assert deletion_facets(k.facets, "3") == expected

    def test_delete_triangle_boundary_vertex(self):
        k = complex_from_faces("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert deletion_facets(k.facets, "a") == {fs("b", "c")}

    def test_membership_against_definitions(self):
        rng = random.Random(67)
        for _ in range(12):
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            faces = sorted(faces_of(k), key=lambda f: sorted(map(k.ground_set.index, f)))
            face = rng.choice(faces)
            lk = link(k, face)
            all_faces = faces_of(k)
            lk_faces = faces_of(lk)
            for size in range(len(k.ground_set) + 1):
                for combo in itertools.combinations(k.ground_set, size):
                    s = frozenset(combo)
                    in_link = not (s & face) and (s | face) in all_faces
                    assert (s in lk_faces) == in_link


class TestSkeletons:
    def test_top_skeleton_of_pure_complex_is_identity(self):
        k = complex_from_faces("abcd", [("a", "b", "c"), ("b", "c", "d")])
        assert pure_skeleton(k, 2) == k

    def test_half_apex_skeletons(self):
        k = ind_r(half_apex_clique(2), 3)
        sk3 = pure_skeleton(k, 3)
        assert facet_sets(sk3) == {fs("v1", "v2", "x1", "x2"), fs("v3", "v4", "x1", "x2")}
        sk2 = pure_skeleton(k, 2)
        assert len(sk2.facets) == 20
        assert all(len(f) == 3 for f in sk2.facets)

    def test_purity_and_range(self):
        k = ind_r(demo_graph(), 2)
        for m in range(k.dimension + 1):
            sk = pure_skeleton(k, m)
            assert sk.is_pure() and sk.dimension == m
        with pytest.raises(ValueError):
            pure_skeleton(k, k.dimension + 1)
        with pytest.raises(ValueError):
            pure_skeleton(k, -1)


class TestFVector:
    def test_triangle_boundary(self):
        k = complex_from_faces("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert f_vector(k) == [1, 3, 3]

    def test_demo_r2_vertex_count(self):
        assert f_vector(ind_r(demo_graph(), 2))[1] == 5

    def test_void(self):
        assert f_vector(SimplicialComplex(("a",), frozenset())) == []

    def test_counts_match_enumeration(self):
        rng = random.Random(79)
        for _ in range(10):
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            fv = f_vector(k)
            grouped = faces_by_dimension(k)
            assert fv == [len(grouped[d]) for d in sorted(grouped)]
