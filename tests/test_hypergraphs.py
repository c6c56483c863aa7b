import random

import networkx as nx
import pytest
from conftest import (
    contract_vertex,
    delete_vertex,
    induced_subgraph,
    is_simplicial_vertex,
    oracle_chordality,
    oracle_minimal_covers,
    random_graph,
    reduced_hypergraph,
    to_networkx,
)

from rindep.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    demo_graph,
    enumerate_trees,
    half_apex_clique,
    make_caterpillar,
    path_graph,
    star_graph,
    twin_bridge_paths,
)
from rindep.hypergraphs import Hypergraph, con_r, is_chordal_hypergraph, minimal_vertex_covers


def edges_of(h):
    return {frozenset(e) for e in h.edges}


class TestHypergraphType:
    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            Hypergraph(("a", "b"), frozenset({frozenset("a"), frozenset("ab")}))

    def test_reduced_keeps_minimal_edges(self):
        h = reduced_hypergraph("abc", [("a",), ("a", "b"), ("b", "c")])
        assert edges_of(h) == {frozenset("a"), frozenset("bc")}

    def test_unknown_vertices_rejected(self):
        with pytest.raises(ValueError):
            reduced_hypergraph("ab", [("a", "c")])


class TestConR:
    def test_con_1_recovers_edges(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng)
            assert edges_of(con_r(g, 1)) == {frozenset(e) for e in g.edges}

    def test_demo_graph_r2(self):
        h = con_r(demo_graph(), 2)
        assert edges_of(h) == {
            frozenset({"v1", "v2", "v3"}),
            frozenset({"v1", "v2", "v4"}),
            frozenset({"v1", "v3", "v4"}),
            frozenset({"v1", "v2", "v5"}),
        }

    def test_tail_of_worked_example(self):
        cg = make_caterpillar((1, 2, 1, 1))
        tail = induced_subgraph(cg, ["a3", "a4", "b3_1", "b4_1"])
        h = con_r(tail, 3)
        assert edges_of(h) == {frozenset({"a3", "a4", "b3_1", "b4_1"})}

    def test_uniform_edge_size(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_graph(rng)
            for r in (1, 2, 3):
                assert all(len(e) == r + 1 for e in con_r(g, r).edges)

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            con_r(demo_graph(), 0)

    def test_r_beyond_the_vertex_count_gives_no_edges(self):
        # the growth stops at the vertex count, not after r rounds
        assert con_r(demo_graph(), 10**12).edges == frozenset()


class TestMinorOperations:
    def test_delete_single_edge(self):
        h = reduced_hypergraph("abc", [("a", "b", "c")])
        out = delete_vertex(h, "a")
        assert out.vertices == ("b", "c") and not out.edges

    def test_delete_in_cycle(self):
        g = cycle_graph(4)
        h = Hypergraph(g.vertices, g.edges)
        out = delete_vertex(h, "1")
        assert edges_of(out) == {frozenset({"2", "3"}), frozenset({"3", "4"})}

    def test_delete_from_con(self):
        h = con_r(path_graph(4), 2)
        out = delete_vertex(h, "4")
        assert out.vertices == ("1", "2", "3")
        assert edges_of(out) == {frozenset({"1", "2", "3"})}

    def test_contract_simple(self):
        h = reduced_hypergraph("abc", [("a", "b", "c")])
        out = contract_vertex(h, "a")
        assert edges_of(out) == {frozenset({"b", "c"})}

    def test_contract_to_singletons(self):
        h = reduced_hypergraph("abc", [("a", "b"), ("b", "c")])
        out = contract_vertex(h, "b")
        assert edges_of(out) == {frozenset("a"), frozenset("c")}

    def test_contract_to_empty_edge(self):
        h = reduced_hypergraph("ab", [("a",)])
        out = contract_vertex(h, "a")
        assert out.vertices == ("b",) and edges_of(out) == {frozenset()}

    def test_unknown_vertex_rejected(self):
        h = reduced_hypergraph("ab", [("a", "b")])
        with pytest.raises(ValueError):
            delete_vertex(h, "z")
        with pytest.raises(ValueError):
            contract_vertex(h, "z")

    def test_operation_order_does_not_matter(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, 4, 6)
            h = con_r(g, rng.choice((1, 2)))
            verts = list(h.vertices)
            rng.shuffle(verts)
            picked = verts[: rng.randint(1, min(3, len(verts)))]
            ops = [(v, rng.choice(("del", "con"))) for v in picked]

            def apply(order):
                cur = h
                for v, kind in order:
                    cur = delete_vertex(cur, v) if kind == "del" else contract_vertex(cur, v)
                return cur

            shuffled = ops[:]
            rng.shuffle(shuffled)
            assert apply(ops) == apply(shuffled)


class TestSimplicialVertex:
    def test_vertex_in_no_edge_is_simplicial(self):
        h = reduced_hypergraph("abc", [("a", "b")])
        assert is_simplicial_vertex(h, "c")

    def test_c4_has_none(self):
        g = cycle_graph(4)
        h = Hypergraph(g.vertices, g.edges)
        assert not any(is_simplicial_vertex(h, v) for v in h.vertices)

    def test_leaf_conventions(self):
        g = path_graph(3)
        h = Hypergraph(g.vertices, g.edges)
        # one edge through a leaf: vacuous under the distinct-pair reading
        assert is_simplicial_vertex(h, "1")

    def test_triangle_vertices_are_simplicial(self):
        g = cycle_graph(3)
        h = Hypergraph(g.vertices, g.edges)
        assert all(is_simplicial_vertex(h, v) for v in h.vertices)


class TestChordality:
    def test_c4_witnessed_by_itself(self):
        g = cycle_graph(4)
        h = Hypergraph(g.vertices, g.edges)
        res = is_chordal_hypergraph(h)
        assert res.chordal is False
        assert res.witness == h

    def test_con_2_of_p4(self):
        res = is_chordal_hypergraph(con_r(path_graph(4), 2))
        assert res.chordal is True

    def test_edgeless_is_chordal(self):
        res = is_chordal_hypergraph(reduced_hypergraph("abcd", []))
        assert res.chordal is True

    def test_trees_small_slice(self):
        for t in enumerate_trees(5):
            for r in (1, 2):
                assert is_chordal_hypergraph(con_r(t, r)).chordal is True

    def test_minors_visited_over_small_trees_pinned(self):
        # the 75 trees with at most 7 vertices at r = 1..3; their minors keep
        # meeting vertices in no edge, each of which yields one child
        results = [
            is_chordal_hypergraph(con_r(t, r)) for n in range(1, 8) for t in enumerate_trees(n) for r in (1, 2, 3)
        ]
        assert len(results) == 75 and {res.chordal for res in results} == {True}
        assert sum(res.minors_visited for res in results) == 22_502

    def test_budget_exhaustion_is_loud(self):
        h = con_r(path_graph(5), 2)
        res = is_chordal_hypergraph(h, budget=3)
        assert res.chordal is None
        assert res.minors_visited == 3

    @pytest.mark.parametrize(
        "graph, r, chordal, visited",
        [
            (path_graph(10), 1, True, 9192),
            (star_graph(9), 2, True, 3550),
            (twin_bridge_paths(3), 2, False, 526),
            (twin_bridge_paths(4), 2, False, 6670),
            (twin_bridge_paths(4), 3, False, 1051),
            (complete_graph(8), 2, True, 967),
            (half_apex_clique(3), 3, False, 123),
        ],
    )
    def test_minors_visited_pinned(self, graph, r, chordal, visited):
        res = is_chordal_hypergraph(con_r(graph, r))
        assert res.chordal is chordal
        assert res.minors_visited == visited

    def test_dense_witness_matches_the_labelled_oracle(self):
        h = con_r(half_apex_clique(3), 3)
        res = is_chordal_hypergraph(h)
        assert res.witness.vertices == tuple(f"v{i}" for i in range(1, 7)) and len(res.witness.edges) == 11
        assert res == oracle_chordality(h)

    def test_budget_cut_off_at_the_guard_vertex_count(self):
        # 20 vertices, as many as the guard allows: one edge-id bitset per vertex
        res = is_chordal_hypergraph(con_r(path_graph(20), 2), budget=2000)
        assert (res.chordal, res.witness, res.minors_visited) == (None, None, 2000)

    # the dense clutter's contractions absorb kept edges
    @pytest.mark.parametrize(
        "h", [con_r(path_graph(6), 1), con_r(twin_bridge_paths(3), 2), con_r(complete_graph(5), 2)]
    )
    def test_budget_cut_off_at_every_level_boundary(self, h):
        # the search forgets a level once it moves on, so a count that slips
        # there shows as a cut-off one minor early or late
        level, boundaries = {h}, [0]
        while level:
            boundaries.append(boundaries[-1] + len(level))
            level = {op(m, v) for m in level for v in m.vertices for op in (delete_vertex, contract_vertex)}
        for c in boundaries[1:]:
            for budget in (c - 1, c, c + 1):
                assert is_chordal_hypergraph(h, budget) == oracle_chordality(h, budget)

    def test_every_small_atlas_graph_matches_the_labelled_oracle(self):
        # every graph on at most 5 vertices, so deep witnesses are compared
        # in full and not only on a sample
        checked = 0
        for g in nx.graph_atlas_g():
            if g.number_of_nodes() > 5:
                break
            for r in (1, 2, 3):
                h = con_r(Graph.from_edges(g.nodes, g.edges), r)
                assert is_chordal_hypergraph(h) == oracle_chordality(h)
                checked += 1
        assert checked == 159

    def test_chordal_graphs_stay_chordal_as_hypergraphs(self):
        rng = random.Random(37)
        checked = 0
        while checked < 8:
            g = random_graph(rng, 4, 6)
            if not nx.is_chordal(to_networkx(g)):
                continue
            assert is_chordal_hypergraph(Hypergraph(g.vertices, g.edges)).chordal is True
            checked += 1


class TestMinimalCovers:
    def test_single_edge_gives_singletons(self):
        h = reduced_hypergraph("wxyz", [("w", "x", "y", "z")])
        assert minimal_vertex_covers(h) == frozenset(
            {frozenset("w"), frozenset("x"), frozenset("y"), frozenset("z")}
        )

    def test_edgeless_gives_empty_cover(self):
        assert minimal_vertex_covers(reduced_hypergraph("ab", [])) == frozenset({frozenset()})

    def test_empty_edge_gives_no_cover(self):
        assert minimal_vertex_covers(reduced_hypergraph("ab", [()])) == frozenset()

    def test_path_edges(self):
        h = reduced_hypergraph("abc", [("a", "b"), ("b", "c")])
        assert minimal_vertex_covers(h) == frozenset({frozenset("b"), frozenset("ac")})

    def test_against_power_set_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_graph(rng, 4, 7)
            r = rng.choice((1, 2))
            h = con_r(g, r)
            expected = oracle_minimal_covers(h.vertices, h.edges)
            got = minimal_vertex_covers(h)
            assert got == frozenset(expected)
            for c in got:
                assert all(c & e for e in h.edges)
                assert not any(
                    all((c - {v}) & e for e in h.edges) for v in c
                )
