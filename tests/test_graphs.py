import hashlib
import itertools
import random
import re

import networkx as nx
import pytest
from conftest import (
    ahu_canonical_key,
    connected_components,
    degree,
    has_face,
    induced_subgraph,
    is_connected,
    is_tree,
    oracle_is_caterpillar,
    prufer_decode,
    random_graph,
    to_networkx,
)

from rindep.complexes import ind_r
from rindep.hypergraphs import Hypergraph, is_chordal_hypergraph
from rindep.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    demo_graph,
    enumerate_trees,
    half_apex_clique,
    is_caterpillar,
    make_caterpillar,
    parse_edge_list,
    parse_graph_json,
    path_graph,
    star_graph,
    twin_bridge_paths,
)

import json


def edge_set(g):
    return {tuple(sorted(e)) for e in g.edges}


class TestGraphBasics:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(["a", "a"], [])

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(["a", "b"], [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(["a", "b"], [("a", "c")])

    def test_demo_graph_shape(self):
        g = demo_graph()
        assert len(g) == 5
        assert edge_set(g) == {("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v5")}


class TestInducedSubgraph:
    def test_demo_subset(self):
        g = demo_graph()
        sub = induced_subgraph(g, {"v1", "v2", "v5"})
        assert edge_set(sub) == {("v1", "v2"), ("v2", "v5")}

    def test_empty_subset(self):
        sub = induced_subgraph(demo_graph(), set())
        assert sub.vertices == () and not sub.edges

    def test_k4_triples_give_triangles(self):
        g = complete_graph(4)
        for triple in itertools.combinations(g.vertices, 3):
            assert len(induced_subgraph(g, triple).edges) == 3

    def test_full_subset_is_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng)
            assert induced_subgraph(g, g.vertices) == g

    def test_unknown_vertex_errors(self):
        with pytest.raises(ValueError):
            induced_subgraph(demo_graph(), {"nope"})


class TestComponents:
    def test_demo_is_connected(self):
        parts = connected_components(demo_graph())
        assert len(parts) == 1 and len(parts[0]) == 5

    def test_edgeless(self):
        g = Graph.from_edges(["a", "b", "c"], [])
        assert connected_components(g) == [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})]

    def test_bridge_family_minus_middle(self):
        g = twin_bridge_paths(2)
        sub = induced_subgraph(g, set(g.vertices) - {"3"})
        parts = {frozenset(p) for p in connected_components(sub)}
        assert parts == {frozenset({"1", "2", "a", "b"}), frozenset({"4"})}

    def test_partition_covers_vertices(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(rng)
            parts = connected_components(g)
            assert sorted(v for p in parts for v in p) == sorted(g.vertices)
            assert sum(len(p) for p in parts) == len(g)


class TestRIndependence:
    def test_demo_examples(self):
        g = demo_graph()
        assert has_face(ind_r(g, 2), {"v2", "v3", "v4", "v5"})
        assert has_face(ind_r(g, 1), set())
        assert not has_face(ind_r(g, 2), {"v1", "v2", "v5"})

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            ind_r(demo_graph(), 0)

    def test_monotone_in_r_and_downward_closed(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng)
            verts = list(g.vertices)
            s = frozenset(v for v in verts if rng.random() < 0.6)
            for r in (1, 2, 3):
                if has_face(ind_r(g, r), s):
                    assert has_face(ind_r(g, r + 1), s)
                    drop = frozenset(v for v in s if rng.random() < 0.7)
                    assert has_face(ind_r(g, r), drop)

    def test_matches_networkx_definition(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_graph(rng)
            s = frozenset(v for v in g.vertices if rng.random() < 0.5)
            for r in (1, 2, 3):
                sub = to_networkx(g).subgraph(s)
                expected = all(len(c) <= r for c in nx.connected_components(sub))
                assert has_face(ind_r(g, r), s) == expected


class TestGenerators:
    def test_worked_example_caterpillar(self):
        g = make_caterpillar((1, 2, 1, 1))
        assert len(g) == 9
        assert edge_set(g) == {
            ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
            ("a1", "b1_1"), ("a2", "b2_1"), ("a2", "b2_2"),
            ("a3", "b3_1"), ("a4", "b4_1"),
        }
        assert is_caterpillar(g)

    def test_caterpillar_degenerations(self):
        p = make_caterpillar((0, 0, 0, 0, 0))
        assert is_tree(p) and all(degree(p, v) <= 2 for v in p.vertices)
        star = make_caterpillar((4,))
        assert len(star) == 5 and degree(star, "a1") == 4

    def test_caterpillar_spec_validation(self):
        with pytest.raises(ValueError):
            make_caterpillar(())
        with pytest.raises(ValueError, match="leaf counts must be non-negative"):
            make_caterpillar((1, -1))

    def test_half_apex_clique_r2(self):
        g = half_apex_clique(2)
        assert len(g) == 6 and len(g.edges) == 10
        assert g.adjacency["x1"] == frozenset({"v1", "v2"})
        assert g.adjacency["x2"] == frozenset({"v3", "v4"})

    def test_half_apex_clique_r3(self):
        g = half_apex_clique(3)
        assert len(g) == 8 and len(g.edges) == 21

    def test_half_apex_clique_requires_r2(self):
        with pytest.raises(ValueError):
            half_apex_clique(1)

    def test_twin_bridge_r2_exact(self):
        g = twin_bridge_paths(2)
        assert edge_set(g) == {
            ("1", "2"), ("2", "a"), ("2", "b"), ("a", "b"),
            ("3", "a"), ("3", "b"), ("3", "4"),
        }

    def test_twin_bridge_r3_counts(self):
        g = twin_bridge_paths(3)
        assert len(g) == 8 and len(g.edges) == 9

    def test_twin_bridge_degree_a(self):
        for r in (2, 3, 4):
            assert degree(twin_bridge_paths(r), "a") == 3

    def test_generators_are_chordal(self):
        for r in (2, 3, 4):
            assert nx.is_chordal(to_networkx(half_apex_clique(r)))
            assert nx.is_chordal(to_networkx(twin_bridge_paths(r)))


def is_chordal(g: Graph) -> bool:
    """A graph read as a hypergraph: its minor search decides graph
    chordality, since simplicial vertices take distinct edge pairs."""
    return is_chordal_hypergraph(Hypergraph(g.vertices, g.edges)).chordal


class TestChordality:
    def test_trees_are_chordal(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                assert is_chordal(t)

    def test_c4_not_chordal(self):
        assert not is_chordal(cycle_graph(4))

    def test_matches_networkx(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng)
            if len(g) < 3:
                continue
            assert is_chordal(g) == nx.is_chordal(to_networkx(g))


class TestTreeEnumeration:
    # OEIS A000055, past 10 vertices too: a scan's only size limit is the guard of ind_r
    KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
    KNOWN_COUNTS |= {11: 235, 12: 551, 13: 1301, 14: 3159}

    def test_counts(self):
        for n, expected in self.KNOWN_COUNTS.items():
            assert sum(1 for _ in enumerate_trees(n)) == expected

    def test_every_output_is_a_tree(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                assert len(t) == n
                assert len(t.edges) == n - 1
                assert is_connected(t)

    def test_pairwise_non_isomorphic(self):
        for n in range(2, 9):
            keys = set()
            for t in enumerate_trees(n):
                idx = {v: i for i, v in enumerate(t.vertices)}
                edges = frozenset(frozenset(idx[v] for v in e) for e in t.edges)
                key = ahu_canonical_key(edges, n)
                assert key not in keys
                keys.add(key)

    def test_matches_prufer_oracle(self):
        # every isomorphism class of labeled trees appears, for n <= 7
        for n in range(3, 8):
            from_prufer = {
                ahu_canonical_key(prufer_decode(seq, n), n)
                for seq in itertools.product(range(n), repeat=n - 2)
            }
            from_enum = set()
            for t in enumerate_trees(n):
                idx = {v: i for i, v in enumerate(t.vertices)}
                edges = frozenset(frozenset(idx[v] for v in e) for e in t.edges)
                from_enum.add(ahu_canonical_key(edges, n))
            assert from_enum == from_prufer

    def test_numbering_is_pinned(self):
        """Each scan line's ``index`` and ``edges`` come from this numbering:
        labels "1".."n" in preorder from the centroid root, a bicentroidal
        tree's second half hung below the first root (n = 4, second tree)."""
        small = {
            1: [[]],
            2: [[(1, 2)]],
            3: [[(1, 2), (1, 3)]],
            4: [[(1, 2), (1, 3), (1, 4)], [(1, 2), (1, 3), (3, 4)]],
            5: [
                [(1, 2), (1, 4), (2, 3), (4, 5)],
                [(1, 2), (1, 4), (1, 5), (2, 3)],
                [(1, 2), (1, 3), (1, 4), (1, 5)],
            ],
        }
        for n, expected in small.items():
            trees = list(enumerate_trees(n))
            assert all(t.vertices == tuple(map(str, range(1, n + 1))) for t in trees)
            assert [[tuple(map(int, e)) for e in t.sorted_edges()] for t in trees] == expected
        text = repr([(t.vertices, t.sorted_edges()) for n in range(1, 11) for t in enumerate_trees(n)])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2608a3026487be526589b67aefab800f40bf82a5f326e394edf2bf52c6221132"
        )

    def test_no_tree_below_one_vertex(self):
        for n in (0, -1, -2):
            assert list(enumerate_trees(n)) == []


class TestCaterpillarRecognition:
    def test_paths_are_caterpillars(self):
        for n in range(1, 8):
            assert is_caterpillar(path_graph(n))

    def test_spider_is_not(self):
        spider = Graph.from_edges(
            ["c", "1", "2", "3", "4", "5", "6"],
            [("c", "1"), ("1", "2"), ("c", "3"), ("3", "4"), ("c", "5"), ("5", "6")],
        )
        assert not is_caterpillar(spider)

    def test_non_tree_is_not(self):
        assert not is_caterpillar(cycle_graph(5))

    def test_stars_are(self):
        assert is_caterpillar(star_graph(5))

    def test_counts_over_all_trees(self):
        # caterpillars on n = 1..10 vertices; OEIS A005418 from n = 4 on
        counts = [sum(map(is_caterpillar, enumerate_trees(n))) for n in range(1, 11)]
        assert counts == [1, 1, 1, 2, 3, 6, 10, 20, 36, 72]

    def test_matches_the_labelled_definition(self):
        """Random trees, and trees with an edge added (a cycle), an edge
        removed (a forest) or an isolated vertex added, on shuffled labels,
        and random graphs, against the definition on labels."""
        rng = random.Random(19)
        samples = [Graph((), frozenset()), Graph.from_edges(["a"], []), cycle_graph(3)]
        for _ in range(500):
            n = rng.randint(2, 10)
            edges = {tuple(sorted(e)) for e in prufer_decode(tuple(rng.randrange(n) for _ in range(n - 2)), n)}
            shape = rng.choice(("tree", "cycle", "forest", "isolated", "random"))
            if shape == "cycle" and n > 2:
                edges.add(rng.choice(sorted(set(itertools.combinations(range(n), 2)) - edges)))
            elif shape == "forest":
                edges.remove(rng.choice(sorted(edges)))
            elif shape == "isolated":
                n += 1
            elif shape == "random":
                samples.append(random_graph(rng, 1, 9))
                continue
            labels = [f"v{i}" for i in range(n)]
            rng.shuffle(labels)
            samples.append(Graph.from_edges(labels, ((labels[u], labels[v]) for u, v in edges)))
        verdicts = [is_caterpillar(g) for g in samples]
        assert verdicts == [oracle_is_caterpillar(g) for g in samples]
        assert 100 <= sum(verdicts) <= len(samples) - 100


class TestFormats:
    def test_edge_list_round_trip(self):
        g = make_caterpillar((1, 0, 2))
        text = "".join(f"vertex {v}\n" for v in g.vertices)
        text += "".join(f"{u} {v}\n" for u, v in g.sorted_edges())
        assert parse_edge_list(text) == g

    def test_edge_list_isolated_vertices_and_comments(self):
        text = "# comment\nvertex z\na b\n\nb c\n"
        g = parse_edge_list(text)
        assert g.vertices == ("z", "a", "b", "c")
        assert edge_set(g) == {("a", "b"), ("b", "c")}
        # a label keeps the place of its first mention: a later 'vertex'
        # line, a repeated edge or an edge written backwards moves nothing
        text = "m k\nvertex q\nk x\nvertex m\nm k\nx k\nvertex x\nq m\n"
        g = parse_edge_list(text)
        assert g.vertices == ("m", "k", "q", "x")
        assert edge_set(g) == {("k", "m"), ("k", "x"), ("m", "q")}

    def test_edge_list_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="^line 2: "):
            parse_edge_list("a b\na b c\n")
        with pytest.raises(ValueError, match="^line 1: "):
            parse_edge_list("a a\n")
        # 'vertex' first declares a label; anywhere later it is a keyword out of place
        assert parse_edge_list("vertex a\n") == Graph(("a",), frozenset())
        for text, line in (("a b\na vertex\n", 2), ("vertex vertex\n", 1), ("a b vertex\n", 1)):
            with pytest.raises(ValueError, match=f"^line {line}: 'vertex' is a keyword"):
                parse_edge_list(text)

    def test_json_round_trip(self):
        # JSON graphs have no keywords, so 'vertex' is a label like any other
        for g in (twin_bridge_paths(3), Graph.from_edges(["a", "vertex"], [("a", "vertex")])):
            data = {"vertices": list(g.vertices), "edges": [list(e) for e in g.sorted_edges()]}
            assert parse_graph_json(json.dumps(data)) == g

    def test_json_errors(self):
        with pytest.raises(ValueError, match="^invalid JSON: "):
            parse_graph_json("{not json")
        with pytest.raises(ValueError, match="graph JSON needs 'vertices' and 'edges'"):
            parse_graph_json('{"vertices": ["a"]}')
        for edge in (["a"], ["a", "b", "c"]):
            text = json.dumps({"vertices": ["a", "b", "c"], "edges": [edge]})
            with pytest.raises(ValueError, match=re.escape(f"edge {edge} is not a 2-element set")):
                parse_graph_json(text)
