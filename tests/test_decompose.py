import random

import networkx as nx
import pytest
from conftest import (
    complex_from_faces,
    oracle_is_shellable,
    oracle_shelling_order_ok,
    oracle_vd,
    path_complex,
    random_graph,
    recursion_limit,
    sorted_facets,
    to_networkx,
)

from rindep.complexes import SimplicialComplex, ind_r
from rindep.decompose import (
    SheddingNode,
    _sheds,
    is_shellable,
    is_vertex_decomposable,
    verify_shedding_certificate,
    verify_shelling_certificate,
)
from rindep.graphs import (
    Graph,
    cycle_graph,
    enumerate_trees,
    path_graph,
    twin_bridge_paths,
)


def fs(*labels):
    return frozenset(labels)


def random_complex(rng, n_max=6, facet_cap=7):
    n = rng.randint(2, n_max)
    verts = [chr(97 + i) for i in range(n)]
    raw = []
    for _ in range(rng.randint(1, facet_cap + 3)):
        size = rng.randint(1, n)
        raw.append(frozenset(rng.sample(verts, size)))
    k = complex_from_faces(verts, raw)
    if len(k.facets) > facet_cap:
        k = complex_from_faces(verts, sorted_facets(k)[:facet_cap])
    return k


def sheds(k, v):
    """The search's shedding condition at ``v``, on the facet masks of ``k``
    split as the search splits them."""
    bit = 1 << k.ground_set.index(v)
    return _sheds([f ^ bit for f in k.facet_masks if f & bit], [f for f in k.facet_masks if not f & bit])


class TestSheddingVertex:
    def test_path_complex_vertices(self):
        k = ind_r(path_graph(7), 2)
        assert sheds(k, "3")
        assert sheds(k, "5")

    def test_simplex_vertex_never_sheds(self):
        k = complex_from_faces("ab", ["ab"])
        assert not sheds(k, "a")

    def test_definitional_inclusion(self):
        rng = random.Random(103)
        for _ in range(20):
            k = random_complex(rng)
            support = set().union(*k.facets) if k.facets else set()
            for v in support:
                # v sheds iff every facet of its deletion is a facet of k
                parts = {f - {v} for f in k.facets}
                deletion = {p for p in parts if not any(p < q for q in parts)}
                assert sheds(k, v) == (deletion <= k.facets)


class TestVertexDecomposability:
    def test_classical_chordal_independence_complexes(self):
        rng = random.Random(107)
        checked = 0
        while checked < 12:
            g = random_graph(rng, 3, 7)
            if not nx.is_chordal(to_networkx(g)):
                continue
            res = is_vertex_decomposable(ind_r(g, 1))
            assert res.decomposable is True
            checked += 1

    def test_glued_simplices_are_not_decomposable(self):
        k = complex_from_faces("abcdef", [("a", "b", "c", "d"), ("c", "d", "e", "f")])
        assert is_vertex_decomposable(k).decomposable is False

    def test_simplices_and_empty_complex_are_base_cases(self):
        assert is_vertex_decomposable(complex_from_faces("abc", ["abc"])).decomposable
        empty = SimplicialComplex(("a",), frozenset({frozenset()}))
        assert is_vertex_decomposable(empty).decomposable

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            is_vertex_decomposable(SimplicialComplex(("a",), frozenset()))

    def test_verdict_independent_of_vertex_order(self):
        rng = random.Random(109)
        for _ in range(20):
            k = random_complex(rng)
            a = is_vertex_decomposable(k).decomposable
            # same facets; the search visits the vertices in reverse
            b = is_vertex_decomposable(
                SimplicialComplex(tuple(reversed(k.ground_set)), k.facets)
            ).decomposable
            assert a == b

    def test_budget_exhaustion(self):
        k = ind_r(path_graph(7), 2)
        res = is_vertex_decomposable(k, budget=2)
        assert res.decomposable is None

    def test_certificates_verify(self):
        rng = random.Random(113)
        for _ in range(25):
            k = random_complex(rng)
            res = is_vertex_decomposable(k)
            if res.decomposable:
                assert verify_shedding_certificate(k, res.certificate)
                round_trip = SheddingNode.from_json_dict(res.certificate.to_json_dict())
                assert verify_shedding_certificate(k, round_trip)

    @pytest.mark.parametrize("gen, explored", [(twin_bridge_paths(4), 32), (path_graph(12), 91)])
    def test_explored_pinned(self, gen, explored):
        assert is_vertex_decomposable(ind_r(gen, 2)).explored == explored

    def test_search_deeper_than_the_recursion_limit(self):
        k = path_complex(150)
        with recursion_limit(50):
            res = is_vertex_decomposable(k)
        assert res.decomposable is True and res.explored == 297
        assert verify_shedding_certificate(k, res.certificate)

    def test_certificate_deeper_than_the_recursion_limit_verifies_and_round_trips(self):
        k = path_complex(150)
        cert = is_vertex_decomposable(k).certificate
        with recursion_limit(50):
            assert verify_shedding_certificate(k, cert)
            back = SheddingNode.from_json_dict(cert.to_json_dict())
            assert verify_shedding_certificate(k, back)
        # read back over the labels in string order, "10" before "2"
        assert back.labels == tuple(sorted(k.ground_set)) and back.to_json_dict() == cert.to_json_dict()

    def test_leaf_sizes(self):
        void = SimplicialComplex(("a",), frozenset())
        assert not verify_shedding_certificate(void, SheddingNode.from_json_dict({"facets": []}))
        two_points = complex_from_faces("ab", ["a", "b"])
        leaf = SheddingNode.from_json_dict({"facets": [["a"], ["b"]]})
        assert not verify_shedding_certificate(two_points, leaf)

    def test_void_complex_has_no_shelling_either(self):
        assert not verify_shelling_certificate(SimplicialComplex(("a",), frozenset()), [])

    def test_branch_held_by_no_set(self):
        # its empty first child is a leaf, and its second child certifies the family itself
        k = complex_from_faces("abc", ["a", "b"])
        cert = is_vertex_decomposable(k).certificate
        assert verify_shedding_certificate(k, cert)
        data = cert.to_json_dict()
        wrapped = {"facets": data["facets"], "vertex": "c", "link": {"facets": []}, "del": data}
        assert not verify_shedding_certificate(k, SheddingNode.from_json_dict(wrapped))

    def test_certificate_for_wrong_complex_rejected(self):
        k1 = ind_r(path_graph(6), 2)
        k2 = ind_r(path_graph(5), 2)
        cert = is_vertex_decomposable(k1).certificate
        assert not verify_shedding_certificate(k2, cert)


class TestShellability:
    def test_single_facet_trivial(self):
        res = is_shellable(complex_from_faces("abc", ["abc"]))
        assert res.shellable and verify_shelling_certificate(
            complex_from_faces("abc", ["abc"]), res.order
        )

    def test_tree_complexes_small(self):
        for n in (4, 5, 6, 7):
            for t in enumerate_trees(n):
                for r in (1, 2):
                    k = ind_r(t, r)
                    res = is_shellable(k)
                    assert res.shellable is True
                    assert verify_shelling_certificate(k, res.order)

    def test_two_disjoint_edges_not_shellable(self):
        k = complex_from_faces("abcd", [("a", "b"), ("c", "d")])
        assert is_shellable(k).shellable is False

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            is_shellable(SimplicialComplex(("a",), frozenset()))

    def test_budget_exhaustion(self):
        k = ind_r(path_graph(7), 2)
        res = is_shellable(k, budget=1)
        assert res.shellable is None

    def test_explored_pinned_on_twin_bridge(self):
        res = is_shellable(ind_r(twin_bridge_paths(4), 2))
        assert res.shellable is False
        # a count of work: 12 prefixes, two shellable 11-facet links (12
        # states each), then the link of vertex 3 fails in 66 states; the
        # plain search exhausted 218,448 prefix-sets
        assert res.explored == 112

    def test_budget_below_the_full_count_stops_at_the_budget(self):
        rng = random.Random(131)
        complexes = [ind_r(path_graph(7), 2), complex_from_faces("abcd", ["ab", "cd"])]
        # the link rule settles both, so some budgets run out inside a link
        complexes += [ind_r(twin_bridge_paths(4), 2), ind_r(cycle_graph(10), 2)]
        complexes += [random_complex(rng, n_max=5, facet_cap=6) for _ in range(30)]
        for k in complexes:
            full = is_shellable(k)
            for b in range(full.explored):
                res = is_shellable(k, budget=b)
                assert res.shellable is None and res.order is None
                assert res.explored == b
            assert is_shellable(k, budget=full.explored) == full

    def test_order_longer_than_the_recursion_limit(self):
        # ten disjoint edges: 1024 facets, the boundary of a cross-polytope
        verts = [str(i) for i in range(20)]
        g = Graph.from_edges(verts, [(verts[2 * i], verts[2 * i + 1]) for i in range(10)])
        k = ind_r(g, 1)
        assert len(k.facets) == 1024
        res = is_shellable(k)
        assert res.shellable is True
        assert res.explored == 1025  # lexicographic order shells it, no backtracking
        assert is_vertex_decomposable(k).decomposable is True

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(127)
        for _ in range(60):
            k = random_complex(rng, n_max=5, facet_cap=6)
            expected = oracle_is_shellable(list(k.facets))
            assert (is_shellable(k).shellable is True) == expected

    def test_pairwise_condition_matches_direct_definition(self):
        rng = random.Random(131)
        for _ in range(60):
            k = random_complex(rng, n_max=5, facet_cap=5)
            facets = list(k.facets)
            rng.shuffle(facets)
            direct = oracle_shelling_order_ok(facets)
            pairwise = True
            for t in range(1, len(facets)):
                fk = facets[t]
                for j in range(t):
                    if not any(
                        len(fk - facets[l]) == 1 and (facets[j] & fk) <= (facets[l] & fk)
                        for l in range(t)
                    ):
                        pairwise = False
                        break
                if not pairwise:
                    break
            assert pairwise == direct

    def test_tampered_order_rejected(self):
        k = ind_r(path_graph(6), 2)
        res = is_shellable(k)
        order = list(res.order)
        if len(order) >= 2:
            bad = [order[-1]] + order[1:-1] + [order[0]]
            # swapping first and last need not break every order, so check
            # the verifier against the direct-definition oracle instead
            assert verify_shelling_certificate(k, bad) == oracle_shelling_order_ok(
                [frozenset(f) for f in bad]
            )
        missing = order[:-1]
        assert not verify_shelling_certificate(k, missing)

    def test_order_for_wrong_complex_rejected(self):
        k1 = ind_r(path_graph(6), 2)
        k2 = ind_r(path_graph(5), 2)
        res = is_shellable(k1)
        assert not verify_shelling_certificate(k2, res.order)


class TestImplicationChain:
    def test_vd_implies_shellable_implies_scm(self):
        from rindep.homology import is_scm

        rng = random.Random(137)
        for _ in range(30):
            k = random_complex(rng, n_max=5, facet_cap=6)
            vd = is_vertex_decomposable(k).decomposable
            sh = is_shellable(k).shellable
            if vd:
                assert sh
            if sh and not k.is_void:
                assert is_scm(k).sequentially_cohen_macaulay
                assert is_scm(k, 2).sequentially_cohen_macaulay


# Ind_r shellable but not vertex decomposable, on non-chordal graphs with 7
# vertices: networkx's atlas graphs 342, 433, 438 and 575 at r=2, and 579 and
# 728 at r=2 and r=3, with the shelling order the search finds
SEPARATIONS = {
    "342-r2": ("02 05 12 23 36 45 56", 2, "01346 0135 0246 1246 1345 1245 1256 2345"),
    "433-r2": ("01 02 12 14 23 35 45 46", 2, "01356 0256 0245 0246 0346 1256 2346 134"),
    "438-r2": ("01 05 06 12 23 24 34 45", 2, "0134 0346 0236 0235 0246 1346 2356 1356 1256 1456"),
    "575-r2": ("01 04 05 12 14 26 35 36 56", 2, "0136 0346 0234 0246 1346 1345 1456 2345 1235 025"),
    "579-r2": ("01 05 12 16 23 24 34 45 56", 2, "0134 0346 0236 0235 0246 1346 2356 135 125 145"),
    "579-r3": (
        "01 05 12 16 23 24 34 45 56",
        3,
        "01346 02346 02356 0135 1235 1345 1356 012 045 124 126 245 456",
    ),
    "728-r2": ("01 05 06 12 16 23 24 34 45 56", 2, "0134 0346 0236 0235 0246 1346 2356 135 125 145"),
    "728-r3": (
        "01 05 06 12 16 23 24 34 45 56",
        3,
        "01346 02346 02356 0135 1235 1345 1356 012 045 124 126 245 456",
    ),
}


class TestShellableNotVD:
    @pytest.mark.parametrize("edges, r, order", SEPARATIONS.values(), ids=SEPARATIONS.keys())
    def test_separation(self, edges, r, order):
        g = Graph.from_edges(range(7), edges.split())
        assert not nx.is_chordal(to_networkx(g))
        k = ind_r(g, r)
        res = is_shellable(k)
        assert res.shellable is True and verify_shelling_certificate(k, res.order)
        assert ["".join(sorted(f)) for f in res.order] == order.split()
        assert is_vertex_decomposable(k).decomposable is False
        assert oracle_vd(k).decomposable is False
