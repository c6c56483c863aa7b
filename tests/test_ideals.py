import json
import random
from pathlib import Path

import pytest
from conftest import (
    complex_from_faces,
    UnitIdealRejected,
    ZeroIdealRejected,
    alexander_dual_ideal,
    faces_of,
    induced_subgraph,
    is_connected,
    is_unit,
    is_zero,
    oracle_minimal_covers,
    random_graph,
    recursion_limit,
    stanley_reisner,
    uncut_split,
    variable_ideal,
)

from rindep.complexes import SimplicialComplex, ind_r
from rindep.decompose import is_vertex_decomposable
from rindep.graphs import (
    demo_graph,
    make_caterpillar,
    path_graph,
    sets_of,
    twin_bridge_paths,
)
from rindep.ideals import (
    CrossCheckError,
    MonomialIdeal,
    SplitNode,
    dual_of_ind,
    facet_dual,
    is_vertex_splittable,
    verify_split_certificate,
)


def fs(*labels):
    return frozenset(labels)


def gen_sets(ideal):
    return {frozenset(g) for g in ideal.generators}


def random_antichain(rng, n_max=8):
    n = rng.randint(2, n_max)
    variables = [chr(97 + i) for i in range(n)]
    supports = []
    for _ in range(rng.randint(1, 6)):
        size = rng.randint(1, n)
        supports.append(frozenset(rng.sample(variables, size)))
    minimal = [s for s in supports if not any(t < s for t in supports)]
    return MonomialIdeal.from_supports(variables, set(minimal))


class TestMonomialIdeal:
    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            MonomialIdeal.from_supports("ab", [("a",), ("a", "b")])

    def test_special_values(self):
        zero = MonomialIdeal.from_supports("ab", [])
        unit = MonomialIdeal.from_supports("ab", [()])
        assert is_zero(zero) and not is_unit(zero)
        assert is_unit(unit) and len(unit.generators) == 1

    def test_membership(self):
        i = MonomialIdeal.from_supports("abc", [("a", "b")])
        assert any(g <= frozenset("abc") for g in i.generators)
        assert not any(g <= frozenset("ac") for g in i.generators)


class TestStanleyReisner:
    def test_boundary_of_simplex(self):
        full = frozenset("abcd")
        bd = complex_from_faces("abcd", [full - {v} for v in "abcd"])
        assert gen_sets(stanley_reisner(bd)) == {full}

    def test_full_simplex_gives_zero_ideal(self):
        assert is_zero(stanley_reisner(complex_from_faces("abc", ["abc"])))

    def test_worked_example_tail(self):
        cg = make_caterpillar((1, 2, 1, 1))
        tail = induced_subgraph(cg, ["a3", "a4", "b3_1", "b4_1"])
        sr = stanley_reisner(ind_r(tail, 3))
        assert gen_sets(sr) == {fs("a3", "a4", "b3_1", "b4_1")}

    def test_generators_are_minimal_nonfaces(self):
        rng = random.Random(139)
        for _ in range(15):
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            sr = stanley_reisner(k)
            faces = faces_of(k)
            for gen in sr.generators:
                assert gen not in faces
                assert all((gen - {v}) in faces for v in gen)


class TestAlexanderDual:
    def test_single_generator_dualizes_to_variables(self):
        i = MonomialIdeal.from_supports(
            ["a3", "b3_1", "a4", "b4_1"], [("a3", "a4", "b3_1", "b4_1")]
        )
        dual = alexander_dual_ideal(i)
        assert gen_sets(dual) == {fs("a3"), fs("a4"), fs("b3_1"), fs("b4_1")}

    def test_zero_and_unit_rejected_distinctly(self):
        with pytest.raises(ZeroIdealRejected):
            alexander_dual_ideal(MonomialIdeal.from_supports("ab", []))
        with pytest.raises(UnitIdealRejected):
            alexander_dual_ideal(MonomialIdeal.from_supports("ab", [()]))

    def test_involution_on_random_antichains(self):
        rng = random.Random(149)
        done = 0
        while done < 100:
            i = random_antichain(rng)
            if is_zero(i) or is_unit(i):
                continue
            assert alexander_dual_ideal(alexander_dual_ideal(i)) == i
            done += 1

    def test_generators_are_minimal_covers(self):
        rng = random.Random(151)
        for _ in range(20):
            i = random_antichain(rng, n_max=6)
            if is_zero(i) or is_unit(i):
                continue
            expected = oracle_minimal_covers(i.variables, i.generators)
            assert gen_sets(alexander_dual_ideal(i)) == expected

    def test_sr_dual_generators_are_facet_complements(self):
        rng = random.Random(157)
        for _ in range(15):
            g = random_graph(rng, 3, 6)
            k = ind_r(g, rng.choice((1, 2)))
            sr = stanley_reisner(k)
            if is_zero(sr):
                continue
            full = frozenset(k.ground_set)
            assert gen_sets(alexander_dual_ideal(sr)) == {full - f for f in k.facets}


class TestFacetDual:
    # the Stanley-Reisner route is compared on random complexes in
    # test_properties.test_facet_dual_is_the_dual_of_the_stanley_reisner_ideal
    def test_void_complex_has_no_dual(self):
        with pytest.raises(ValueError, match="void complex has no Stanley-Reisner ideal"):
            facet_dual(SimplicialComplex(("a", "b"), frozenset()))

    @pytest.mark.parametrize("ground", ["", "a", "abc"])
    def test_simplex_on_the_whole_ground_set_has_the_zero_ideal(self, ground):
        with pytest.raises(ValueError, match="zero Stanley-Reisner ideal"):
            facet_dual(complex_from_faces(ground, [ground]))

    @pytest.mark.parametrize(
        "ground, facet, generator", [("abc", "ab", "c"), ("abcd", "ac", "bd"), ("ab", "", "ab")]
    )
    def test_single_facet_with_ghost_vertices_has_a_principal_dual(self, ground, facet, generator):
        dual = facet_dual(complex_from_faces(ground, [facet]))
        assert dual.variables == tuple(ground) and gen_sets(dual) == {frozenset(generator)}


class TestDualOfInd:
    def test_worked_example_tail_exact(self):
        cg = make_caterpillar((1, 2, 1, 1))
        tail = induced_subgraph(cg, ["a3", "a4", "b3_1", "b4_1"])
        dual = dual_of_ind(tail, 3)
        assert gen_sets(dual) == {fs("a3"), fs("a4"), fs("b3_1"), fs("b4_1")}

    def test_connected_graph_on_r_plus_one_vertices(self):
        rng = random.Random(163)
        found = 0
        while found < 8:
            g = random_graph(rng, 3, 5)
            if not is_connected(g):
                continue
            dual = dual_of_ind(g, len(g) - 1)
            assert gen_sets(dual) == {fs(v) for v in g.vertices}
            found += 1

    def test_degenerate_graph_rejected_like_zero_ideal(self):
        from rindep.graphs import Graph

        g = Graph.from_edges(["a", "b", "c"], [("a", "b")])
        with pytest.raises(ValueError, match="zero Stanley-Reisner ideal"):
            dual_of_ind(g, 2)  # no connected 3-subset exists

    def test_both_routes_agree_on_random_graphs(self):
        rng = random.Random(167)
        for _ in range(40):
            g = random_graph(rng, 3, 7)
            for r in (1, 2):
                try:
                    dual = dual_of_ind(g, r)
                except ValueError as exc:
                    assert "zero Stanley-Reisner ideal" in str(exc)
                    continue
                assert dual == alexander_dual_ideal(stanley_reisner(ind_r(g, r)))

    def test_prebuilt_complex_gives_the_same_dual(self):
        rng = random.Random(173)
        for _ in range(20):
            g = random_graph(rng, 3, 7)
            try:
                dual = dual_of_ind(g, 1)
            except ValueError as exc:
                assert "zero Stanley-Reisner ideal" in str(exc)
                continue
            assert dual_of_ind(g, 1, ind_r(g, 1)) == dual

    def test_prebuilt_complex_is_still_cross_checked(self):
        g = demo_graph()
        with pytest.raises(CrossCheckError):
            dual_of_ind(g, 1, ind_r(g, 2))

    def test_generator_count_at_path16(self):
        assert len(dual_of_ind(path_graph(16), 2).generators) == 177


class TestVertexSplittable:
    def test_variable_ideal(self):
        i = MonomialIdeal.from_supports("wxyz", [("w",), ("x",), ("y",), ("z",)])
        res = is_vertex_splittable(i)
        assert res.splittable and verify_split_certificate(i, res.certificate)

    def test_base_cases(self):
        assert is_vertex_splittable(MonomialIdeal.from_supports("ab", [])).splittable
        assert is_vertex_splittable(MonomialIdeal.from_supports("ab", [()])).splittable
        assert is_vertex_splittable(MonomialIdeal.from_supports("ab", [("a", "b")])).splittable

    def test_demo_graph_dual_is_splittable(self):
        dual = dual_of_ind(demo_graph(), 2)
        res = is_vertex_splittable(dual)
        assert res.splittable is True
        assert verify_split_certificate(dual, res.certificate)

    def test_glued_simplices_dual_is_not_splittable(self):
        k = complex_from_faces("abcdef", [("a", "b", "c", "d"), ("c", "d", "e", "f")])
        assert is_vertex_splittable(alexander_dual_ideal(stanley_reisner(k))).splittable is False

    def test_disjoint_edges_dual_not_splittable(self):
        i = MonomialIdeal.from_supports("abcd", [("a", "b"), ("c", "d")])
        assert is_vertex_splittable(i).splittable is False

    def test_budget_exhaustion(self):
        dual = dual_of_ind(demo_graph(), 2)
        res = is_vertex_splittable(dual, budget=1)
        assert res.splittable is None

    @pytest.mark.parametrize("gen, explored", [(twin_bridge_paths(4), 37), (path_graph(12), 59)])
    def test_explored_pinned(self, gen, explored):
        assert is_vertex_splittable(dual_of_ind(gen, 2)).explored == explored

    def test_tampered_certificate_rejected(self):
        dual = dual_of_ind(demo_graph(), 2)
        cert = is_vertex_splittable(dual).certificate
        data = cert.to_json_dict()
        data["quotient"], data["remainder"] = data["remainder"], data["quotient"]
        assert not verify_split_certificate(dual, SplitNode.from_json_dict(data))

    def test_certificate_deeper_than_the_recursion_limit_verifies_and_round_trips(self):
        i = variable_ideal(200)
        res = is_vertex_splittable(i)
        assert res.splittable is True and res.explored == 201
        with recursion_limit(60):
            assert verify_split_certificate(i, res.certificate)
            back = SplitNode.from_json_dict(res.certificate.to_json_dict())
            assert verify_split_certificate(i, back)
        assert back == res.certificate

    def test_leaf_sizes(self):
        zero = MonomialIdeal.from_supports("ab", [])
        assert verify_split_certificate(zero, SplitNode.from_json_dict({"generators": []}))
        two = MonomialIdeal.from_supports("ab", ["a", "b"])
        leaf = SplitNode.from_json_dict({"generators": [["a"], ["b"]]})
        assert not verify_split_certificate(two, leaf)

    def test_pivot_held_by_no_generator(self):
        # both parts of the zero ideal are empty, so the splitting rule alone holds
        zero = MonomialIdeal.from_supports("a", [])
        empty = {"generators": []}
        cert = SplitNode.from_json_dict({**empty, "pivot": "a", "quotient": empty, "remainder": empty})
        assert not verify_split_certificate(zero, cert)

    def test_certificate_round_trip(self):
        rng = random.Random(173)
        done = 0
        while done < 20:
            i = random_antichain(rng, n_max=6)
            res = is_vertex_splittable(i)
            if not res.splittable:
                continue
            node = SplitNode.from_json_dict(res.certificate.to_json_dict())
            assert verify_split_certificate(i, node)
            done += 1


def antichains(n: int) -> list[frozenset[int]]:
    """Every non-empty antichain of subsets of range(n), as masks."""
    out = []

    def grow(s: int, chosen: list[int]) -> None:
        if s == 1 << n:
            out.append(frozenset(chosen))
            return
        grow(s + 1, chosen)
        if all(s & ~c and c & ~s for c in chosen):
            grow(s + 1, chosen + [s])

    grow(0, [])
    return [a for a in out if a]


def assert_same_as_uncut(ideals) -> tuple[int, int]:
    """The search with the shared-pivot rule gives the verdict and the
    certificate of the search without it, in no more states; returns the
    two state totals."""
    explored = uncut_explored = 0
    for i in ideals:
        res, uncut = is_vertex_splittable(i), uncut_split(i)
        assert (res.splittable, res.certificate) == (uncut.splittable, uncut.certificate)
        assert res.explored <= uncut.explored
        explored, uncut_explored = explored + res.explored, uncut_explored + uncut.explored
    return explored, uncut_explored


class TestSharedPivotRule:
    """A state whose generators all hold the pivot fails with its first
    child: it has a certificate exactly when its quotient there has one."""

    def test_every_antichain_over_five_variables(self):
        variables = tuple("abcde")
        families = antichains(5)
        assert len(families) == 7580  # the Dedekind number 7581, less the empty family
        assert_same_as_uncut(MonomialIdeal(variables, sets_of(variables, a)) for a in families)

    def test_random_ideals_with_shared_variables(self):
        # 1-5 shared variables times the edge ideal of a random graph on
        # 3-6 more, about a fifth of them not splittable
        rng = random.Random(211)
        ideals = []
        for _ in range(3000):
            shared, free = rng.randint(1, 5), rng.randint(3, 6)
            variables = [f"x{j}" for j in range(shared + free)]
            rng.shuffle(variables)
            common = frozenset(variables[:shared])
            edges = {frozenset(rng.sample(variables[shared:], 2)) for _ in range(rng.randint(2, 6))}
            ideals.append(MonomialIdeal(tuple(variables), frozenset(common | e for e in edges)))
        explored, uncut = assert_same_as_uncut(ideals)
        assert explored < uncut

    @pytest.mark.parametrize("n, explored", [(8, 4), (12, 8), (16, 12), (21, 17)])
    def test_two_triangles_sharing_a_vertex_take_linearly_many_states(self, n, explored):
        # every generator of the dual holds the n - 5 vertices in no facet,
        # which took 2^(n - 5) states without the rule
        ground = tuple(f"v{i}" for i in range(n))
        k = SimplicialComplex(ground, frozenset({frozenset(ground[0:3]), frozenset(ground[2:5])}))
        res = is_vertex_splittable(facet_dual(k))
        assert (res.splittable, res.explored) == (False, explored)


class TestDualOracleEquivalence:
    def test_decomposable_iff_dual_splittable(self):
        rng = random.Random(179)
        for _ in range(60):
            g = random_graph(rng, 3, 7)
            for r in (1, 2):
                k = ind_r(g, r)
                vd = is_vertex_decomposable(k).decomposable
                sr = stanley_reisner(k)
                split = True if is_zero(sr) else is_vertex_splittable(
                    alexander_dual_ideal(sr)
                ).splittable
                assert vd == split


@pytest.fixture(scope="module")
def fixture_data():
    return json.loads((Path(__file__).parent / "data" / "caterpillar_dual_fixture.json").read_text())


@pytest.fixture(scope="module")
def caterpillar(fixture_data):
    spec = fixture_data["caterpillar"]
    return make_caterpillar(spec["leaf_counts"])


class TestWorkedExampleFixture:

    def test_subfamily_duals_match_exactly(self, fixture_data, caterpillar):
        r = fixture_data["r"]
        for key in (
            "dual_on_last_two_spine_segments",
            "dual_with_first_spine_vertex_removed",
            "dual_with_first_leaf_removed",
        ):
            block = fixture_data[key]
            removed = set(block["removed_vertices"])
            sub = induced_subgraph(caterpillar, [v for v in caterpillar.vertices if v not in removed])
            expected = {frozenset(g) for g in block["generators"]}
            assert gen_sets(dual_of_ind(sub, r)) == expected, key

    def test_four_piece_decomposition(self, fixture_data, caterpillar):
        r = fixture_data["r"]
        dual = dual_of_ind(caterpillar, r)
        decomposition = fixture_data["four_piece_decomposition"]
        pivots = decomposition["pivot_order"]
        expected_pieces = {
            pivot: {frozenset(g) for g in gens}
            for pivot, gens in decomposition["pieces"].items()
        }
        # every expected monomial is a minimal generator with its pivot
        computed_pieces = {p: set() for p in pivots}
        for gen in dual.generators:
            hits = [p for p in pivots if p in gen]
            assert hits, f"generator {sorted(gen)} misses every pivot"
            computed_pieces[hits[0]].add(gen - {hits[0]})
        assert computed_pieces == expected_pieces

    def test_decomposition_covers_the_whole_ideal(self, fixture_data, caterpillar):
        r = fixture_data["r"]
        dual = dual_of_ind(caterpillar, r)
        decomposition = fixture_data["four_piece_decomposition"]
        rebuilt = set()
        for pivot, gens in decomposition["pieces"].items():
            rebuilt.update(frozenset(g) | {pivot} for g in gens)
        assert rebuilt == gen_sets(dual)

    def test_full_ideal_is_splittable_with_certificate(self, fixture_data, caterpillar):
        dual = dual_of_ind(caterpillar, fixture_data["r"])
        res = is_vertex_splittable(dual)
        assert res.splittable and verify_split_certificate(dual, res.certificate)
