"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its wall-clock limit.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from conftest import (
    alexander_dual_ideal,
    complex_from_faces,
    induced_subgraph,
    is_unit,
    is_zero,
    labelled,
    oracle_ind_hypergraph_facets,
    oracle_is_shellable,
    sorted_facets,
    stanley_reisner,
)

from rindep.cli import main as cli_main
from rindep.complexes import f_vector, ind_r, link, pure_skeleton
from rindep.decompose import (
    is_shellable,
    is_vertex_decomposable,
    verify_shedding_certificate,
    verify_shelling_certificate,
)
from rindep.graphs import (
    Graph,
    cycle_graph,
    enumerate_trees,
    half_apex_clique,
    is_caterpillar,
    twin_bridge_paths,
)
from rindep.homology import is_scm, reduced_homology
from rindep.hypergraphs import Hypergraph, con_r, is_chordal_hypergraph
from rindep.ideals import MonomialIdeal, is_vertex_splittable


@contextmanager
def criterion(name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"{name} took {elapsed:.1f}s, limit {limit_seconds}s"
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def corpus_200():
    """200 random graphs on at most 7 vertices, fixed seed."""
    rng = random.Random(20260810)
    graphs = []
    while len(graphs) < 200:
        n = rng.randint(3, 7)
        verts = [str(i) for i in range(1, n + 1)]
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [e for e in itertools.combinations(verts, 2) if rng.random() < p]
        graphs.append(Graph.from_edges(verts, edges))
    return graphs


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_figure_one_facets(capsys):
    with criterion("1 figure-1 facets", 1.0):
        code, out = run_cli(capsys, "build", "--gen", "fig1", "--r", "1")
        assert code == 0
        assert json.loads(out)["facets"] == [
            ["v1", "v5"], ["v2", "v3", "v4"], ["v3", "v4", "v5"],
        ]
        code, out = run_cli(capsys, "build", "--gen", "fig1", "--r", "2")
        assert code == 0
        assert json.loads(out)["facets"] == [
            ["v1", "v2"], ["v1", "v3", "v5"], ["v1", "v4", "v5"], ["v2", "v3", "v4", "v5"],
        ]


@pytest.mark.parametrize("r", [2, 3])
def test_criterion_02_half_apex_counterexample(r):
    with criterion(f"2 half-apex clique family, r={r}", 30.0):
        k = ind_r(half_apex_clique(r), r + 1)
        report = is_scm(k)
        assert not report.sequentially_cohen_macaulay
        skeletons = dict(report.skeletons)
        assert report.failing_dimensions() == [r + 1]
        for m in range(1, r + 1):
            assert skeletons[m].cohen_macaulay, f"skeleton m={m} should be CM"
        bad = skeletons[r + 1]
        assert bad.witness_face == frozenset({"x1", "x2"})


@pytest.mark.parametrize("r", [2, 3])
def test_criterion_03_twin_bridge_counterexample(r):
    with criterion(f"3 twin-bridge family, r={r}", 60.0):
        k = ind_r(twin_bridge_paths(r), r)
        assert not any(reduced_homology(k).reduced)
        assert not any(reduced_homology(k, 2).reduced)
        report = is_scm(k)
        assert not report.sequentially_cohen_macaulay
        # the top skeleton is generated by the cardinality-2r faces, i.e.
        # dimension 2r-1
        top = 2 * r - 1
        assert k.dimension == top
        assert top in report.failing_dimensions()
        skeleton = pure_skeleton(k, top)
        face = frozenset(
            [str(i) for i in range(1, r)] + [str(i) for i in range(r + 2, 2 * r + 1)]
        )
        lk = link(skeleton, face)
        assert reduced_homology(lk).betti(0) == 1
        # the reported witness is itself a genuine violation
        reported = dict(report.skeletons)[top]
        wl = link(skeleton, reported.witness_face)
        assert reduced_homology(wl).betti(reported.witness_degree) != 0
        assert reported.witness_degree < wl.dimension
        if r == 2:
            assert reported.witness_face == face


def test_criterion_04_caterpillar_sweep():
    with criterion("4 caterpillars <= 9 vertices are decomposable", 600.0):
        items = 0
        for n in range(1, 10):
            for tree in enumerate_trees(n):
                if not is_caterpillar(tree):
                    continue
                for r in (1, 2, 3):
                    k = ind_r(tree, r)
                    res = is_vertex_decomposable(k)
                    assert res.decomposable is True, (n, r)
                    assert verify_shedding_certificate(k, res.certificate)
                    items += 1
        assert items == 240  # 80 caterpillar classes x 3 values of r


def test_criterion_05_tree_shellability_sweep():
    with criterion("5 trees <= 8 vertices are shellable and decomposable", 900.0):
        items = 0
        for n in range(1, 9):
            for tree in enumerate_trees(n):
                for r in (1, 2, 3):
                    k = ind_r(tree, r)
                    sh = is_shellable(k)
                    assert sh.shellable is True, (n, r)
                    assert verify_shelling_certificate(k, sh.order)
                    vd = is_vertex_decomposable(k)
                    assert vd.decomposable is True, (n, r)
                    assert verify_shedding_certificate(k, vd.certificate)
                    items += 1
        assert items == 144  # 48 tree classes x 3 values of r


def test_criterion_06_hypergraph_chordality():
    with criterion("6 connected-subset hypergraphs of trees are chordal", 600.0):
        for n in range(1, 7):
            for tree in enumerate_trees(n):
                for r in (1, 2):
                    res = is_chordal_hypergraph(con_r(tree, r))
                    assert res.chordal is True, (n, r)
        c4 = cycle_graph(4)
        square = Hypergraph(c4.vertices, c4.masks)
        res = is_chordal_hypergraph(square)
        assert res.chordal is False
        assert res.witness == square


def test_criterion_07_dual_oracle_equivalence(corpus_200):
    with criterion("7 decomposability equals dual splittability", 600.0):
        disagreements = 0
        for g in corpus_200:
            for r in (1, 2):
                k = ind_r(g, r)
                vd = is_vertex_decomposable(k).decomposable
                sr = stanley_reisner(k)
                if is_zero(sr):
                    split = True  # the zero ideal is a splitting base case
                else:
                    split = is_vertex_splittable(alexander_dual_ideal(sr)).splittable
                if vd != split:
                    disagreements += 1
        assert disagreements == 0


def test_criterion_08_hypergraph_complex_identity(corpus_200):
    with criterion("8 independence complexes agree through the hypergraph", 120.0):
        for g in corpus_200:
            for r in (1, 2):
                assert oracle_ind_hypergraph_facets(con_r(g, r)) == set(ind_r(g, r).facets)


def test_criterion_09_worked_example_fixture():
    from rindep.graphs import make_caterpillar
    from rindep.ideals import dual_of_ind

    with criterion("9 caterpillar dual-ideal fixture", 10.0):
        data = json.loads((Path(__file__).parent / "data" / "caterpillar_dual_fixture.json").read_text())
        spec = data["caterpillar"]
        cg = make_caterpillar(spec["leaf_counts"])
        r = data["r"]

        # the smallest sub-caterpillar dual must match exactly
        tail = data["dual_on_last_two_spine_segments"]
        sub = induced_subgraph(cg, [v for v in cg.vertices if v not in set(tail["removed_vertices"])])
        assert {frozenset(g) for g in dual_of_ind(sub, r).generators} == {
            frozenset(g) for g in tail["generators"]
        }

        # every expected generator of the other sub-duals is a minimal
        # generator of the computed ideal (here: exact equality holds)
        for key in ("dual_with_first_spine_vertex_removed", "dual_with_first_leaf_removed"):
            block = data[key]
            sub = induced_subgraph(
                cg, [v for v in cg.vertices if v not in set(block["removed_vertices"])]
            )
            computed = {frozenset(g) for g in dual_of_ind(sub, r).generators}
            expected = {frozenset(g) for g in block["generators"]}
            assert expected <= computed, key
            assert computed == expected, f"{key}: computed extras {computed - expected}"

        # four-piece decomposition: membership plus pivot structure
        dual = dual_of_ind(cg, r)
        decomposition = data["four_piece_decomposition"]
        pivots = decomposition["pivot_order"]
        buckets = {p: set() for p in pivots}
        for gen in dual.generators:
            first = next(p for p in pivots if p in gen)
            buckets[first].add(gen - {first})
        for pivot, gens in decomposition["pieces"].items():
            expected = {frozenset(g) for g in gens}
            for g in expected:
                assert any(d <= g | {pivot} for d in dual.generators)
            assert buckets[pivot] == expected, pivot


def test_criterion_10_property_suite(corpus_200):
    with criterion("10 property suite", 600.0):
        assert __debug__  # the boundary and Euler identities assert on every run

        # alexander-dual involution on 100 random antichains
        rng = random.Random(424242)
        done = 0
        while done < 100:
            n = rng.randint(2, 8)
            variables = [chr(97 + i) for i in range(n)]
            supports = [
                frozenset(rng.sample(variables, rng.randint(1, n)))
                for _ in range(rng.randint(1, 6))
            ]
            minimal = [s for s in supports if not any(t < s for t in supports)]
            ideal = MonomialIdeal.from_supports(variables, set(minimal))
            if is_zero(ideal) or is_unit(ideal):
                continue
            assert alexander_dual_ideal(alexander_dual_ideal(ideal)) == ideal
            done += 1

        # implication chain over the tree corpus and the random corpus
        violations = 0
        chain_corpus = []
        for n in range(1, 8):
            for tree in enumerate_trees(n):
                for r in (1, 2, 3):
                    chain_corpus.append(ind_r(tree, r))
        for g in corpus_200:
            for r in (1, 2):
                chain_corpus.append(ind_r(g, r))
        euler_checked = 0
        for k in chain_corpus:
            vd = is_vertex_decomposable(k).decomposable
            sh = is_shellable(k).shellable
            if vd and not sh:
                violations += 1
            if sh and not is_scm(k).sequentially_cohen_macaulay:
                violations += 1
            profile = reduced_homology(k)
            fv = f_vector(k)
            euler_f = sum((-1) ** d * c for d, c in enumerate(fv, start=-1))
            euler_b = sum((-1) ** d * b for d, b in enumerate(profile.reduced, start=-1))
            assert euler_f == euler_b
            euler_checked += 1
        assert violations == 0
        assert euler_checked == len(chain_corpus)

        # shellability search vs the all-permutations oracle
        rng = random.Random(171717)
        for _ in range(100):
            n = rng.randint(2, 6)
            verts = [chr(97 + i) for i in range(n)]
            raw = [
                frozenset(rng.sample(verts, rng.randint(1, n)))
                for _ in range(rng.randint(1, 9))
            ]
            k = complex_from_faces(verts, raw)
            if len(k.facets) > 7:
                k = complex_from_faces(verts, sorted_facets(k)[:7])
            assert (is_shellable(k).shellable is True) == oracle_is_shellable(list(k.facets))
