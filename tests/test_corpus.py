"""Every graph with 1-6 vertices, up to isomorphism (networkx's atlas,
indices 1-208), at r = 1..3: all seven properties through
``cli.run_checks``, the theorems that tie their verdicts together, and
every certificate replayed by the conftest oracles."""

import networkx as nx
from conftest import oracle_shelling_order_ok, oracle_verify_shedding, oracle_verify_split

from rindep import cli
from rindep.complexes import ind_r
from rindep.graphs import Graph


def full_restrictions(order: list[frozenset[str]], size: int) -> list[int]:
    """Per reduced degree d (list index d + 1, ``size`` entries), the number
    of d-dimensional facets F of the shelling ``order`` whose restriction is
    all of F: for each x in F, some earlier facet contains F - x."""
    counts = [0] * size
    for j, f in enumerate(order):
        if all(any(f - {x} <= e for e in order[:j]) for x in f):
            counts[len(f)] += 1
    return counts


def test_small_graph_corpus_obeys_the_theorems_and_every_certificate_replays():
    items = shelling_orders = replays = 0
    for atlas_graph in nx.graph_atlas_g()[1:209]:
        g = Graph.from_edges(atlas_graph.nodes, atlas_graph.edges)
        for r in (1, 2, 3):
            k = ind_r(g, r)
            report = cli.run_checks(k, list(cli.ALL_PROPS), dict(cli.BUDGETS), None, g, r)
            assert set(report["verdicts"]) == set(cli.ALL_PROPS) - {"homology"}
            v = {prop: {"true": True, "false": False}[s] for prop, s in report["verdicts"].items()}
            pure = len({len(f) for f in k.facets}) == 1
            # Moradi-Khosh-Ahang; Bjorner-Wachs; Stanley; CM is pure SCM;
            # Woodroofe
            assert v["vd"] == v["splittable"], (g, r)
            assert not v["vd"] or v["shellable"], (g, r)
            assert not v["shellable"] or v["scm"], (g, r)
            assert v["cm"] == (pure and v["scm"]), (g, r)
            assert not v["chordal-hypergraph"] or v["shellable"], (g, r)
            certificates = report.get("certificates", {})
            if v["vd"]:
                assert oracle_verify_shedding(k, certificates["vd"]), (g, r)
                replays += 1
            if "splittable" in certificates:
                assert oracle_verify_split(report["splittable"]["dual_ideal"], certificates["splittable"]), (g, r)
                replays += 1
            if v["shellable"]:
                order = [frozenset(f) for f in certificates["shellable"]]
                assert oracle_shelling_order_ok(order), (g, r)
                replays += 1
                # Bjorner-Wachs 1996, Thm 4.1: the Betti numbers of a
                # shellable complex count its facets with full restriction
                betti = report["betti"]["reduced"]
                assert full_restrictions(order, len(betti)) == betti, (g, r)
                shelling_orders += 1
            items += 1
    assert (items, shelling_orders, replays) == (624, 571, 1662)
