"""The contract of ``graphs.record``, the frozen record class behind every
value type of the package: construction, immutability, equality and
hashing, pickling, ``cached_property`` and rendering through
``to_json_dict``."""

import json
import pickle
from typing import ClassVar

import pytest

from rindep.complexes import SimplicialComplex, ind_r
from rindep.decompose import SheddingNode, is_vertex_decomposable
from rindep.graphs import Graph, demo_graph, record
from rindep.homology import BettiProfile, CMReport, is_cohen_macaulay, is_scm
from rindep.hypergraphs import con_r
from rindep.ideals import SplitNode, dual_of_ind, is_vertex_splittable

SETS = (("a",), ("b",))


def test_positional_construction_with_trailing_defaults_and_no_keywords():
    leaf = SheddingNode(SETS)
    assert (leaf.sets, leaf.branch, leaf.first, leaf.second) == (SETS, None, None, None)
    node = SheddingNode(SETS, "a", leaf, leaf)
    assert (node.sets, node.branch, node.first, node.second) == (SETS, "a", leaf, leaf)
    assert CMReport(True, "Q") == CMReport(True, "Q", None, None, None)
    with pytest.raises(TypeError):
        SheddingNode(SETS, "a", first=leaf, second=leaf)
    with pytest.raises(TypeError):
        SheddingNode(sets=SETS)


def test_post_init_runs():
    with pytest.raises(ValueError):
        Graph(("a", "a"), frozenset())


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (((), frozenset()), {"colour": 1}),  # unknown field
        (((),), {}),  # missing field
        ((), {}),  # every field missing
        (((), frozenset()), {"vertices": ()}),  # given twice
        (((), frozenset(), 1), {}),  # one positional too many
    ],
    ids=["unknown", "missing", "none", "twice", "too-many"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Graph(*args, **kwargs)


def test_class_variables_are_not_fields():
    with pytest.raises(TypeError):
        SheddingNode(SETS, keys=())
    assert "keys" not in repr(SheddingNode(SETS))


def test_defaults_must_come_last():
    with pytest.raises(TypeError):

        @record
        class Bad:
            a: int = 0
            b: int


def test_assignment_and_deletion_raise():
    g = demo_graph()
    with pytest.raises(AttributeError):
        g.vertices = ()
    with pytest.raises(AttributeError):
        g.colour = "red"
    with pytest.raises(AttributeError):
        del g.edges
    assert g == demo_graph()


def test_equal_with_equal_hashes_exactly_when_class_and_fields_match():
    assert demo_graph() == demo_graph() and hash(demo_graph()) == hash(demo_graph())
    assert Graph.from_edges("ab", [("a", "b")]) != Graph.from_edges("ab", [])
    shed, split = SheddingNode(SETS), SplitNode(SETS)
    assert shed != split and split != shed
    assert shed.__eq__(split) is NotImplemented
    assert len({shed, split, SheddingNode(SETS)}) == 2


def test_repr_names_the_fields():
    assert repr(BettiProfile((0, 1), "Q")) == "BettiProfile(reduced=(0, 1), field='Q')"


def test_pickle_round_trip_returns_an_equal_object():
    g = demo_graph()
    g.adjacency  # a cached value travels with the instance
    k = ind_r(g, 2)
    cert = is_vertex_decomposable(k).certificate
    for obj in (g, k, cert, is_scm(k), con_r(g, 2)):
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_cached_property_works_and_leaves_identity_alone():
    g, k = demo_graph(), ind_r(demo_graph(), 2)
    assert g.adjacency is g.adjacency and "adjacency" in vars(g)
    assert k.facet_masks is k.facet_masks and "facet_masks" in vars(k)
    assert g == demo_graph() and hash(g) == hash(demo_graph())
    assert k == ind_r(demo_graph(), 2) and hash(k) == hash(ind_r(demo_graph(), 2))


def test_every_report_object_renders_through_to_json_dict():
    """The CLI writes reports with ``default=to_json_dict``: a record must
    not serialize on its own, as a tuple would, or that default is never
    called."""
    g = demo_graph()
    k = ind_r(g, 2)
    ideal = dual_of_ind(g, 2, k)
    reports = [
        k,
        con_r(g, 2),
        ideal,
        is_cohen_macaulay(k),
        is_cohen_macaulay(SimplicialComplex(("a", "b", "c"), frozenset({frozenset("ab"), frozenset("c")}))),
        is_scm(k),
        is_vertex_decomposable(k).certificate,
        is_vertex_splittable(ideal).certificate,
    ]
    assert {type(r).__name__ for r in reports} == {
        "SimplicialComplex", "Hypergraph", "MonomialIdeal", "CMReport", "SCMReport", "SheddingNode", "SplitNode",
    }
    for report in reports:
        rendered = json.dumps(report, default=lambda o: o.to_json_dict())
        assert rendered == json.dumps(report.to_json_dict()) and rendered.startswith("{")


@pytest.mark.parametrize("class_var", ["ClassVar[int]", ClassVar[int]], ids=["string", "evaluated"])
def test_record_returns_the_class_it_decorates(class_var):
    cls = record(type("Point", (), {"__annotations__": {"x": "int", "y": class_var}, "y": 3}))
    p = cls(1)
    assert cls.__name__ == "Point" and p.x == 1 and p.y == 3 and repr(p) == "Point(x=1)"
