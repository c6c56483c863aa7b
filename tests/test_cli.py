import concurrent.futures
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from conftest import (
    labelled,
    malformed_certificates,
    oracle_cm,
    oracle_ind_r_facets,
    path_complex,
    recursion_limit,
)

from rindep import cli, decompose, graphs
from rindep.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    build_generator,
    main,
)
from rindep.complexes import ind_r
from rindep.decompose import SheddingNode
from rindep.graphs import Graph, is_caterpillar, parse_edge_list
from rindep.hypergraphs import Hypergraph, minimal_vertex_covers
from rindep.ideals import SplitNode

GENERATOR_TOKENS = [
    "fig1",
    "path:7",
    "cycle:5",
    "complete:5",
    "star:4",
    "caterpillar:1,2,1,1",
    "H:2",
    "G:2",
    "H:3",
    "G:3",
]

# the path a-b-c-d as a complex: shellable, vertex decomposable and with a
# splittable dual
PATH_COMPLEX = {"ground_set": ["a", "b", "c", "d"], "facets": [["a", "b"], ["b", "c"], ["c", "d"]]}


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool by one that runs each submitted item at once
    in this process, so no worker process starts however large --jobs is.
    The returned dict holds the size of each pool made and the number of
    items submitted so far."""
    log = {"created": [], "submitted": 0}

    class FakePool:
        def __init__(self, max_workers):
            log["created"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            log["submitted"] += 1
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return log


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_fig1_r1(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--gen", "fig1", "--r", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["facets"] == [["v1", "v5"], ["v2", "v3", "v4"], ["v3", "v4", "v5"]]

    def test_fig1_r2(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--gen", "fig1", "--r", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["facets"] == [
            ["v1", "v2"],
            ["v1", "v3", "v5"],
            ["v1", "v4", "v5"],
            ["v2", "v3", "v4", "v5"],
        ]

    def test_path7_matches_brute_force(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--gen", "path:7", "--r", "2")
        assert code == EXIT_OK
        got = {frozenset(f) for f in json.loads(out)["facets"]}
        assert got == oracle_ind_r_facets(build_generator("path:7"), 2)

    def test_complete5_r2_all_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--gen", "complete:5", "--r", "2")
        got = {frozenset(f) for f in json.loads(out)["facets"]}
        assert got == {frozenset(c) for c in itertools.combinations("12345", 2)}

    def test_bad_r(self, capsys):
        code, _, err = run_cli(capsys, "build", "--gen", "fig1", "--r", "0")
        assert code == EXIT_PARSE and "r must be" in err

    def test_unknown_generator(self, capsys):
        code, _, err = run_cli(capsys, "build", "--gen", "nonsense:3", "--r", "1")
        assert code == EXIT_PARSE

    def test_argument_to_a_generator_that_takes_none(self, capsys):
        code, out, err = run_cli(capsys, "build", "--gen", "fig1:banana", "--r", "1")
        assert code == EXIT_PARSE and out == "" and "fig1 takes no argument" in err

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("vertex z\na b\nb c\n")
        code, out, _ = run_cli(capsys, "build", "--input", str(path), "--r", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["ground_set"] == ["z", "a", "b", "c"]

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b c\n")
        code, _, err = run_cli(capsys, "build", "--input", str(path), "--r", "1")
        assert code == EXIT_PARSE and "line 1" in err

    def test_beyond_enumeration_guard_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "build", "--gen", "path:21", "--r", "2")
        message = "error: bad generator argument 'path:21': facet enumeration over 21 vertices exceeds the guard\n"
        assert (code, out, err) == (EXIT_PARSE, "", message)

    @pytest.mark.parametrize("n", [21, 100_000])
    @pytest.mark.parametrize("name", ["path.edges", "path.json"])
    def test_graph_file_beyond_the_guard_is_refused_before_its_edges_are_masks(
        self, capsys, monkeypatch, tmp_path, n, name
    ):
        verts = [str(i) for i in range(1, n + 1)]
        edges = list(zip(verts, verts[1:]))
        path = tmp_path / name
        if name.endswith(".json"):
            path.write_text(json.dumps({"vertices": verts, "edges": edges}))
        else:
            path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        monkeypatch.setattr(graphs, "parse_family", lambda *args: pytest.fail("an edge became a mask"))
        code, out, err = run_cli(capsys, "build", "--input", str(path), "--r", "1")
        assert (code, out, err) == (EXIT_PARSE, "", f"error: facet enumeration over {n} vertices exceeds the guard\n")

    def test_cover_enumeration_beyond_guard_names_the_guard(self):
        ground = [f"v{i}" for i in range(21)]
        wide = labelled(Hypergraph, ground, [ground[0:3], ground[2:5]])
        with pytest.raises(ValueError, match="cover enumeration over 21 vertices exceeds the guard"):
            minimal_vertex_covers(wide)

    def test_complex_file_beyond_the_guard_takes_the_dual_without_covers(self, capsys, tmp_path):
        # two triangles sharing a vertex, among 21: the dual is the facet
        # complements, and the link of the shared vertex is disconnected
        path = tmp_path / "wide.json"
        ground = [f"v{i}" for i in range(21)]
        path.write_text(json.dumps({"ground_set": ground, "facets": [ground[0:3], ground[2:5]]}))
        code, out, _ = run_cli(capsys, "check", "--complex", str(path), "--props", "splittable,vd")
        assert code == EXIT_OK
        assert json.loads(out)["verdicts"] == {"splittable": "false", "vd": "false"}

    @pytest.mark.parametrize("prop", ["homology", "cm", "scm"])
    def test_complex_file_beyond_the_guard_has_no_homology(self, capsys, tmp_path, prop):
        path = tmp_path / "wide.json"
        ground = [f"v{i}" for i in range(21)]
        path.write_text(json.dumps({"ground_set": ground, "facets": [ground[0:3], ground[3:6]]}))
        code, out, err = run_cli(capsys, "check", "--complex", str(path), "--props", prop)
        assert code == EXIT_PARSE and out == "" and "guard" in err


class TestGeneratorRoundTrip:
    @pytest.mark.parametrize("token", GENERATOR_TOKENS)
    def test_edge_list_round_trip(self, token):
        g = build_generator(token)
        text = "".join(f"vertex {v}\n" for v in g.vertices)
        text += "".join(f"{u} {v}\n" for u, v in g.sorted_edges())
        assert parse_edge_list(text) == g


class TestCheck:
    def test_half_apex_scm(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--gen", "H:2", "--r", "3", "--props", "scm"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["verdicts"]["scm"] == "false"
        assert data["witnesses"]["scm"]["m"] == 3
        assert data["witnesses"]["scm"]["witness_face"] == ["x1", "x2"]

    def test_bridge_homology_and_scm(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--gen", "G:2", "--r", "2", "--props", "homology,scm"
        )
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["betti"]["reduced"] == [0, 0, 0, 0, 0]
        assert data["verdicts"]["scm"] == "false"

    def test_caterpillar_vd_and_splittable_with_certificates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--gen", "caterpillar:1,2,1,1", "--r", "3",
            "--props", "vd,splittable",
        )
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["verdicts"] == {"vd": "true", "splittable": "true"}
        assert "vd" in data["certificates"] and "splittable" in data["certificates"]

    def test_chordal_hypergraph_prop(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--gen", "path:4", "--r", "2", "--props", "chordal-hypergraph"
        )
        data = json.loads(out)
        assert code == EXIT_OK and data["verdicts"]["chordal-hypergraph"] == "true"

    def test_chordal_hypergraph_without_a_graph_runs_no_property(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"ground_set": ["a", "b"], "facets": [["a"], ["b"]]}))
        monkeypatch.setattr(cli, "is_scm", lambda *args: pytest.fail("a property ran"))
        code, out, err = run_cli(
            capsys, "check", "--complex", str(path), "--props", "scm,chordal-hypergraph"
        )
        assert (code, out, err) == (EXIT_PARSE, "", "error: chordal-hypergraph needs a graph input and r\n")

    def test_cycle_as_hypergraph_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--gen", "cycle:4", "--r", "1", "--props", "chordal-hypergraph"
        )
        data = json.loads(out)
        assert data["verdicts"]["chordal-hypergraph"] == "false"
        witness = data["witnesses"]["chordal-hypergraph"]
        assert witness["vertices"] == ["1", "2", "3", "4"]
        assert len(witness["edges"]) == 4

    def test_budget_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--gen", "path:7", "--r", "2", "--props", "vd", "--budget-vd", "2",
        )
        assert code == EXIT_BUDGET
        assert json.loads(out)["verdicts"]["vd"] == "budget-exceeded"

    @pytest.mark.parametrize("flag", ["--budget-vd", "--budget-shell", "--budget-minor", "--budget-split"])
    def test_negative_budget_is_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--gen", "path:7", "--r", "2", "--props", "vd", flag, "-1"])
        assert exc.value.code == EXIT_PARSE
        assert "non-negative" in capsys.readouterr().err

    def test_gf_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--gen", "G:2", "--r", "2", "--props", "homology",
            "--field", "gf:2",
        )
        data = json.loads(out)
        assert data["field"] == "GF(2)" and data["betti"]["field"] == "GF(2)"

    def test_field_order_from_2_64_up_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--gen", "path:3", "--r", "1", "--props", "homology",
            "--field", "gf:18446744073709551629",
        )
        assert code == EXIT_PARSE and "2**64" in err

    def test_complex_file_input(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "build", "--gen", "fig1", "--r", "2")
        path = tmp_path / "c.json"
        path.write_text(out)
        code, out2, _ = run_cli(
            capsys, "check", "--complex", str(path), "--props", "vd,shellable,cm"
        )
        data = json.loads(out2)
        assert code == EXIT_OK
        assert data["verdicts"]["vd"] == "true"
        assert data["verdicts"]["shellable"] == "true"

    def test_simplex_splittable_note(self, capsys, tmp_path):
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"ground_set": ["a", "b"], "facets": [["a", "b"]]}))
        code, out, _ = run_cli(capsys, "check", "--complex", str(path), "--props", "splittable")
        data = json.loads(out)
        assert data["verdicts"]["splittable"] == "true"
        assert "note" in data["splittable"]

    def test_full_simplex_graph_complex_splittable_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--gen", "path:3", "--r", "3", "--props", "splittable"
        )
        data = json.loads(out)
        assert code == EXIT_OK and data["verdicts"]["splittable"] == "true"
        assert data["splittable"] == {"note": "stanley-reisner ideal is zero (simplex)"}

    def test_single_facet_with_a_ghost_vertex_takes_the_dual(self, capsys, tmp_path):
        # one facet, but not the full simplex: the ideal is (c), not zero
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps({"ground_set": ["a", "b", "c"], "facets": [["a", "b"]]}))
        code, out, _ = run_cli(capsys, "check", "--complex", str(path), "--props", "splittable")
        data = json.loads(out)
        assert code == EXIT_OK and data["verdicts"]["splittable"] == "true"
        assert data["splittable"] == {
            "dual_ideal": {"variables": ["a", "b", "c"], "generators": [["c"]]}
        }
        assert data["certificates"]["splittable"] == {"generators": [["c"]]}

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--gen", "fig1", "--r", "2", "--props", "vd,splittable"),
            ("scan", "--family", "trees", "--n", "4", "--r", "1..2", "--props", "splittable"),
        ],
        ids=["check", "scan"],
    )
    def test_ind_r_built_once_per_check(self, capsys, monkeypatch, argv):
        import rindep.cli as cli_module
        import rindep.ideals as ideals_module

        built, passed = [], []
        real_ind_r, real_dual = cli_module.ind_r, cli_module.dual_of_ind

        def counting_ind_r(*args):
            built.append(args)
            return real_ind_r(*args)

        def recording_dual(g, r, k=None):
            passed.append(k)
            return real_dual(g, r, k)

        monkeypatch.setattr(cli_module, "ind_r", counting_ind_r)
        monkeypatch.setattr(ideals_module, "ind_r", counting_ind_r)
        monkeypatch.setattr(cli_module, "dual_of_ind", recording_dual)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        items = len(out.strip().splitlines()) - 1 if argv[0] == "scan" else 1
        assert len(built) == items
        assert passed and all(k is not None for k in passed)

    @pytest.mark.parametrize(
        "argv",
        [("check", "--gen", "fig1", "--r", "2"), ("scan", "--family", "trees", "--n", "5", "--r", "1..2")],
        ids=["check", "scan"],
    )
    def test_repeated_property_runs_once(self, capsys, monkeypatch, argv):
        runs = []
        search = cli.is_vertex_decomposable

        def counting(*args):
            runs.append(args)
            return search(*args)

        monkeypatch.setattr(cli, "is_vertex_decomposable", counting)
        reports = []
        for props in ("vd", "vd,vd"):
            code, out, _ = run_cli(capsys, *argv, "--props", props)
            assert code == EXIT_OK
            reports.append(out if argv[0] == "scan" else json.loads(out))
            if argv[0] == "check":
                assert list(reports[-1].pop("timings")) == ["vd"]
        items = len(reports[0].strip().splitlines()) - 1 if argv[0] == "scan" else 1
        assert reports[0] == reports[1]
        assert len(runs) == 2 * items

    def test_missing_r_for_graph_input(self, capsys):
        code, _, err = run_cli(capsys, "check", "--gen", "fig1", "--props", "vd")
        assert code == EXIT_PARSE

    def test_unknown_prop(self, capsys):
        code, _, err = run_cli(capsys, "check", "--gen", "fig1", "--r", "1", "--props", "magic")
        assert code == EXIT_PARSE and "unknown property" in err

    def test_report_is_byte_stable_modulo_timings(self, capsys):
        argv = ["check", "--gen", "caterpillar:1,2", "--r", "2", "--props",
                "vd,shellable,cm,scm,homology,splittable"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timings"), d2.pop("timings")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


class TestScan:
    def test_single_trivial_item(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--family", "trees", "--n", "1", "--r", "1",
            "--props", "shellable",
        )
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 2  # one item plus the summary
        assert lines[0]["verdicts"] == {"shellable": "true"}
        assert lines[0]["certified"] == {"shellable": True}
        assert lines[1]["summary"]["items"] == 1
        assert lines[1]["summary"]["counterexamples"] == []

    def test_counterexamples_name_the_false_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--family", "trees", "--n", "5", "--r", "1", "--props", "cm,scm"
        )
        assert code == EXIT_OK
        *lines, summary = [json.loads(line) for line in out.splitlines()]
        summary = summary["summary"]
        assert summary["verdicts"] == {"cm": {"true": 3, "false": 5}, "scm": {"true": 8}}
        named = [(3, 0), (4, 0), (5, 0), (5, 1), (5, 2)]
        assert summary["counterexamples"] == [{"n": n, "index": i, "r": 1, "prop": "cm"} for n, i in named]
        by_item = {(line["n"], line["index"]): line for line in lines}
        for n, i in named:
            line = by_item[n, i]
            assert line["verdicts"]["cm"] == "false"
            tree = Graph.from_edges(map(str, range(1, n + 1)), line["edges"])
            assert oracle_cm(ind_r(tree, 1)).cohen_macaulay is False

    def test_caterpillar_family_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--family", "caterpillars", "--n", "8", "--r", "1..2",
            "--props", "vd",
        )
        lines = [json.loads(line) for line in out.strip().splitlines()]
        summary = lines[-1]["summary"]
        # caterpillar classes on 1..8 vertices: 1,1,1,2,3,6,10,20 -> 44 graphs x 2 r
        # values; from 7 vertices on, some trees are not caterpillars
        assert summary["items"] == 88
        assert summary["verdicts"]["vd"] == {"true": 88}
        # the indices of each n run 0..count-1 over distinct caterpillar classes
        for n, count in enumerate((1, 1, 1, 2, 3, 6, 10, 20), start=1):
            edges = {line["index"]: line["edges"] for line in lines[:-1] if line["n"] == n}
            assert sorted(edges) == list(range(count))
            graphs = [Graph.from_edges(map(str, range(1, n + 1)), e) for e in edges.values()]
            assert all(map(is_caterpillar, graphs))
            as_nx = [nx.Graph(g.sorted_edges()) for g in graphs]
            assert not any(nx.is_isomorphic(a, b) for a, b in itertools.combinations(as_nx, 2))

    def test_parallel_matches_serial(self, capsys):
        argv = ["scan", "--family", "trees", "--n", "5", "--r", "1..2", "--props", "vd,shellable"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert out1 == out2

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [("1000", 2, [2]), ("3", 8, [3]), ("1000", 64, [6]), ("1000", None, [])],
    )
    def test_jobs_clamped_to_cpus_and_items(self, capsys, monkeypatch, fake_pool, jobs, cpus, workers):
        created = fake_pool["created"]
        argv = ["scan", "--family", "trees", "--n", "3", "--r", "1..2", "--props", "vd"]
        _, serial, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
        assert (code, out, created) == (EXIT_OK, serial, workers)

    def test_pool_takes_items_as_lines_go_out(self, monkeypatch, fake_pool):
        # two workers keep at most four items in flight, and one more is
        # submitted as the first line leaves; the scan has 28 items
        written = []
        monkeypatch.setattr(cli, "print", lambda *a, **k: written.append(fake_pool["submitted"]), raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ["scan", "--family", "trees", "--n", "6", "--r", "1..2", "--props", "vd", "--jobs", "2"]
        assert main(argv) == EXIT_OK
        assert fake_pool["created"] == [2] and len(written) == 29
        assert written[0] <= 2 * 2 + 1 and written[-1] == 28

    # no tree has 0 vertices, so these fail only if checked before the items
    @pytest.mark.parametrize(
        "flag, value",
        [("--field", "banana"), ("--field", "gf:x"), ("--r", "3..1"), ("--r", "0..2"),
         ("--r", "a"), ("--r", "1..x"), ("--r", "1.."), ("--r", ""), ("--props", "bogus"), ("--props", " ")],
    )
    def test_arguments_checked_before_any_item(self, capsys, flag, value):
        args = {"--r": "1", "--props": "vd", flag: value}
        code, out, err = run_cli(
            capsys, "scan", "--family", "trees", "--n", "0", *itertools.chain(*args.items())
        )
        assert (code, out) == (EXIT_PARSE, "") and err.startswith("error:")
        # the message names the flag, or says what the value should describe
        assert flag in err or {"--field": "field descriptor", "--props": "unknown property"}[flag] in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "scan", "--family", "trees", "--n", "3", "--r", "1", "--props", "vd",
            "--jobs", jobs,
        )
        assert (code, out) == (EXIT_PARSE, "") and "--jobs" in err

    def test_unwritable_out_is_rejected_before_any_item(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "enumerate_trees", lambda n: pytest.fail("an item was built"))
        code, out, err = run_cli(
            capsys, "scan", "--family", "trees", "--n", "4", "--r", "1", "--props", "vd",
            "--out", str(tmp_path / "missing" / "scan.jsonl"),
        )
        assert (code, out) == (EXIT_PARSE, "") and err.startswith("error:")

    @pytest.mark.parametrize("n", ["21", "0", "-3"])
    def test_n_outside_the_tree_range_is_rejected_before_any_item(self, capsys, monkeypatch, tmp_path, n):
        # the 20-vertex guard of ind_r is the one size limit
        message = f"--n must be at least 1, got {n}"
        if n == "21":
            message = "facet enumeration over 21 vertices exceeds the guard"
        monkeypatch.setattr(cli, "ind_r", lambda *args: pytest.fail("an item was checked"))
        code, out, err = run_cli(
            capsys, "scan", "--family", "trees", "--n", n, "--r", "1", "--props", "vd",
            "--out", str(tmp_path / "scan.jsonl"),
        )
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {message}\n")
        assert not (tmp_path / "scan.jsonl").exists()

    def test_trees_past_ten_vertices(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--family", "trees", "--n", "11", "--r", "1", "--props", "vd")
        assert code == EXIT_OK
        *lines, summary = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 436 and [line["n"] for line in lines].count(11) == 235
        assert summary["summary"]["verdicts"] == {"vd": {"true": 436}}
        assert all(line["certified"] == {"vd": True} for line in lines)

    def test_failure_mid_scan_keeps_the_lines_written(self, capsys, monkeypatch):
        from rindep.ideals import CrossCheckError

        build = cli.ind_r
        built = []

        def failing_third(*args):
            built.append(args)
            if len(built) == 3:
                raise CrossCheckError("forced by the test")
            return build(*args)

        monkeypatch.setattr(cli, "ind_r", failing_third)
        code, out, err = run_cli(
            capsys, "scan", "--family", "trees", "--n", "4", "--r", "1", "--props", "vd"
        )
        assert code == 4 and "cross-check" in err
        assert [json.loads(line)["n"] for line in out.splitlines()] == [1, 2]

    def test_budget_exhaustion_recorded_not_fatal(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--family", "trees", "--n", "6", "--r", "2",
            "--props", "vd", "--budget-vd", "2",
        )
        assert code == EXIT_BUDGET
        lines = [json.loads(line) for line in out.strip().splitlines()]
        summary = lines[-1]["summary"]
        assert summary["budget_exceeded"] > 0
        assert summary["items"] == 14  # the sweep still covered every tree


class TestVerify:
    def _build_and_check(self, capsys, tmp_path, props):
        _, out, _ = run_cli(capsys, "build", "--gen", "path:6", "--r", "2")
        complex_path = tmp_path / "c.json"
        complex_path.write_text(out)
        _, rep_out, _ = run_cli(
            capsys, "check", "--gen", "path:6", "--r", "2", "--props", props
        )
        return complex_path, json.loads(rep_out)

    def test_round_trip_shedding(self, capsys, tmp_path):
        complex_path, report = self._build_and_check(capsys, tmp_path, "vd")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["certificates"]["vd"]))
        code, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert code == EXIT_OK and out.strip() == "valid"

    def test_round_trip_shelling(self, capsys, tmp_path):
        complex_path, report = self._build_and_check(capsys, tmp_path, "shellable")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["certificates"]["shellable"]))
        code, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert code == EXIT_OK and out.strip() == "valid"

    def test_tampered_shelling_rejected(self, capsys, tmp_path):
        complex_path, report = self._build_and_check(capsys, tmp_path, "shellable")
        order = report["certificates"]["shellable"]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(order[:-1]))  # drop a facet
        code, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert code == EXIT_INVALID and out.strip() == "invalid"

    def test_round_trip_shelling_under_order_key(self, capsys, tmp_path):
        complex_path, report = self._build_and_check(capsys, tmp_path, "shellable")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"order": report["certificates"]["shellable"]}))
        code, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert code == EXIT_OK and out.strip() == "valid"

    def test_tampered_shedding_rejected(self, capsys, tmp_path):
        complex_path, report = self._build_and_check(capsys, tmp_path, "vd")
        tree = report["certificates"]["vd"]
        # swap the roles of the two children: the link facets no longer match
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({**tree, "link": tree["del"], "del": tree["link"]}))
        code, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert code == EXIT_INVALID and out.strip() == "invalid"

    def test_mismatched_complex_rejected(self, capsys, tmp_path):
        _, report = self._build_and_check(capsys, tmp_path, "vd")
        _, other_out, _ = run_cli(capsys, "build", "--gen", "path:5", "--r", "2")
        other_path = tmp_path / "other.json"
        other_path.write_text(other_out)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["certificates"]["vd"]))
        code, out, _ = run_cli(capsys, "verify", str(other_path), str(cert_path))
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("index", range(7))
    def test_malformed_certificate_is_invalid(self, capsys, tmp_path, index):
        complex_path, cert_path = tmp_path / "c.json", tmp_path / "cert.json"
        complex_path.write_text(json.dumps(PATH_COMPLEX))
        cert_path.write_text(json.dumps(malformed_certificates(SheddingNode.keys)[index]))
        assert run_cli(capsys, "verify", str(complex_path), str(cert_path)) == (EXIT_INVALID, "invalid\n", "")

    def test_a_fault_inside_the_replay_is_no_invalid_certificate(self, capsys, tmp_path, monkeypatch):
        # only a rejected input reads as invalid; any other exception leaves main
        complex_path, report = self._build_and_check(capsys, tmp_path, "vd")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["certificates"]["vd"]))

        def faulty_replay(*args):
            raise TypeError("a fault in the replay")

        monkeypatch.setattr(decompose, "replay", faulty_replay)
        with pytest.raises(TypeError, match="a fault in the replay"):
            main(["verify", str(complex_path), str(cert_path)])

    def test_unreadable_cert_is_parse_error(self, capsys, tmp_path):
        complex_path, _ = self._build_and_check(capsys, tmp_path, "vd")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("{broken")
        code, _, err = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert code == EXIT_PARSE

    def test_round_trip_splitting(self, capsys, tmp_path):
        complex_path, report = self._build_and_check(capsys, tmp_path, "splittable")
        assert report["verdicts"]["splittable"] == "true"
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["certificates"]["splittable"]))
        code, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert code == EXIT_OK and out.strip() == "valid"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: {**c, "generators": c["generators"][:-1]},  # drop a generator
            lambda c: {**c, "pivot": "no-such-variable"},
            lambda c: {**c, "quotient": c["remainder"], "remainder": c["quotient"]},
            lambda c: {"generators": 5},
        ],
        ids=["dropped-generator", "unknown-pivot", "swapped-parts", "malformed"],
    )
    def test_mutated_splitting_rejected(self, capsys, tmp_path, mutate):
        complex_path, report = self._build_and_check(capsys, tmp_path, "splittable")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(mutate(report["certificates"]["splittable"])))
        code, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert code == EXIT_INVALID and out.strip() == "invalid"

    def test_splitting_against_a_simplex_is_invalid(self, capsys, tmp_path):
        # a simplex on its whole ground set has the zero ideal, with no dual
        _, report = self._build_and_check(capsys, tmp_path, "splittable")
        simplex_path = tmp_path / "simplex.json"
        simplex_path.write_text(json.dumps({"ground_set": ["1", "2"], "facets": [["1", "2"]]}))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["certificates"]["splittable"]))
        code, out, _ = run_cli(capsys, "verify", str(simplex_path), str(cert_path))
        assert code == EXIT_INVALID and out.strip() == "invalid"

    @pytest.mark.parametrize(
        "cert",
        [
            {"order": 5},
            {"order": [5]},
            [None],
            {"nonsense": 1},
            "strings are not certificates",
            [["1"], 5],
            # the certificates of ``abc`` below with each label list written
            # as a string, which would read as its letters
            pytest.param(["ab", "bc"], id="string-facets-in-shelling"),
            pytest.param({"order": ["ab", "bc"]}, id="string-facets-under-order"),
            pytest.param(
                {"facets": ["ab", "bc"], "vertex": "a", "link": {"facets": ["b"]}, "del": {"facets": ["bc"]}},
                id="string-facets-in-shedding-tree",
            ),
            pytest.param(
                {
                    "generators": ["a", "c"],
                    "pivot": "a",
                    "quotient": {"generators": [""]},
                    "remainder": {"generators": ["c"]},
                },
                id="string-generators-in-splitting",
            ),
        ],
    )
    def test_malformed_cert_is_invalid(self, capsys, tmp_path, cert):
        complex_path, _ = self._build_and_check(capsys, tmp_path, "vd")
        abc_path = tmp_path / "abc.json"
        abc_path.write_text(json.dumps({"ground_set": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"]]}))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        for path in (complex_path, abc_path):
            code, out, _ = run_cli(capsys, "verify", str(path), str(cert_path))
            assert code == EXIT_INVALID and out.strip() == "invalid"

    def _path_certificate(self, capsys, tmp_path, prop):
        """The complex file of the path a-b-c-d and its ``prop`` certificate."""
        complex_path = tmp_path / "path.json"
        complex_path.write_text(json.dumps(PATH_COMPLEX))
        _, out, _ = run_cli(capsys, "check", "--complex", str(complex_path), "--props", prop)
        return complex_path, json.loads(out)["certificates"][prop]

    def test_shelling_facet_that_repeats_a_label_is_invalid(self, capsys, tmp_path):
        # a repeated label is refused in every certificate, as in a shedding
        # tree or a splitting
        complex_path, order = self._path_certificate(capsys, tmp_path, "shellable")
        cert_path = tmp_path / "cert.json"
        for cert, expected in ((order, "valid"), ([f + f[:1] for f in order], "invalid")):
            cert_path.write_text(json.dumps(cert))
            _, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
            assert out.strip() == expected

    @pytest.mark.parametrize("prop", ["vd", "splittable"])
    @pytest.mark.parametrize(
        "mutation, expected",
        [
            ("repeated set", "invalid"),
            ("repeated label in a set", "invalid"),
            ("label outside the complex", "invalid"),
            ("swapped children", "invalid"),
            ("sets listed in another order", "valid"),
        ],
    )
    def test_each_mutation_of_a_tree_certificate_reads_as_before(self, capsys, tmp_path, prop, mutation, expected):
        complex_path, cert = self._path_certificate(capsys, tmp_path, prop)
        sets_key, _, first_key, second_key = (SheddingNode if prop == "vd" else SplitNode).keys
        sets = cert[sets_key]
        if mutation == "repeated set":
            sets.append(sets[0])
        elif mutation == "repeated label in a set":
            sets[0].append(sets[0][0])
        elif mutation == "label outside the complex":
            sets[0].append("e")
        elif mutation == "swapped children":
            cert[first_key], cert[second_key] = cert[second_key], cert[first_key]
        else:
            sets.reverse()
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, out, _ = run_cli(capsys, "verify", str(complex_path), str(cert_path))
        assert (code, out.strip()) == ({"valid": EXIT_OK, "invalid": EXIT_INVALID}[expected], expected)

    def test_void_complex_has_no_shelling(self, capsys, tmp_path):
        # as ``check --props shellable`` refuses the void complex
        void_path, cert_path = tmp_path / "void.json", tmp_path / "cert.json"
        void_path.write_text(json.dumps({"ground_set": [], "facets": []}))
        cert_path.write_text("[]")
        code, out, _ = run_cli(capsys, "verify", str(void_path), str(cert_path))
        assert code == EXIT_INVALID and out.strip() == "invalid"


class TestMalformedFiles:
    @pytest.fixture
    def files(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "build", "--gen", "path:4", "--r", "1")
        (tmp_path / "good.json").write_text(out)
        (tmp_path / "deep.json").write_text("[" * 100_000)
        (tmp_path / "number.json").write_text(json.dumps({"ground_set": 5, "facets": []}))
        (tmp_path / "null.json").write_text(json.dumps({"ground_set": ["a"], "facets": [None]}))
        return tmp_path

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--complex", "deep.json", "--props", "vd"),
            ("check", "--input", "deep.json", "--r", "1", "--props", "vd"),
            ("build", "--input", "deep.json", "--r", "1"),
            ("verify", "deep.json", "good.json"),
            ("verify", "good.json", "deep.json"),
        ],
    )
    def test_json_nested_too_deeply_is_parse_error(self, capsys, files, argv):
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        assert run_cli(capsys, *argv) == (EXIT_PARSE, "", f"error: {files / 'deep.json'}: JSON nested too deeply\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "--input", "bad.json", "--r", "1"),
            ("check", "--complex", "bad.json", "--props", "vd"),
            ("verify", "bad.json", "good.json"),
            ("verify", "good.json", "bad.json"),
        ],
        ids=["graph", "complex", "verify-complex", "certificate"],
    )
    def test_invalid_json_is_a_parse_error_that_names_the_file(self, capsys, files, argv):
        (files / "bad.json").write_text("{not json")
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"error: {files / 'bad.json'}: invalid JSON: Expecting property name")

    @pytest.mark.parametrize("name", ["number.json", "null.json"])
    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_complex_fields_of_the_wrong_type_are_parse_errors(self, capsys, files, name, command):
        path = str(files / name)
        if command == "check":
            argv = ("check", "--complex", path, "--props", "vd")
        else:
            argv = ("verify", path, str(files / "good.json"))
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and "error" in err

    @pytest.mark.parametrize(
        "data, argv",
        [
            ({"vertices": "abc", "edges": ["ab", "bc"]}, ("build", "--input", "s.json", "--r", "1")),
            ({"vertices": "abc", "edges": [["a", "b"]]}, ("build", "--input", "s.json", "--r", "1")),
            ({"vertices": ["a", "b", "c"], "edges": ["ab", "bc"]}, ("build", "--input", "s.json", "--r", "1")),
            ({"ground_set": "abc", "facets": ["ab", "c"]}, ("check", "--complex", "s.json", "--props", "vd")),
            ({"ground_set": "abc", "facets": [["a", "b"]]}, ("check", "--complex", "s.json", "--props", "vd")),
            ({"ground_set": ["a", "b", "c"], "facets": ["ab", "c"]}, ("verify", "s.json", "good.json")),
        ],
    )
    def test_strings_where_lists_belong_are_parse_errors(self, capsys, files, data, argv):
        (files / "s.json").write_text(json.dumps(data))
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and out == "" and "list" in err

    @pytest.mark.parametrize(
        "facets, message",
        [
            ([["a", "a", "b"], ["b", "c"], ["b", "c"]], "facet ['a', 'a', 'b'] repeats a label"),
            ([["a", "b"], ["c", "b"], ["b", "c"]], "facet ['b', 'c'] appears twice"),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_facet_lists_that_repeat_a_label_or_a_facet_are_parse_errors(
        self, capsys, files, facets, message, command
    ):
        (files / "s.json").write_text(json.dumps({"ground_set": ["a", "b", "c"], "facets": facets}))
        path = str(files / "s.json")
        if command == "check":
            argv = ("check", "--complex", path, "--props", "vd")
        else:
            argv = ("verify", path, str(files / "good.json"))
        assert run_cli(capsys, *argv) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_certificate_deeper_than_the_recursion_limit_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(path_complex(150).to_json_dict()))
        with recursion_limit(100):
            code, out, err = run_cli(capsys, "check", "--complex", str(path), "--props", "vd")
        assert code == EXIT_PARSE and not out
        assert err.startswith("error:") and "Traceback" not in err


class TestCrossCheckExit:
    def test_cross_check_failure_maps_to_exit_4(self, capsys, monkeypatch):
        import rindep.cli as cli_module
        from rindep.ideals import CrossCheckError

        def explode(*_args, **_kwargs):
            raise CrossCheckError("forced by the test")

        monkeypatch.setattr(cli_module, "dual_of_ind", explode)
        code, _, err = run_cli(
            capsys, "check", "--gen", "fig1", "--r", "2", "--props", "splittable"
        )
        assert code == 4 and "cross-check" in err

    @pytest.mark.parametrize(
        "verifier, prop",
        [
            ("verify_shedding_certificate", "vd"),
            ("verify_shelling_certificate", "shellable"),
            ("verify_split_certificate", "splittable"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--gen", "path:5", "--r", "2", "--props"),
            ("scan", "--family", "trees", "--n", "4", "--r", "1", "--jobs", "1", "--props"),
        ],
        ids=["check", "scan"],
    )
    def test_rejected_certificate_maps_to_exit_4(self, capsys, monkeypatch, verifier, prop, argv):
        monkeypatch.setattr(cli, verifier, lambda *_args: False)
        code, out, err = run_cli(capsys, *argv, prop)
        assert code == 4 and "cross-check" in err and "Traceback" not in err
        # a scan keeps the lines of the items before the failure, but no summary
        assert out == "" if argv[0] == "check" else "summary" not in out

    def test_failed_checks_exit_4_under_optimisation(self, tmp_path):
        # `python -O` strips assert statements; these checks must not be
        script = (
            "import sys\n"
            "from rindep import cli, homology\n"
            "argv = sys.argv[1:]\n"
            "if argv[0] == 'verifier':\n"
            "    cli.verify_shedding_certificate = lambda *args: False\n"
            "else:\n"
            "    homology._composition_vanishes = lambda *args: False\n"
            "sys.exit(cli.main(argv[1:]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        check = ["check", "--gen", "path:6", "--r", "2", "--props"]
        scan = ["scan", "--family", "trees", "--n", "6", "--r", "2", "--props"]
        for argv in (
            ["verifier", *check, "vd"],
            ["verifier", *scan, "vd"],
            ["boundary", *check, "homology"],
            ["boundary", *scan, "scm"],
        ):
            done = subprocess.run(
                [sys.executable, "-O", "-c", script, *argv], env=env, cwd=tmp_path,
                capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 4 and "summary" not in done.stdout, argv
            assert "cross-check" in done.stderr and "Traceback" not in done.stderr


class TestJsonGraphInput:
    def test_json_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": ["x", "y", "z"], "edges": [["x", "y"]]}))
        code, out, _ = run_cli(capsys, "build", "--input", str(path), "--r", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["ground_set"] == ["x", "y", "z"]
        assert ["x", "z"] in data["facets"] or ["y", "z"] in data["facets"]


class TestSettingsComeFromTheCommandLine:
    def test_environment_variables_change_nothing(self, capsys, monkeypatch):
        """Variables named like the flags, even invalid values, leave every
        exit code and every byte of output outside ``timings`` unchanged."""
        calls = (
            ("check", "--gen", "path:7", "--r", "2", "--props", "vd,homology"),
            ("scan", "--family", "trees", "--n", "5", "--r", "1..2", "--props", "vd,shellable"),
        )

        def untimed_runs():
            runs = []
            for argv in calls:
                code, out, _ = run_cli(capsys, *argv)
                if argv[0] == "check":
                    report = json.loads(out)
                    report.pop("timings")
                    out = json.dumps(report)
                runs.append((code, out))
            return runs

        unset = untimed_runs()
        monkeypatch.setenv("RINDEP_BUDGET_VD", "2")
        monkeypatch.setenv("RINDEP_BUDGET_SHELL", "abc")
        monkeypatch.setenv("RINDEP_FIELD", "gf:4")
        assert untimed_runs() == unset

    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "--gen", "fig1", "--input", "g.txt", "--r", "1"),
            ("check", "--complex", "c.json", "--gen", "fig1", "--props", "vd"),
            ("build", "--r", "1"),
        ],
        ids=["gen-and-input", "complex-and-gen", "none"],
    )
    def test_exactly_one_input_source(self, capsys, tmp_path, argv):
        (tmp_path / "g.txt").write_text("a b\n")
        (tmp_path / "c.json").write_text(json.dumps(path_complex(3).to_json_dict()))
        argv = [str(tmp_path / a) if a in ("g.txt", "c.json") else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("check", "--complex", "c.json", "--r", "7", "--props", "vd"), "--r"),
            (("build", "--gen", "fig1", "--r", "1", "--format", "json"), "--format"),
            (("check", "--gen", "fig1", "--r", "1", "--props", ","), "--props"),
            (("scan", "--family", "trees", "--n", "2", "--r", "1", "--props", " "), "--props"),
        ],
        ids=["r-with-complex", "format", "check-no-props", "scan-no-props"],
    )
    def test_flags_that_change_nothing_are_refused(self, capsys, tmp_path, argv, flag):
        """A flag whose value the call would ignore, or a property list that
        names nothing, exits 2 before any output, naming the flag."""
        (tmp_path / "c.json").write_text(json.dumps(path_complex(3).to_json_dict()))
        argv = [str(tmp_path / a) if a == "c.json" else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag it does not know
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARSE, "") and flag in captured.err


def test_start_up_imports_no_pool_or_dataclass_machinery():
    """Importing the CLI and building its parser, the cost every call pays,
    loads none of the modules that only a process pool or generated
    dataclass methods need."""
    script = (
        "import sys; before = set(sys.modules); import rindep.cli; rindep.cli.make_parser(); "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    added = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "rindep.cli" in added
    heavy = ("dataclasses", "concurrent.futures", "logging", "inspect")
    assert [m for m in added if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []


_DIGESTS = """
import contextlib, hashlib, io, json
from rindep.cli import main

props = "vd,shellable,splittable"
calls = {
    "caterpillar:1,2,0,3": ["check", "--gen", "caterpillar:1,2,0,3", "--r", "2", "--props", props],
    "path:9": ["check", "--gen", "path:9", "--r", "3", "--props", props],
    "fig1": ["check", "--gen", "fig1", "--r", "1", "--props", props],
    "scan": ["scan", "--family", "trees", "--n", "8", "--r", "1..3", "--props", props],
    "G:4": ["check", "--gen", "G:4", "--r", "2", "--props", props],
    "H:3": ["check", "--gen", "H:3", "--r", "4", "--props", "scm,cm"],
    "G:3": ["check", "--gen", "G:3", "--r", "2", "--props", "chordal-hypergraph"],
    "path:16": ["check", "--gen", "path:16", "--r", "2", "--props", "splittable"],
    "build": ["build", "--gen", "cycle:20", "--r", "2"],
}
digests = {}
for name, argv in calls.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    text = out.getvalue()
    if argv[0] == "check":
        report = json.loads(text)
        report.pop("timings")
        text = json.dumps(report, sort_keys=True)
    digests[name] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps(digests))
"""

# SHA-256 of each report without ``timings`` (keys sorted), and of the
# stdout of the scan (145 lines) and of ``build``; the first four taken while
# certificates were still searched and replayed on labelled sets, the last
# five while complexes, hypergraphs and ideals still held labelled sets; a
# change to any byte of them fails here
_PINNED_DIGESTS = {
    "caterpillar:1,2,0,3": "b5677e25496749e0878d4e98137156c5b02f160752873979d87d6ddb866c808c",
    "path:9": "69eec1d031fe879ce2c868dc87a51ba469940f8258103fa6a18faafc1712c819",
    "fig1": "b2bdfbe57b20a63d9d9ebd88b4489805af235a3d209338b814f213a6b84b0b84",
    "scan": "6e1dde6f780c088b80de535ce78ea0ef5cd234445a269a561cf1475d2db9e8c5",
    "G:4": "7bf791dc716b905d020f094900edadd37d645e8ec0db99eec990b3977a47b8b0",
    "H:3": "92a9b640413957e37f409491e8795e83b4ec8ac3645dae92c880819be413b468",
    "G:3": "b7269fb8365364371ea2db4dc69eca5d7dd28e108ca4ad334e2efbe3e1aef61a",
    "path:16": "5272c2b3240f63e34cddf6243bebf4b5e62c5e89fbc9a77d2ed956f8fb6bf66c",
    "build": "850b6219c8a29b3f878481eb0820882e95538ae2a308dffac596d9b441a6fa56",
}


@pytest.mark.parametrize("seed", ["0", "7"])
def test_certificate_reports_match_their_pinned_digests(seed):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _DIGESTS], env=env, capture_output=True, text=True, check=True, timeout=300
    ).stdout
    assert json.loads(out) == _PINNED_DIGESTS
