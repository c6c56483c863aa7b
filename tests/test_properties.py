"""Property tests of the bitmask face kernel against brute-force oracles and
the public API, and byte-stability of reports across hash seeds and jobs."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import oracle_ind_r_facets, oracle_reduced_betti
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rindep.complexes import f_vector, ind_r, link, pure_skeleton
from rindep.graphs import Graph
from rindep.homology import is_cohen_macaulay, is_scm, reduced_homology

SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_vertices=9):
    n = draw(st.integers(1, max_vertices))
    verts = [str(i) for i in range(1, n + 1)]
    pairs = list(itertools.combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(verts, [p for p, k in zip(pairs, keep) if k])


radii = st.integers(1, 3)


@SETTINGS
@given(graphs(), radii)
def test_ind_r_facets_match_power_set_oracle(g, r):
    assert set(ind_r(g, r).facets) == oracle_ind_r_facets(g, r)


@SETTINGS
@given(graphs(7), radii)
def test_rational_betti_match_dense_oracle_and_bound_prime_fields(g, r):
    k = ind_r(g, r)
    q = reduced_homology(k).reduced
    assert list(q) == oracle_reduced_betti(k)
    for p in (2, 3):
        mod_p = reduced_homology(k, p).reduced
        assert len(mod_p) == len(q)
        assert all(a <= b for a, b in zip(q, mod_p))


@SETTINGS
@given(graphs(8), radii)
def test_betti_alternating_sum_is_euler_characteristic(g, r):
    k = ind_r(g, r)
    betti = reduced_homology(k).reduced
    faces = f_vector(k)
    assert sum((-1) ** i * b for i, b in enumerate(betti)) == sum(
        (-1) ** i * f for i, f in enumerate(faces)
    )


def _link_fails(k, face) -> int | None:
    """First degree below the link's dimension with nonzero homology,
    through the public link and homology functions."""
    lk = link(k, face)
    profile = reduced_homology(lk)
    return next((d for d in range(-1, lk.dimension) if profile.betti(d)), None)


def _recheck_cm(k, rep):
    if rep.reason == "non-pure":
        assert not k.is_pure()
        assert rep.witness_face in k.facets
        assert len(rep.witness_face) == min(len(f) for f in k.facets)
        return
    assert rep.reason == "link-homology"
    # every face before the witness in (dimension, label) order passes
    for faces in k.faces_by_dimension().values():
        for face in faces:
            if face == rep.witness_face:
                assert _link_fails(k, face) == rep.witness_degree
                return
            assert _link_fails(k, face) is None
    raise AssertionError("witness is not a face")


@SETTINGS
@given(graphs(8), radii)
def test_false_cm_witnesses_recheck_through_links(g, r):
    k = ind_r(g, r)
    rep = is_cohen_macaulay(k)
    if not rep.cohen_macaulay:
        _recheck_cm(k, rep)
    for m, skeleton_rep in is_scm(k).skeletons:
        if not skeleton_rep.cohen_macaulay:
            _recheck_cm(pure_skeleton(k, m), skeleton_rep)


_HASH_REPORTS = """
import contextlib, hashlib, io, json
from rindep.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    text = out.getvalue()
    if argv[0] == "check":
        report = json.loads(text)
        report.pop("timings")
        text = json.dumps(report)
    return hashlib.sha256(text.encode()).hexdigest()

props = "vd,shellable,cm,scm,homology,splittable,chordal-hypergraph"
scan = ["scan", "--family", "trees", "--n", "6", "--r", "1..3", "--props", props]
print(json.dumps({
    "G:3": run(["check", "--gen", "G:3", "--r", "3", "--props", props]),
    "H:2": run(["check", "--gen", "H:2", "--r", "3", "--props", props]),
    "scan": run(scan + ["--jobs", "1"]),
    "scan-jobs-2": run(scan + ["--jobs", "2"]),
}))
"""


def test_reports_identical_across_hash_seeds_and_jobs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    hashes = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _HASH_REPORTS],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        hashes.append(json.loads(out))
    assert hashes[0]["scan"] == hashes[0]["scan-jobs-2"]
    assert hashes[0] == hashes[1] == hashes[2]
