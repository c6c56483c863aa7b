"""The workloads and the hand-written table of expected outcomes.

Every call is a plain ``rindep`` command line, run through ``rindep.cli.main``.
Each one carries the outcome it must produce and where that expectation
comes from.  Values that no theorem settles are marked ``SEED``: they are the
answers the first benchmarked version of the program gave, kept so that a
change which alters them shows up as a failure.

Sources cited below:

* TREES: the paper's results for trees; ``tests/test_acceptance.py``
  criteria 4-6 check them on small trees.  Vertex decomposable implies
  shellable (Bjorner-Wachs 1997), which implies sequentially Cohen-Macaulay
  (Stanley 1996); a complex is vertex decomposable exactly when the dual of
  its Stanley-Reisner ideal is vertex splittable (Moradi-Khosh-Ahang 2016).
* HALF_APEX: ``H:r`` at ``r+1`` is not SCM; its only failing skeleton is
  ``r+1`` and the witness face is ``{x1, x2}`` (acceptance criterion 2).
* TWIN_BRIDGE: ``G:r`` at ``r`` has trivial reduced homology and is not SCM;
  the top skeleton ``2r-1`` fails (acceptance criterion 3).
* SQUARE: a chordless 4-cycle is the smallest non-chordal clutter, so a
  minor of ``con_r`` with no simplicial vertex is a valid witness
  (acceptance criterion 6).
* A000055: the number of unlabeled trees on n vertices (OEIS A000055).
* DUALITY: the Alexander dual of a Stanley-Reisner ideal is generated by the
  complements of the facets (Miller-Sturmfels, ch. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

TREES = "trees: paper results, acceptance criteria 4-6"
HALF_APEX = "H:r at r+1: acceptance criterion 2"
TWIN_BRIDGE = "G:r at r: acceptance criterion 3"
SQUARE = "non-chordal witness: acceptance criterion 6"
DUALITY = "dual generators are facet complements: Miller-Sturmfels ch. 1"
SEED = "taken from the seed's answer"

# OEIS A000055, n = 1..10
TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


@dataclass(frozen=True)
class Call:
    """One CLI call and the outcome it must produce.

    ``verdicts`` maps each property to its expected verdict; ``extra`` holds
    the further facts the gate checks (Betti numbers, witness faces, facet
    counts), and ``sources`` says where each expectation comes from.
    ``known_defect`` names an exception the call is known to raise out of
    ``cli.main`` today; that one failure is reported but not counted in the
    result line's ``failed``.
    """

    name: str
    argv: tuple[str, ...]
    exit_code: int = 0
    verdicts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    sources: tuple[str, ...] = ()
    known_defect: str | None = None


def _check(name, gen, r, props, verdicts, sources, field_=None, **extra) -> Call:
    argv = ["check", "--gen", gen, "--r", str(r), "--props", props]
    if field_:
        argv += ["--field", field_]
    return Call(name, tuple(argv), 0, verdicts, {"gen": gen, "r": r, **extra}, sources)


TREE_SCAN = [
    Call(
        "scan-trees-10",
        ("scan", "--family", "trees", "--n", "10", "--r", "1..3",
         "--props", "vd,shellable,splittable", "--jobs", "1"),
        0,
        {"vd": "true", "shellable": "true", "splittable": "true"},
        {"r": (1, 2, 3), "tree_counts": TREE_COUNTS},
        (TREES, "A000055"),
    ),
]

REISNER_LADDER = [
    _check("scm-path12", "path:12", 2, "scm", {"scm": "true"}, (TREES,)),
    _check("scm-cycle12", "cycle:12", 2, "scm", {"scm": "false"}, (SEED,),
           failing=(6, 7)),
    _check("scm-G4", "G:4", 4, "homology,scm", {"scm": "false"}, (TWIN_BRIDGE,),
           betti=(0,) * 9, failing_includes=7),
    _check("scm-H3", "H:3", 4, "scm", {"scm": "false"}, (HALF_APEX,),
           failing=(4,), witness_face=("x1", "x2")),
    _check("homology-path14-q", "path:14", 3, "homology", {}, (SEED,),
           betti=(0,) * 9 + (1, 0, 0)),
    _check("homology-path14-gf2", "path:14", 3, "homology", {}, (SEED,), field_="gf:2",
           betti=(0,) * 9 + (1, 0, 0)),
]

SEARCH_LADDER = [
    _check("decomp-G4", "G:4", 2, "vd,shellable,splittable",
           {"vd": "false", "shellable": "false", "splittable": "false"}, (SEED,)),
    _check("chordal-path10", "path:10", 1, "chordal-hypergraph",
           {"chordal-hypergraph": "true"}, (TREES,)),
    _check("chordal-star9", "star:9", 2, "chordal-hypergraph",
           {"chordal-hypergraph": "true"}, (TREES,)),
    _check("chordal-G3", "G:3", 2, "chordal-hypergraph",
           {"chordal-hypergraph": "false"}, (SEED, SQUARE)),
]

GUARD_BUILD = [
    Call("build-path20", ("build", "--gen", "path:20", "--r", "2"), 0, {},
         {"gen": "path:20", "r": 2, "facets": 684}, ("facet count: " + SEED,)),
    Call("build-cycle20", ("build", "--gen", "cycle:20", "--r", "2"), 0, {},
         {"gen": "cycle:20", "r": 2, "facets": 851}, ("facet count: " + SEED,)),
    _check("split-path16", "path:16", 2, "splittable", {"splittable": "true"},
           (TREES, DUALITY, "generator count: " + SEED), dual_generators=177),
    Call("build-path21", ("build", "--gen", "path:21", "--r", "2"), 2, {},
         {}, ("exit 2 is the documented code for input the program rejects",),
         known_defect="GuardExceeded"),
]

# The three rungs share one workload: on a machine whose speed drifts over
# tens of seconds, a steady figure needs about 40 s of measurement per run,
# and the run budget holds that for two workloads, not four.
RUNGS = {
    "reisner-ladder": REISNER_LADDER,
    "search-ladder": SEARCH_LADDER,
    "guard-build": GUARD_BUILD,
}

WORKLOADS = {
    "tree-scan": TREE_SCAN,
    "ladder": [call for rung in RUNGS.values() for call in rung],
}
