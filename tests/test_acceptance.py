"""Acceptance gate: fourteen integer-exact criteria, one per test.

Each criterion runs its suites of ``nestotope.verify`` at MAX_N, which
reaches the largest range of every suite, asserts that every item
passes, and pins the details that carry computed values; a pinned label
that is missing means a range was not reached.  Each test prints its
items' PASS/FAIL lines before asserting, so the run log carries a
criterion-by-criterion report.
"""

from nestotope.verify import SUITES

MAX_N = 10


def _criterion(num, suites, pinned):
    items = [item for suite in suites for item in SUITES[suite](MAX_N)]
    for label, ok, detail in items:
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label} ({detail})")
    assert items and all(ok for _, ok, _ in items), f"criterion {num}"
    details = {label: detail for label, _, detail in items}
    assert {label: details.get(label) for label in pinned} == pinned


def test_criterion_01_facet_counts():
    _criterion(1, ["facet-counts"], {
        "facet counts n=7": "path 35, complete 254",
        "facet counts n=8": "path 44, complete 510"})


def test_criterion_02_h_vectors():
    _criterion(2, ["h-vectors"], {
        "path h-vector n=6": "(1, 21, 105, 175, 105, 21, 1)",
        "complete h-vector n=5": "(1, 57, 302, 302, 57, 1)"})


def test_criterion_03_h_dominance():
    _criterion(3, ["h-dominance"], {
        "h dominance on 5 vertices": "checked 21 classes",
        "h dominance on 6 vertices": "checked 112 classes"})


def test_criterion_04_minkowski_oracle():
    _criterion(4, ["minkowski"], {
        "vertex oracle on 4 vertices": "",
        "hexagon vertices are the arrangements of 1,2,4":
            "[(1, 2, 4), (1, 4, 2), (2, 1, 4), (2, 4, 1), (4, 1, 2), (4, 2, 1)]"})


def test_criterion_05_projection_degree():
    _criterion(5, ["projection-degree"], {
        "projection degree on 5 vertices": "degrees [1]",
        "projection degree on 6 vertices": "degrees [1]",
        "projection degree on the 7-vertex path, cycle, star and complete "
        "graph": "path 1, cycle 1, star 1, complete 1"})


def test_criterion_06_z2_betti_equals_h():
    _criterion(6, ["h-vs-z2betti"], {
        "mod-2 homology equals h, 4 vertices": "",
        "mod-2 homology equals h, 5 vertices": "",
        "mod-2 homology equals h, complete 4-vertex gluing": "",
        "mod-2 homology equals h, orientable path gluing": ""})


def test_criterion_07_tomei_manifolds():
    _criterion(7, ["glued-homology"], {
        "hexagon gluing is the orientable genus-2 surface": "(1, 4, 1)",
        "complete 4-vertex gluing homology": "(1, 11, 11, 1)"})


def test_criterion_08_pentagon_tower():
    _criterion(8, ["glued-homology"], {
        "pentagon canonical gluing and its cover": "(1, 2, 0) -> (1, 4, 1)"})


def test_criterion_09_hessenberg_surface():
    _criterion(9, ["glued-homology"], {
        "hexagon canonical gluing and its cover": "(1, 3, 0) -> (1, 6, 1)"})


def test_criterion_10_orientability():
    _criterion(10, ["orientability"], {
        "all 30 pentagon matrices glue non-orientably": "30 matrices",
        "hand-picked path matrix glues orientably": "",
        "orientability criterion matches the homology oracle": ""})


def test_criterion_11_simplex_subdivision_certificates():
    _criterion(11, ["lemma-certificates"], {
        "simplex subdivision certificates, 3 vertices": "12 runs",
        "simplex subdivision certificates, 4 vertices": "152 runs",
        "simplex subdivision certificates, 5 vertices": "21 classes, 105 runs",
        "3-path, middle apex: four triangles around the centre":
            "4 triangles, 4 cofacets"})


def test_criterion_12_four_cofacet_condition():
    _criterion(12, ["star-condition"], {
        "four-cofacet condition on 3-sphere with the 4-star": "720 cells checked",
        "four-cofacet condition on 3-sphere with the 4-path": "90 cells checked",
        "four-cofacet condition on 3-sphere with the 4-cycle": "3840 cells checked",
        "four-cofacet condition on 4-sphere with the 5-star": "17280 cells checked",
        "four-cofacet condition on 4-sphere with the 5-path": "1080 cells checked",
        "four-cofacet condition on 7-vertex torus with the 3-path":
            "21 cells checked"})


def test_criterion_13_realization_pipeline():
    _criterion(13, ["realization"], {
        "circle with the 2-path: full certificate": "r=6 s=2 mode=full",
        "3-sphere with the 4-path: certificate within budget":
            "r=116640 s=248832 mode=sampled",
        "4-sphere with the 5-path: exact certificate":
            "r=1259712000 s=14332723200 m=14",
        "5-sphere with the 6-path: exact certificate":
            "r=357128352000000 s=37150418534400000 m=20"})


def test_criterion_14_closed_forms():
    _criterion(14, ["formulas"], {
        "ascent counts match enumeration through length 8": "",
        "alternating counts match enumeration through length 9": "",
        "total Betti chain at n=3 is 12 < 24 = 4!": "(12, 24, 24)",
        "total Betti chain strict at n=4": "20 < 72 < 120",
        "total Betti chain strict at n=5": "40 < 304 < 720",
        "total Betti chain strict at n=6": "70 < 1248 < 5040",
        "total Betti chain strict at n=7": "140 < 6944 < 40320",
        "total Betti chain strict at n=8": "252 < 36512 < 362880",
        "total Betti chain strict at n=9": "504 < 253504 < 3628800",
        "total Betti chain strict at n=10": "924 < 1628288 < 39916800"})
