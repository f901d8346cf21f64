"""The verify suites are not vacuous: breaking one library value that a
suite reads makes it report a failing item."""

from dataclasses import replace

import pytest

from nestotope import formulas as fm
from nestotope import realization, subdivision, verify


def _shifted(module, name):
    real = getattr(module, name)
    return module, name, lambda *args: real(*args) + 1


_cofacets = subdivision._codim2_cofacets
_sigma_system = realization.build_sigma_system


def _first_sign_flipped(sys):
    """The sigma system with its first cell's sign flipped, so no crossing
    involution swaps the signs there."""
    return replace(sys, plus=(not sys.plus[0],) + sys.plus[1:])


# suite -> (module, name, replacement, smallest max_n that reaches it)
BREAKS = {
    "facet-counts": (verify, "path_graph", verify.complete_graph, 2),
    "h-vectors": (fm, "eulerian", lambda m, k: 0, 1),
    "h-dominance": (verify, "path_order", lambda g: None, 1),
    "minkowski": (verify, "minkowski_vertex_oracle", lambda b: set(), 1),
    "projection-degree": (verify, "pi_degree", lambda p: -1, 1),
    "h-vs-z2betti": (verify, "betti_z2_matches_h", lambda p, lam: False, 1),
    "glued-homology": (*_shifted(fm, "hessenberg_cover_total"), 1),
    "orientability": (verify, "is_orientable_smallcover", lambda lam: True, 1),
    "lemma-certificates": (subdivision, "_int_det", lambda rows: 0, 1),
    "star-condition": (subdivision, "_codim2_cofacets",
                       lambda c: {key: cnt + 1 for key, cnt in _cofacets(c).items()},
                       1),
    # every crossing involution must swap the cell signs
    "realization": (realization, "build_sigma_system",
                    lambda y: _first_sign_flipped(_sigma_system(y)), 1),
    "formulas": (fm, "zigzag", lambda m: 0, 1),
}


def test_every_suite_has_a_break():
    assert set(BREAKS) == set(verify.SUITES)


@pytest.mark.parametrize("suite", BREAKS)
def test_suite_reports_a_broken_value(monkeypatch, suite):
    module, name, replacement, max_n = BREAKS[suite]
    monkeypatch.setattr(module, name, replacement)
    assert not all(ok for _, ok, _ in verify.SUITES[suite](max_n))


N3 = "total Betti chain at n=3 is 12 < 24 = 4!"


@pytest.mark.parametrize("module, name, replacement", [
    (fm, "check_inequality_chain", lambda n: True),
    _shifted(fm, "as_cover_total"),
    _shifted(fm, "hessenberg_cover_total"),
    _shifted(verify, "factorial"),
], ids=["chain", "as", "hessenberg", "factorial"])
def test_n3_item_pins_the_chain_and_each_total(monkeypatch, module, name,
                                               replacement):
    monkeypatch.setattr(module, name, replacement)
    # the enumeration items are not under test here; skip their brute force
    monkeypatch.setattr(fm, "eulerian_brute", fm.eulerian)
    monkeypatch.setattr(fm, "zigzag_brute", fm.zigzag)
    items = {label: ok for label, ok, _ in verify.SUITES["formulas"](3)}
    assert items[N3] is False

