"""The subdivision memo: a repeated input is served the subdivision built
on its second sight, the memo stays within CELL_BUDGET cells, and nothing
it keeps hides a broken check."""

from dataclasses import replace

import pytest

from nestotope import cli, errors, realization, subdivision, verify
from nestotope.cellcomplex import (
    klein_bottle,
    pseudomanifold_from_spec,
    simplex_sphere,
    torus7,
)
from nestotope.errors import BudgetExceeded, ValidationError
from nestotope.graphs import cycle_graph, graph_from_spec, path_graph, star_graph
from nestotope.memo import _MEMO
from nestotope.subdivision import lemma_subdivision, subdivide_pseudomanifold

# the covering benchmark's catalogue, as CLI arguments
_CATALOGUE = [
    ["realize", "--pseudomanifold", "sphere:1", "--graph", "path:2"],
    ["realize", "--pseudomanifold", "sphere:2", "--graph", "path:3",
     "--budget", "1000"],
    ["realize", "--pseudomanifold", "sphere:2", "--graph", "path:3"],
    ["realize", "--pseudomanifold", "torus7", "--graph", "path:3",
     "--budget", "1000"],
    ["realize", "--pseudomanifold", "sphere:2", "--graph", "complete:3",
     "--budget", "1000"],
    ["subdivide", "--pseudomanifold", "sphere:3", "--graph", "star:4",
     "--certify"],
    ["subdivide", "--pseudomanifold", "sphere:3", "--graph", "cycle:4",
     "--certify"],
    ["subdivide", "--pseudomanifold", "sphere:4", "--graph", "star:5",
     "--certify"],
]


def _counting(monkeypatch, name):
    calls = []
    real = getattr(subdivision, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subdivision, name, counted)
    return calls


@pytest.mark.parametrize("argv", _CATALOGUE,
                         ids=lambda a: " ".join(x for x in a if x[:2] != "--"))
def test_memo_hit_gives_the_same_report_bytes(monkeypatch, tmp_path, argv):
    builds = _counting(monkeypatch, "_subdivide_pseudomanifold")
    reports = []
    for i in range(3):
        out = tmp_path / f"{i}.json"
        assert cli.run(argv + ["--emit", str(out)]) == 0
        reports.append(out.read_bytes())
    # built on the first and second sight, served on the third
    assert len(builds) == 2
    assert reports[0] == reports[1] == reports[2]


def test_built_twice_then_served(monkeypatch):
    substitutions = _counting(monkeypatch, "_substitute")
    z, g = simplex_sphere(3), star_graph(4)
    first = subdivide_pseudomanifold(z, g)
    second = subdivide_pseudomanifold(z, g)
    assert len(substitutions) == 2
    # an equal input, not the same objects, hits the stored result
    third = subdivide_pseudomanifold(simplex_sphere(3), star_graph(4))
    assert len(substitutions) == 2
    assert third is second and second is not first
    assert third.colours == first.colours
    assert third.complex.vertex_columns == first.complex.vertex_columns


def test_apex_is_keyed_as_passed(monkeypatch):
    builds = _counting(monkeypatch, "_subdivide_pseudomanifold")
    z, g = simplex_sphere(2), path_graph(3)
    for apex in (None, None, 0, 0):
        subdivide_pseudomanifold(z, g, apex=apex)
    assert len(builds) == 4
    assert subdivide_pseudomanifold(z, g).mode == "path"
    assert subdivide_pseudomanifold(z, g, apex=0).mode == "substitution"
    assert len(builds) == 4


def test_memo_stays_within_the_cell_budget(monkeypatch):
    # sphere:3/star:4 is 4,300 cells, the torus path subdivision 252 and
    # sphere:2/complete:3 578: the last evicts the first, least recently used
    monkeypatch.setattr(errors, "CELL_BUDGET", 5_000)
    inputs = [(simplex_sphere(3), star_graph(4)), (torus7(), path_graph(3)),
              (simplex_sphere(2), graph_from_spec("complete:3"))]
    for z, g in inputs:
        for _ in range(3):
            subdivide_pseudomanifold(z, g)
            assert _MEMO.cells == sum(c for c, _ in _MEMO.entries.values())
            assert _MEMO.cells <= errors.CELL_BUDGET
    stored = {cells for cells, y in _MEMO.entries.values() if y is not None}
    assert {252, 578} <= stored and 4_300 not in stored
    # a lowered budget evicts on the next call, and a result larger than
    # the budget is never stored
    monkeypatch.setattr(errors, "CELL_BUDGET", 1_000)
    builds = _counting(monkeypatch, "_subdivide_pseudomanifold")
    for _ in range(3):
        y = subdivide_pseudomanifold(simplex_sphere(3), star_graph(4))
        assert y.complex.total_cells() == 4_300
        assert _MEMO.cells <= errors.CELL_BUDGET
        assert all(cells <= 1_000 for cells, _ in _MEMO.entries.values())
    assert len(builds) == 3


def _first_sign_flipped(sys):
    """The sigma system with its first cell's sign flipped, so no crossing
    involution swaps the signs there."""
    return replace(sys, plus=(not sys.plus[0],) + sys.plus[1:])


# suite -> (module, name, the replacement made from the real function),
# the breaks of tests/test_verify.py that a memoised subdivision could hide
_BREAKS = {
    "star-condition": (subdivision, "_codim2_cofacets",
                       lambda real: lambda c: {key: cnt + 1 for key, cnt
                                               in real(c).items()}),
    "realization": (realization, "build_sigma_system",
                    lambda real: lambda y: _first_sign_flipped(real(y))),
    "lemma-certificates": (subdivision, "_int_det",
                           lambda real: lambda rows: 0),
}


@pytest.mark.parametrize("suite", _BREAKS)
def test_warm_memo_still_catches_a_broken_check(monkeypatch, suite):
    module, name, breaking = _BREAKS[suite]
    for _ in range(2):
        assert all(ok for _, ok, _ in verify.SUITES[suite](3))
    builds = _counting(monkeypatch, "_subdivide_pseudomanifold")
    lemmas = _counting(monkeypatch, "_lemma_subdivision")
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    assert not all(ok for _, ok, _ in verify.SUITES[suite](3))
    # the broken run was served memoised subdivisions only
    assert builds == [] and lemmas == []


@pytest.mark.parametrize("call, error", [
    (lambda: subdivide_pseudomanifold(klein_bottle(), path_graph(3)),
     ValidationError),
    (lambda: subdivide_pseudomanifold(simplex_sphere(2), path_graph(4)),
     ValidationError),
    (lambda: subdivide_pseudomanifold(simplex_sphere(2), cycle_graph(3),
                                      apex=5), ValidationError),
    (lambda: lemma_subdivision(path_graph(3), 3), ValidationError),
    (lambda: lemma_subdivision(path_graph(7), 0), BudgetExceeded),
    (lambda: subdivide_pseudomanifold(pseudomanifold_from_spec("sphere:5"),
                                      graph_from_spec("complete:6")),
     BudgetExceeded),
], ids=["non-orientable", "dimension", "apex", "lemma-apex", "lemma-budget",
        "substitution-budget"])
def test_refused_input_leaves_the_memo_unchanged(call, error):
    for _ in range(2):
        subdivide_pseudomanifold(simplex_sphere(2), cycle_graph(3))
    subdivide_pseudomanifold(torus7(), path_graph(3))
    before = list(_MEMO.entries.items()), _MEMO.cells
    assert any(y is not None for _, y in _MEMO.entries.values())
    assert any(y is None for _, y in _MEMO.entries.values())
    for _ in range(2):
        with pytest.raises(error):
            call()
        assert (list(_MEMO.entries.items()), _MEMO.cells) == before
