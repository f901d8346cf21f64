"""The shared memo on gluings: a repeated polytope is served its face poset
and its certified bar(P) from the second sight on, a one-off polytope is
never retained, the memo's count covers every entry of every kind, and
nothing it keeps hides a broken coset table or hands one poset's bar(P)
to another."""

import re

import pytest

from nestotope import errors, nestohedron, smallcover
from nestotope.cellcomplex import passed_pseudo_manifold_check, simplex_sphere
from nestotope.errors import ValidationError
from nestotope.graphs import graph_building_set, graph_from_spec, star_graph
from nestotope.memo import _MEMO
from nestotope.nestohedron import FacePoset, barycentric_complex, face_poset
from nestotope.smallcover import (
    _certified_bar,
    lambda_can,
    orientation_cover_via_eta,
    small_cover,
)
from nestotope.subdivision import subdivide_pseudomanifold


def _gluing(entry):
    """A fresh gluing of ``entry``: "<graph>" for the small cover of
    λ_can, "eta:<graph>" for its orientation cover."""
    eta = entry.startswith("eta:")
    b = graph_building_set(graph_from_spec(entry[4:] if eta else entry))
    make = orientation_cover_via_eta if eta else small_cover
    return make(face_poset(b), lambda_can(b))


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _must_not_run(*args):
    raise AssertionError("called on a memo hit")


def _held():
    """The keys of the entries that hold a result."""
    return {key[0] for key, (_, kept) in _MEMO.entries.items()
            if kept is not None}


@pytest.mark.parametrize("entry", ["path:3", "path:4", "eta:path:4"])
def test_a_memo_hit_glues_what_a_cold_build_glues(monkeypatch, entry):
    cold = _gluing(entry).complex
    _MEMO.clear()
    bars = _counting(monkeypatch, smallcover, "barycentric_complex")
    levels = _counting(monkeypatch, nestohedron, "_tubing_levels")
    # built on the first and second sight, served on the third
    complexes = [_gluing(entry).complex for _ in range(3)]
    assert len(bars) == len(levels) == 2
    assert _held() == {"face_poset", "bar"}
    for c in complexes:
        assert c is not cold
        assert c.vertex_columns == cold.vertex_columns
        assert c.face_columns == cold.face_columns
        assert c.vertex_labels == cold.vertex_labels
        assert passed_pseudo_manifold_check(c) and c.is_vertex_determined()


def test_a_repeated_building_set_shares_one_frozen_poset():
    b = graph_building_set(graph_from_spec("path:4"))
    first, second, third = (face_poset(b) for _ in range(3))
    assert third is second and second is not first
    assert face_poset(graph_building_set(graph_from_spec("path:4"))) is third
    assert all(type(level) is frozenset for level in third.face_sets)
    assert third.faces_by_size == first.faces_by_size


def test_a_poset_with_other_faces_gets_its_own_bar():
    p = face_poset(graph_building_set(graph_from_spec("path:3")))
    b = p.b
    for _ in range(2):
        small_cover(p, lambda_can(b)).complex
    stored = _certified_bar(p, "test")
    assert _certified_bar(p, "test") is stored
    # the same faces, built by hand, are the same bar(P) ...
    assert _certified_bar(FacePoset(b, p.faces_by_size), "test") is stored
    # ... the vertices in another order number its cells otherwise ...
    levels = list(p.faces_by_size)
    levels[p.dim] = levels[p.dim][::-1]
    reordered = FacePoset(b, levels)
    for _ in range(3):
        bar = _certified_bar(reordered, "test")
        assert bar is not stored
        assert bar.vertex_columns == barycentric_complex(
            reordered).vertex_columns
        assert bar.vertex_columns != stored.vertex_columns
    # ... and a poset missing a vertex fails, on every sight
    levels[p.dim] = levels[p.dim][1:]
    for _ in range(3):
        with pytest.raises(ValidationError, match=r"^small cover gluing "
                           r"failed: facet \d+ of bar\(P\) lies in 1 top "
                           r"cells$"):
            small_cover(FacePoset(b, levels), lambda_can(b)).complex


def test_a_tampered_coset_table_fails_on_a_memo_hit(monkeypatch):
    for _ in range(2):
        _gluing("path:3").complex
    monkeypatch.setattr(smallcover, "barycentric_complex", _must_not_run)
    monkeypatch.setattr(nestohedron, "_tubing_levels", _must_not_run)
    m = _gluing("path:3")
    assert m.complex.total_cells()
    m = _gluing("path:3")
    vertex = m.poset.vertices[0]
    m._reduced[vertex] = [g & 1 for g in range(m.n_copies())]
    monkeypatch.setattr(smallcover.GluedManifold, "_glue", _must_not_run)
    with pytest.raises(ValidationError, match=(
            r"^small cover gluing failed: the coset table of face "
            rf"{re.escape(str(vertex))} does not compose with that of face")):
        m.complex


@pytest.mark.parametrize("entry", ["path:3", "path:4", "eta:path:4",
                                   "cycle:5"])
def test_a_polytope_seen_once_is_not_retained(entry):
    m = _gluing(entry)
    m.complex
    p = m.poset
    faces = sum(p.f_counts())
    # only the keys are recorded, at their input's size
    assert {key[0]: seen for key, seen in _MEMO.entries.items()} == {
        "face_poset": (len(p.b.tubes), None), "bar": (faces, None)}
    assert _MEMO.cells == len(p.b.tubes) + faces


def _count_is_the_sum():
    assert _MEMO.cells == sum(cells for cells, _ in _MEMO.entries.values())
    assert _MEMO.cells <= errors.CELL_BUDGET


def test_the_count_covers_every_entry_of_every_kind(monkeypatch):
    z, g = simplex_sphere(3), star_graph(4)
    for _ in range(2):
        for entry in ("path:3", "path:4", "eta:path:4"):
            m = _gluing(entry)
            m.complex
            m.cellular()
            _count_is_the_sum()
        subdivide_pseudomanifold(z, g)
        _count_is_the_sum()
    assert _held() == {"face_poset", "bar", "lemma_subdivision",
                       "subdivide_pseudomanifold"}
    for key, (cells, kept) in _MEMO.entries.items():
        if key[0] == "face_poset":
            # every face with its incidences, and the coordinate table,
            # counted before the incidences were computed
            f = kept.f_counts()
            assert "incidences" in vars(kept)
            assert cells == (sum(kept.f_counts())
                             + sum(len(v) for v in kept.incidences.values())
                             + (len(kept.b.proper_tubes) + 1)
                             * kept.b.n_vertices)
            assert cells == sum((k + 1) * f[k] for k in range(len(f))) + (
                len(kept.coordinate_table) * kept.b.n_vertices)
        elif key[0] == "bar":
            assert cells == kept.total_cells() + sum(map(len, key[2]))
    # a budget below the subdivision (4,300 cells) evicts everything on the
    # next call, and the gluings stored after it stay within the budget
    monkeypatch.setattr(errors, "CELL_BUDGET", 4_000)
    for entry in ("path:3", "path:3", "path:4", "path:4"):
        _gluing(entry).complex
        _count_is_the_sum()
    assert _held() == {"face_poset", "bar"}
    assert {len(key[2]) for key in _MEMO.entries if key[0] == "bar"} == {3, 4}
