"""Mirror gluings: small covers, moment-angle manifolds, covers between them."""

import hashlib
import json
import random
import re
from functools import cache

import pytest

from nestotope import smallcover
from nestotope.errors import BudgetExceeded, ValidationError
from nestotope.cellcomplex import (
    SimplicialCellComplex,
    complex_to_json_dict,
    gf2_rank,
    homology,
    homology_z2,
    orient,
    passed_pseudo_manifold_check,
    pseudo_manifold_check,
    smith_normal_form,
)
from nestotope.graphs import (
    Graph,
    complete_graph,
    graph_building_set,
    graph_from_spec,
    path_graph,
)
from nestotope.formulas import (
    as_cover_total,
    betti_as_can,
    betti_hessenberg,
    betti_tomei,
    hessenberg_cover_total,
)
from nestotope.nestohedron import (
    FacePoset,
    barycentric_complex,
    face_poset,
    face_vectors,
)
from nestotope.smallcover import (
    CharacteristicFunction,
    _coset_minima,
    _echelon,
    betti_z2_matches_h,
    cover_betti_match,
    enumerate_characteristics,
    is_orientable_smallcover,
    lambda_can,
    lambda_from_json_dict,
    lambda_from_spec,
    lambda_star_as3,
    lambda_tomei,
    orientation_cover_via_eta,
    real_moment_angle,
    small_cover,
    validate_characteristic,
)


def _pentagon():
    b = graph_building_set(path_graph(3))
    return face_poset(b), b


def test_characteristic_function_shape_checks():
    _, b = _pentagon()
    with pytest.raises(ValidationError, match="one column per facet"):
        CharacteristicFunction(b, 2, [1, 2, 3])
    with pytest.raises(ValidationError, match="fit"):
        CharacteristicFunction(b, 2, [1, 2, 3, 4, 1])


def test_lambda_can_columns_on_pentagon():
    p, b = _pentagon()
    lam = lambda_can(b)
    # facets in canonical order: {0},{1},{2},{01},{12}
    assert lam.columns == (3, 1, 2, 2, 3)
    assert validate_characteristic(p, lam)
    assert lam.column(b.proper_tubes[1]) == 1


def test_validate_characteristic_rejects_dependent_columns():
    p, b = _pentagon()
    assert not validate_characteristic(p, CharacteristicFunction(b, 2, [1] * 5))
    assert not validate_characteristic(p, CharacteristicFunction(b, 3, [1] * 5))
    other = graph_building_set(complete_graph(3))
    with pytest.raises(ValidationError, match="different facet list"):
        validate_characteristic(p, lambda_can(other))


def test_orientability_criterion():
    assert is_orientable_smallcover(lambda_tomei(2))
    assert is_orientable_smallcover(lambda_tomei(3))
    assert is_orientable_smallcover(lambda_star_as3())
    _, b = _pentagon()
    assert not is_orientable_smallcover(lambda_can(b))
    assert not is_orientable_smallcover(
        lambda_can(graph_building_set(complete_graph(3))))


def test_tomei_surface():
    p = face_poset(graph_building_set(complete_graph(3)))
    m = small_cover(p, lambda_tomei(2))
    assert m.n_copies() == 4
    prof = m.homology()
    assert prof.betti_q == (1, 4, 1)
    assert prof.euler == -2
    assert all(t == () for t in prof.torsion)
    assert orient(m.complex).orientation != "non-orientable"


def test_tomei_three_manifold():
    p = face_poset(graph_building_set(complete_graph(4)))
    m = small_cover(p, lambda_tomei(3))
    prof = m.homology()
    assert prof.betti_q == (1, 11, 11, 1)
    assert prof.euler == 0
    assert orient(m.complex).orientation != "non-orientable"


def test_pentagon_small_cover_is_dyck_surface():
    p, b = _pentagon()
    m = small_cover(p, lambda_can(b))
    prof = m.homology()
    assert prof.betti_q == (1, 2, 0)
    assert prof.betti_z2 == (1, 3, 1)
    assert prof.torsion[1] == (2,)
    assert prof.euler == -1
    assert orient(m.complex).orientation == "non-orientable"


def test_z2_betti_equals_h_vector(monkeypatch):
    # GF(2) elimination on the cells: no Smith normal form, no gluing
    monkeypatch.setattr(smallcover, "homology", _must_not_run)
    monkeypatch.setattr(smallcover, "barycentric_complex", _must_not_run)
    p, b = _pentagon()
    assert betti_z2_matches_h(p, lambda_can(b))
    ph = face_poset(graph_building_set(complete_graph(3)))
    assert betti_z2_matches_h(ph, lambda_tomei(2))
    lam = lambda_star_as3()
    ps = face_poset(lam.b)
    assert betti_z2_matches_h(ps, lam)
    assert face_vectors(ps).h == (1, 6, 6, 1)


def test_orientable_path_gluing():
    lam = lambda_star_as3()
    p = face_poset(lam.b)
    m = small_cover(p, lam)
    prof = m.homology()
    assert prof.betti_q == (1, 0, 0, 1)
    assert prof.betti_z2 == (1, 6, 6, 1)
    assert orient(m.complex).orientation != "non-orientable"


# sha256 of the glued complex's JSON (with its orientation) and of the
# (bar cell, reduced g) key of every cell, recorded before gluing moved to
# coset tables: any change to the order in which cells are numbered fails.
PINNED_NUMBERING = {
    "path:4/can":
        "5dbf551343454b60b2d40b4f58377a5767aec52258f914927027939bf749d6c8",
    "complete:3/tomei":
        "1b8aa33f9055b6fbe99959e068f5fcbee3bd5a2005413b784bee958f5135aea2",
    "eta:path:3":
        "42850356ddc44d29d95210e47e20336bec4ad1f21a0e34c8f4c187bf44bfcd18",
}


def _bar_keys(m):
    """Per dimension, the (bar cell, reduced g) key of every glued cell.

    A glued vertex is labelled (face, g reduced modulo the face's span),
    and a glued cell lists its vertices in the order of its bar cell, so
    the faces name the bar cell; its largest face has the smallest span,
    so its last vertex carries the cell's own reduced g.
    """
    bar = barycentric_complex(m.poset)
    bar_vertex = {label[1]: v for v, label in enumerate(bar.vertex_labels)}
    c = m.complex
    keys = [[[bar_vertex[face], g] for face, g in c.vertex_labels]]
    for k in range(1, c.n + 1):
        bar_cell = {verts: cid for cid, verts
                    in enumerate(zip(*bar.vertex_columns[k]))}
        keys.append([
            [bar_cell[tuple(bar_vertex[c.vertex_labels[v][0]] for v in verts)],
             c.vertex_labels[verts[-1]][1]]
            for verts in zip(*c.vertex_columns[k])])
    return keys


@pytest.mark.parametrize("name", sorted(PINNED_NUMBERING))
def test_cell_numbering_is_pinned(name):
    m = _eta(name[4:]) if name.startswith("eta:") else _cover(name)
    doc = complex_to_json_dict(m.complex,
                               orientation=orient(m.complex).orientation)
    text = json.dumps([doc, _bar_keys(m)], sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_NUMBERING[name]


def test_glued_complex_is_checked_once(monkeypatch):
    # The gluing is certified on bar(P) and the coset tables: reading
    # ``.complex`` checks bar(P) alone, and the readers of the glued complex
    # take the verdicts it carries, so no generic check runs on it.
    checked, bars = [], []
    validate = SimplicialCellComplex.validate
    distinct = SimplicialCellComplex._distinct_vertex_sets
    build_bar = smallcover.barycentric_complex

    def counting(check):
        def counted(self):
            checked.append((check.__name__, self))
            return check(self)
        return counted

    def spied_bar(p):
        bars.append(build_bar(p))
        return bars[-1]

    monkeypatch.setattr(SimplicialCellComplex, "validate", counting(validate))
    monkeypatch.setattr(SimplicialCellComplex, "_distinct_vertex_sets",
                        counting(distinct))
    monkeypatch.setattr(smallcover, "barycentric_complex", spied_bar)
    for entry in ("path:3/can", "path:5/can"):
        m = _cover(entry)
        c = m.complex
        bar = bars.pop()
        want = [("validate", bar), ("_distinct_vertex_sets", bar)]
        assert checked == want and not bars
        assert ((orient(c).orientation == "non-orientable")
                == (m.orientation() == "non-orientable"))
        assert homology_z2(c) == face_vectors(m.poset).h
        assert "instances" not in complex_to_json_dict(c)
        assert checked == want
        checked.clear()


def test_coset_minima_table():
    b = graph_building_set(complete_graph(4))
    p = face_poset(b)
    lam = lambda_can(b)
    for level in p.faces_by_size:
        for face in level:
            cols = [lam.columns[i] for i in face]
            span = {0}
            for c in cols:
                span |= {s ^ c for s in span}
            table = _coset_minima(_echelon(cols), lam.rows)
            assert table == [min(g ^ s for s in span)
                             for g in range(1 << lam.rows)]


def test_moment_angle_of_segment_is_a_circle():
    p = face_poset(graph_building_set(path_graph(2)))
    r = real_moment_angle(p)
    assert r.n_copies() == 4
    assert homology(r.complex).betti_q == (1, 1)


def test_moment_angle_budget_refusal():
    p = face_poset(graph_building_set(complete_graph(4)))
    with pytest.raises(BudgetExceeded):
        real_moment_angle(p)


def _must_not_run(*args):
    raise AssertionError("called where nothing may be built")


def test_cell_budget_refuses_before_coset_tables(monkeypatch):
    monkeypatch.setattr(smallcover, "_coset_minima", _must_not_run)
    monkeypatch.setattr(smallcover, "barycentric_complex", _must_not_run)
    p = face_poset(graph_building_set(path_graph(6)))
    # 2^20 copies of the 5-dimensional polytope alone are over the budget
    with pytest.raises(BudgetExceeded, match="cells, over the 200000 budget"):
        real_moment_angle(p)


def test_simplicial_budget_refuses_on_first_read(monkeypatch):
    m = _cover("path:6/can")
    assert m.cellular().total_cells() == 3304
    monkeypatch.setattr(smallcover, "barycentric_complex", _must_not_run)
    with pytest.raises(BudgetExceeded,
                       match="small cover needs 506880 top simplices"):
        m.complex


def test_constructors_glue_nothing(monkeypatch):
    monkeypatch.setattr(smallcover, "barycentric_complex", _must_not_run)
    p, b = _pentagon()
    assert small_cover(p, lambda_can(b)).homology().betti_q == (1, 2, 0)
    assert betti_z2_matches_h(p, lambda_can(b))
    assert orientation_cover_via_eta(p, lambda_can(b)).homology().betti_q \
        == (1, 4, 1)
    assert real_moment_angle(p).homology().betti_q == (1, 10, 1)
    # the simplicial gluing of this eta cover would be over the budget
    m = _eta("path:6")
    assert m.cellular().total_cells() == 6608
    with pytest.raises(BudgetExceeded,
                       match="orientation cover needs 1013760 top simplices"):
        m.complex


def test_paper_chain_on_four_manifolds(monkeypatch):
    # the eta covers from the cell complex alone; nothing is glued
    monkeypatch.setattr(smallcover, "barycentric_complex", _must_not_run)
    path_cover = _eta("path:5").homology().betti_q
    complete_cover = _eta("complete:5").homology().betti_q
    assert path_cover == (1, 4, 10, 4, 1)
    assert complete_cover == (1, 10, 50, 10, 1)
    assert cover_betti_match(betti_as_can(4), path_cover)
    assert cover_betti_match(betti_hessenberg(4), complete_cover)
    assert sum(path_cover) == as_cover_total(4) == 20
    assert sum(complete_cover) == hessenberg_cover_total(4) == 72
    assert sum(path_cover) < sum(complete_cover) < sum(betti_tomei(4)) == 120


@pytest.mark.parametrize("entry, betti", [
    ("path:5/can", betti_as_can(4)),
    ("complete:5/can", betti_hessenberg(4)),
    ("complete:5/tomei", betti_tomei(4)),
])
def test_closed_forms_on_four_manifolds(monkeypatch, entry, betti):
    # homology comes from the cell complex alone; nothing is glued
    monkeypatch.setattr(smallcover, "barycentric_complex", _must_not_run)
    assert _cover(entry).homology().betti_q == betti


def test_orientation_cover_via_eta_matches_double_cover(gluing):
    p, b = _pentagon()
    lam = lambda_can(b)
    algebraic = orientation_cover_via_eta(p, lam)
    prof = algebraic.homology()
    assert prof.betti_q == (1, 4, 1)
    geometric, _ = gluing.orientation_double_cover(small_cover(p, lam).complex)
    assert algebraic.complex.cell_counts() == geometric.cell_counts()
    assert homology(geometric).betti_q == prof.betti_q
    base = small_cover(p, lam).homology().betti_q
    assert cover_betti_match(base, prof.betti_q)


def test_orientation_cover_refuses_orientable_input():
    p = face_poset(graph_building_set(complete_graph(3)))
    with pytest.raises(ValidationError,
                       match="orientation cover is disconnected; use two copies"):
        orientation_cover_via_eta(p, lambda_tomei(2))


def test_hexagon_canonical_cover():
    b = graph_building_set(complete_graph(3))
    p = face_poset(b)
    lam = lambda_can(b)
    base = small_cover(p, lam).homology().betti_q
    assert base == (1, 3, 0)
    got = orientation_cover_via_eta(p, lam).homology().betti_q
    assert got == (1, 6, 1)
    assert cover_betti_match(base, got)


def test_enumerate_characteristics_pentagon():
    p, _ = _pentagon()
    lams = enumerate_characteristics(p)
    assert len(lams) == 30
    assert all(validate_characteristic(p, lam) for lam in lams)
    assert not any(is_orientable_smallcover(lam) for lam in lams)


def _assert_orientation_agrees(m):
    """The cellular orientation against the rank criterion on the columns
    and against ``orient`` on the glued complex."""
    signs = m.orientation()
    lam = CharacteristicFunction(m.poset.b, m.rank, m.columns)
    orientable = is_orientable_smallcover(lam)
    assert (signs != "non-orientable") == orientable
    assert (orient(m.complex).orientation != "non-orientable") == orientable
    if orientable:
        assert len(signs) == m.n_copies() and set(signs) == {1, -1}


def test_orientability_criterion_matches_orient():
    # the rank criterion against the orientation of the glued complex and
    # the cellular orientation
    verdicts = {}
    for graph in (path_graph(3), complete_graph(3)):
        p = face_poset(graph_building_set(graph))
        lams = enumerate_characteristics(p)
        found = [is_orientable_smallcover(lam) for lam in lams]
        for lam in lams:
            _assert_orientation_agrees(small_cover(p, lam))
        verdicts[len(p.b.proper_tubes)] = (len(lams), sum(found))
    assert verdicts == {5: (30, 0), 6: (66, 6)}


def test_broken_coset_table_is_caught():
    b = graph_building_set(path_graph(3))
    p = face_poset(b)
    cols = [c | 1 << 2 for c in lambda_can(b).columns]

    def eta_unchecked():
        # the eta cover of path:3, before its cell complex is built
        return smallcover._mirror_copies(p, cols, 3, "orientation cover")

    signs = eta_unchecked().orientation()
    assert signs != "non-orientable"
    m = eta_unchecked()
    t = 0
    table = m._reduced[(t,)]
    x = next(x for x in range(1, m.n_copies())
             if x != cols[t] and signs[x] == signs[0])
    # copy 0 now meets facet t in copy x's facet cell, not in its own
    table[0] = table[x]
    with pytest.raises(ValidationError, match="nonzero cellular boundary"):
        m.orientation()


def test_enumerate_characteristics_budget():
    p = face_poset(graph_building_set(complete_graph(4)))
    # 14 facets, each with 2^3 - 1 candidate columns
    with pytest.raises(BudgetExceeded, match=r"^characteristic enumeration "
                       r"needs 678223072849 candidate matrices, over the "
                       r"1000000 budget$") as refusal:
        enumerate_characteristics(p)
    got = refusal.value
    assert (got.what, got.count, got.unit, got.budget) == (
        "characteristic enumeration", 678223072849, "candidate matrices",
        1_000_000)


def test_cover_betti_match_relation():
    assert cover_betti_match((1, 2, 0), (1, 4, 1))
    assert not cover_betti_match((1, 2, 0), (1, 4, 0))


def test_lambda_json_round_trip(tmp_path, lambda_to_json_dict):
    _, b = _pentagon()
    lam = lambda_can(b)
    data = lambda_to_json_dict(lam)
    assert lambda_from_json_dict(b, data) == lam
    f = tmp_path / "lam.json"
    f.write_text(json.dumps(data))
    assert lambda_from_spec(b, str(f)) == lam


def test_lambda_from_spec_named():
    _, b = _pentagon()
    assert lambda_from_spec(b, "can") == lambda_can(b)
    bt = graph_building_set(complete_graph(3))
    assert lambda_from_spec(bt, "tomei") == lambda_tomei(2)
    bs = graph_building_set(path_graph(4))
    assert lambda_from_spec(bs, "star") == lambda_star_as3()
    with pytest.raises(ValidationError, match="complete graph"):
        lambda_from_spec(b, "tomei")
    with pytest.raises(ValidationError, match="4-vertex path"):
        lambda_from_spec(b, "star")
    with pytest.raises(ValidationError, match="cannot read matrix"):
        lambda_from_spec(b, "missing.json")


def test_lambda_json_rejects_non_integer_rows():
    _, b = _pentagon()
    with pytest.raises(ValidationError, match="needs rows and columns"):
        lambda_from_json_dict(b, {"rows": "x", "columns": {}})


def test_lambda_json_rejects_columns_that_are_not_an_object():
    _, b = _pentagon()
    with pytest.raises(ValidationError, match="columns must map facets"):
        lambda_from_json_dict(b, {"rows": 2, "columns": 5})


def test_lambda_json_rejects_a_column_that_is_not_a_bit_list(
        lambda_to_json_dict):
    _, b = _pentagon()
    data = lambda_to_json_dict(lambda_can(b))
    data["columns"]["0"] = 1
    with pytest.raises(ValidationError, match=r"facet \{0\} column is not 2 bits"):
        lambda_from_json_dict(b, data)


# Every glued manifold the homology benchmark computes; the simplicial
# Smith normal form of the glued complex is the oracle for the cellular one.
COVERS = ["path:3/can", "star:3/can", "complete:3/can", "complete:3/tomei",
          "path:4/can", "path:4/star", "star:4/can", "cycle:4/can",
          "complete:4/can", "complete:4/tomei"]


# The connected 4-vertex graphs without a preset.
EXTRA_GRAPHS = {
    "paw:4": Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "diamond:4": Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
}


def _cover(entry, seed=None):
    spec, name = entry.split("/")
    graph = EXTRA_GRAPHS[spec] if spec in EXTRA_GRAPHS else graph_from_spec(spec)
    b = graph_building_set(graph)
    lam = lambda_from_spec(b, name)
    if seed is not None:
        # A.lambda for a seeded random invertible GF(2) matrix A
        rng = random.Random(seed)
        n = lam.rows
        while True:
            a = [rng.randrange(1, 1 << n) for _ in range(n)]
            if gf2_rank(a) == n:
                break
        cols = []
        for c in lam.columns:
            image = 0
            for i in range(n):
                if c >> i & 1:
                    image ^= a[i]
            cols.append(image)
        lam = CharacteristicFunction(b, n, cols)
    return small_cover(face_poset(b), lam)


def _eta(spec):
    b = graph_building_set(graph_from_spec(spec))
    return orientation_cover_via_eta(face_poset(b), lambda_can(b))


def _rma(spec):
    return real_moment_angle(face_poset(graph_building_set(graph_from_spec(spec))))


# The factories of GLUED and FOUR_MANIFOLDS build each manifold once per
# session and hand every later caller the same one, its complex and cell
# structure built on first use: tests that read these manifolds share them,
# and a test that tampers with a manifold builds its own.
GLUED = ([(entry, cache(lambda e=entry: _cover(e))) for entry in COVERS]
         + [(f"{entry}@A{seed}", cache(lambda e=entry, s=seed: _cover(e, s)))
            for entry in COVERS[:4] for seed in (1, 2)]
         + [(f"{spec}/can@A1", cache(lambda s=spec: _cover(f"{s}/can", 1)))
            for spec in EXTRA_GRAPHS]
         + [(f"eta:{spec}", cache(lambda s=spec: _eta(s)))
            for spec in ("path:3", "complete:3", "path:4")]
         + [(f"rma:{spec}", cache(lambda s=spec: _rma(s)))
            for spec in ("path:3", "complete:3")])


@pytest.mark.parametrize("make", [m for _, m in GLUED],
                         ids=[name for name, _ in GLUED])
def test_cellular_homology_matches_simplicial(make, betti_z2_without_clearing):
    m = make()
    prof = homology(m.complex)
    assert m.homology() == prof
    # GF(2) elimination with clearing against plain ranks and the SNF
    assert homology_z2(m.complex) == betti_z2_without_clearing(m.complex)
    assert homology_z2(m.complex) == prof.betti_z2
    # one cell per face and coset of its span, and boundaries that compose to 0
    c = m.cellular()
    p = m.poset
    n = p.dim
    for d in range(n + 1):
        want = sum(1 << (m.rank - gf2_rank([m.columns[i] for i in face]))
                   for face in p.faces_by_size[n - d])
        assert c.n_cells(d) == want
    for k in range(2, n + 1):
        low = {}
        for (row, mid), w in c.boundary_entries(k - 1).items():
            low.setdefault(mid, []).append((row, w))
        square = {}
        for (mid, col), v in c.boundary_entries(k).items():
            for row, w in low.get(mid, ()):
                square[row, col] = square.get((row, col), 0) + v * w
        assert not any(square.values())
    assert c.euler_characteristic() == m.complex.euler_characteristic()


# The cellular-vs-simplicial comparison runs both sides through the same
# SNF; the oracle's dense core checks the SNF itself, on every boundary of
# every glued manifold built here, the n = 4 ones included.
FOUR_MANIFOLDS = ([(entry, cache(lambda e=entry: _cover(e))) for entry in
                   ("path:5/can", "complete:5/can", "complete:5/tomei")]
                  + [(f"eta:{spec}", cache(lambda s=spec: _eta(s)))
                     for spec in ("path:5", "complete:5")])


@pytest.fixture(autouse=True, scope="module")
def free_shared_manifolds():
    """The shared manifolds are freed once this module's tests are done."""
    yield
    for _, make in GLUED + FOUR_MANIFOLDS:
        make.cache_clear()


@pytest.mark.parametrize("make", [m for _, m in GLUED + FOUR_MANIFOLDS],
                         ids=[name for name, _ in GLUED + FOUR_MANIFOLDS])
def test_cellular_divisors_match_oracle(make, snf_oracle):
    c = make().cellular()
    for k in range(1, c.n + 1):
        entries = c.boundary_entries(k)
        assert smith_normal_form(entries) == snf_oracle(
            entries, c.n_cells(k - 1), c.n_cells(k))


@pytest.mark.parametrize("make", [m for _, m in GLUED + FOUR_MANIFOLDS],
                         ids=[name for name, _ in GLUED + FOUR_MANIFOLDS])
def test_homology_z2_on_the_cells_matches_the_snf(make):
    m = make()
    assert homology_z2(m.cellular()) == m.homology().betti_z2


@pytest.mark.parametrize("make", [m for _, m in GLUED + FOUR_MANIFOLDS],
                         ids=[name for name, _ in GLUED + FOUR_MANIFOLDS])
def test_glued_rows_match_the_row_construction(make, layout_oracle):
    # level by level, so that the reference holds one level's rows at once
    m = make()
    c = m.complex
    for k, verts, faces, labels in layout_oracle.glued(m):
        assert layout_oracle.rows(c, k) == (verts, faces)
    assert c.vertex_labels == labels


@pytest.mark.parametrize("make", [m for _, m in GLUED + FOUR_MANIFOLDS],
                         ids=[name for name, _ in GLUED + FOUR_MANIFOLDS])
def test_generic_checks_agree_with_the_certificate(make, monkeypatch):
    # The gluing's certificate, read back without any generic check ...
    c = make().complex
    with monkeypatch.context() as patched:
        patched.setattr(SimplicialCellComplex, "validate", _must_not_run)
        patched.setattr(SimplicialCellComplex, "_distinct_vertex_sets",
                        _must_not_run)
        assert pseudo_manifold_check(c).is_pseudo
        assert c.is_vertex_determined()
    # ... against the generic checks on a fresh copy of the columns, which
    # carries no verdict
    fresh = SimplicialCellComplex.from_columns(
        c.n, c.n_cells(0),
        *([None] + [[list(col) for col in level] for level in levels[1:]]
          for levels in (c.vertex_columns, c.face_columns)),
        vertex_labels=c.vertex_labels)
    assert not passed_pseudo_manifold_check(fresh)
    assert pseudo_manifold_check(fresh).is_pseudo
    assert fresh.is_vertex_determined()


def _tampered_gluing_is_refused(monkeypatch, m, match):
    """Reading ``m.complex`` raises a ValidationError matching ``match``,
    and no copy is assembled."""
    monkeypatch.setattr(smallcover.GluedManifold, "_glue", _must_not_run)
    with pytest.raises(ValidationError, match=match):
        m.complex


def test_a_coset_table_that_does_not_compose_is_refused(monkeypatch):
    m = _cover("path:3/can")
    vertex = m.poset.vertices[0]
    # a vertex's columns span everything, so its table is all zeros; g & 1
    # fixes each value r <= g, but one of the vertex's facets has an odd
    # column c, whose table sends c to 0: composed, the two tables read 0
    # at c, where g & 1 alone reads 1
    assert m._reduced[vertex] == [0] * m.n_copies()
    m._reduced[vertex] = [g & 1 for g in range(m.n_copies())]
    _tampered_gluing_is_refused(
        monkeypatch, m, r"^small cover gluing failed: the coset table of "
        rf"face {re.escape(str(vertex))} does not compose with that of face")


def test_a_facet_table_that_is_not_two_to_one_is_refused(monkeypatch):
    m = _cover("path:3/can")
    facet = m.poset.faces_by_size[1][0]
    # the identity composes with every table, but glues no two copies
    m._reduced[facet] = list(range(m.n_copies()))
    _tampered_gluing_is_refused(
        monkeypatch, m, r"^small cover gluing failed: the coset table of "
        rf"facet {re.escape(str(facet))} does not take each value twice$")


def test_a_poset_missing_a_vertex_breaks_the_diamonds_of_bar(monkeypatch):
    p, b = _pentagon()
    levels = list(p.faces_by_size)
    levels[p.dim] = levels[p.dim][1:]
    m = small_cover(FacePoset(b, levels), lambda_can(b))
    _tampered_gluing_is_refused(
        monkeypatch, m, r"^small cover gluing failed: facet \d+ of bar\(P\) "
        r"lies in 1 top cells$")


@pytest.mark.parametrize("make", [m for _, m in FOUR_MANIFOLDS],
                         ids=[name for name, _ in FOUR_MANIFOLDS])
def test_homology_z2_on_four_manifold_complexes(make):
    # The gluing has passed the pseudomanifold check, so the last top
    # column is skipped.  The cells' Betti numbers are checked against the
    # Smith normal form in test_homology_z2_on_the_cells_matches_the_snf;
    # the plain-rank oracle runs on path:5 alone
    # (test_homology_z2_on_a_4_dim_gluing), as it takes 0.4 to 0.8 GB on
    # the others.
    m = make()
    assert passed_pseudo_manifold_check(m.complex)
    assert homology_z2(m.complex) == homology_z2(m.cellular())


@pytest.mark.parametrize("make", [m for _, m in GLUED],
                         ids=[name for name, _ in GLUED])
def test_cellular_orientation_matches_oracles(make):
    _assert_orientation_agrees(make())


def test_small_cover_cells_are_f_times_two_to_the_d():
    for entry in COVERS:
        m = _cover(entry)
        f = m.poset.f_counts()
        n = m.poset.dim
        assert m.cellular().cell_counts() == tuple(
            f[n - d] << d for d in range(n + 1))
    assert _cover("path:4/can").cellular().total_cells() == 100
