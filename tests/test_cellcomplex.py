"""Cell complexes, Smith normal form and homology."""

import gc
import json
import marshal
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, combinations

import pytest

from nestotope import cellcomplex
from nestotope.errors import ValidationError
from nestotope.cellcomplex import (
    SimplicialCellComplex,
    barycentric_subdivide,
    complex_from_json_dict,
    complex_to_json_dict,
    gf2_rank,
    homology,
    homology_z2,
    is_top_cycle,
    klein_bottle,
    orient,
    projective_plane,
    pseudo_manifold_check,
    pseudomanifold_from_spec,
    simplex_sphere,
    smith_normal_form,
    torus7,
)
from nestotope.graphs import (
    cycle_graph,
    graph_building_set,
    members,
    path_graph,
    star_graph,
)
from nestotope.nestohedron import face_poset, face_vectors
from nestotope.smallcover import lambda_can, orientation_cover_via_eta, small_cover
from nestotope.subdivision import (
    _codim2_cofacets,
    lemma_subdivision,
    subdivide_pseudomanifold,
)


def test_from_top_simplices_builds_valid_complexes():
    c = simplex_sphere(1)
    assert c.cell_counts() == (3, 3)
    assert c.validate() and c.is_pure() and c.is_vertex_determined()
    c = simplex_sphere(2)
    assert c.cell_counts() == (4, 6, 4)
    assert c.validate()
    with pytest.raises(ValidationError):
        SimplicialCellComplex.from_top_simplices([])
    with pytest.raises(ValidationError):
        SimplicialCellComplex.from_top_simplices([(0, 1, 2), (0, 1)])
    with pytest.raises(ValidationError):
        SimplicialCellComplex.from_top_simplices([(0, 0, 1)])


def test_subface_navigation():
    c = simplex_sphere(2)
    for t in range(c.n_cells(2)):
        table = c.subfaces(2, t)
        assert len(table) == 8 and table[0] is None
        assert table[0b111] == (2, t)
        for slot in range(3):
            k, cid = table[1 << slot]
            assert k == 0 and cid == c.vertex_columns[2][slot][t]
            assert table[0b111 ^ (1 << slot)] == (1, c.face_columns[2][slot][t])


def _vertex_determined_complexes():
    yield from (simplex_sphere(k) for k in range(1, 5))
    yield torus7()
    yield barycentric_subdivide(torus7())
    yield subdivide_pseudomanifold(simplex_sphere(3), star_graph(4)).complex


def test_subcell_tables_match_vertex_sets():
    # on a vertex-determined complex the subcell on a slot mask is the one
    # whose vertices are the top cell's vertices at those slots
    for c in _vertex_determined_complexes():
        assert c.is_vertex_determined()
        for t, verts in enumerate(zip(*c.vertex_columns[c.n])):
            table = c.subfaces(c.n, t)
            for mask in range(1, len(table)):
                k, cid = table[mask]
                assert ([col[cid] for col in c.vertex_columns[k]]
                        == [verts[s] for s in members(mask)])


def test_codim2_cofacets_match_vertex_sets():
    # closed complexes, and simplex subdivisions, whose boundary facets lie
    # in a single top cell; and fans of three triangles on an edge and of
    # four tetrahedra on a triangle, whose middle facet lies in three and
    # four top cells
    lemmas = (lemma_subdivision(g, a).complex
              for g, a in ((path_graph(3), 0), (path_graph(3), 1),
                           (star_graph(4), 2), (cycle_graph(4), 0)))
    fans = (SimplicialCellComplex.from_top_simplices(tops) for tops in (
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)],
        [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 2, 6)]))
    for c in chain(_vertex_determined_complexes(), lemmas, fans):
        if c.n < 2:
            continue
        want = Counter(frozenset(sub) for verts in zip(*c.vertex_columns[c.n])
                       for sub in combinations(verts, c.n - 1))
        got = {frozenset(col[cid] for col in c.vertex_columns[k]): cnt
               for (k, cid), cnt in _codim2_cofacets(c).items()}
        assert got == dict(want)


def test_subcell_tables_match_gluing_instances(gluing):
    # the two-arc circle, and two triangles glued along their whole boundary
    for dim, gluings in ((1, [((0, 0), (1, 0)), ((0, 1), (1, 1))]),
                         (2, [((0, i), (1, i)) for i in range(3)])):
        cx, instance = gluing.complex_from_gluings(dim, 2, gluings)
        assert not cx.is_vertex_determined()
        for t in range(2):
            table = cx.subfaces(dim, t)
            assert table[1:] == [instance(t, m) for m in range(1, len(table))]


def test_two_arc_circle_is_not_vertex_determined(gluing):
    cx, instance = gluing.complex_from_gluings(
        1, 2, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert cx.cell_counts() == (2, 2)
    assert cx.validate() and not cx.is_vertex_determined()
    assert pseudo_manifold_check(cx).is_pseudo
    assert homology(cx).betti_q == (1, 1)
    assert instance(0, 0b11)[0] == 1


def _self_glued_arc():
    """One edge with its two ends glued to one vertex."""
    return SimplicialCellComplex(1, 1, [None, [(0, 0)]], [None, [(0, 0)]])


def test_self_glued_arc_is_rejected(gluing):
    cx, _ = gluing.complex_from_gluings(1, 1, [((0, 0), (0, 1))])
    assert not cx.validate()
    arc = _self_glued_arc()
    assert ((cx.vertex_columns, cx.face_columns)
            == (arc.vertex_columns, arc.face_columns))


def test_spheres():
    for k in range(1, 5):
        c = simplex_sphere(k)
        prof = homology(c)
        want = tuple(1 if i in (0, k) else 0 for i in range(k + 1))
        assert prof.betti_q == want
        assert prof.betti_z2 == want
        assert all(t == () for t in prof.torsion)
        assert orient(c).orientation != "non-orientable"
    with pytest.raises(ValidationError):
        simplex_sphere(0)


def test_surfaces():
    t = torus7()
    assert t.cell_counts() == (7, 21, 14)
    prof = homology(t)
    assert prof.betti_q == (1, 2, 1) and prof.euler == 0
    assert all(x == () for x in prof.torsion)

    k = klein_bottle()
    prof = homology(k)
    assert prof.betti_q == (1, 1, 0)
    assert prof.betti_z2 == (1, 2, 1)
    assert prof.torsion[1] == (2,)
    assert orient(k).orientation == "non-orientable"

    p = projective_plane()
    prof = homology(p)
    assert prof.betti_q == (1, 0, 0)
    assert prof.betti_z2 == (1, 1, 1)
    assert prof.torsion[1] == (2,)


def test_pseudo_manifold_check_flags_boundary():
    disc = SimplicialCellComplex.from_top_simplices([(0, 1, 2)])
    cert = pseudo_manifold_check(disc)
    assert not cert.is_pseudo
    assert any("expected 2" in f for f in cert.failures)


def test_pseudo_manifold_verdict_is_memoised_not_shared():
    disc = SimplicialCellComplex.from_top_simplices([(0, 1, 2)])
    first = pseudo_manifold_check(disc)
    second = pseudo_manifold_check(disc)
    assert first == second and first is not second
    assert first.failures is not second.failures
    # orient fills in and may extend its own certificate, never the verdict
    c = simplex_sphere(2)
    cert = orient(c)
    cert.failures.append("changed by the caller")
    again = pseudo_manifold_check(c)
    assert again.is_pseudo and again.failures == [] and again.orientation is None
    assert orient(c).orientation == cert.orientation


def _suspended_two_arc_circle(gl):
    """The 3-sphere as the double suspension of the two-arc circle: tet
    (arc, p, q) has vertices (a, b, p, q), with poles p in {N, S} and q in
    {N', S'}.  Its two edges from a to b share their vertex tuple."""
    def tet(arc, p, q):
        return 4 * arc + 2 * p + q
    gluings = []
    for x in (0, 1):
        for y in (0, 1):
            gluings += [((tet(0, x, y), s), (tet(1, x, y), s)) for s in (0, 1)]
            gluings.append(((tet(x, 0, y), 2), (tet(x, 1, y), 2)))
            gluings.append(((tet(x, y, 0), 3), (tet(x, y, 1), 3)))
    cx, _ = gl.complex_from_gluings(3, 8, gluings)
    return cx


def _glued(graph, construct):
    b = graph_building_set(graph)
    return construct(face_poset(b), lambda_can(b)).complex


def _traced(fn):
    """fn() under tracemalloc, with the bytes it left allocated and its peak
    above what was allocated before."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return out, current - before, peak - before


@cache
def _path5_gluing():
    """The 4-dim small cover of path:5 under lambda_can, glued once for every
    test that reads it, and its h-vector."""
    b = graph_building_set(path_graph(5))
    p = face_poset(b)
    return small_cover(p, lambda_can(b)).complex, face_vectors(p).h


# Every kind of complex the library builds, and a few glued by hand.
CHECKED_COMPLEXES = {
    "sphere:1": lambda gl: simplex_sphere(1),
    "sphere:2": lambda gl: simplex_sphere(2),
    "sphere:3": lambda gl: simplex_sphere(3),
    "sphere:4": lambda gl: simplex_sphere(4),
    "torus7": lambda gl: torus7(),
    "klein": lambda gl: klein_bottle(),
    "rp2": lambda gl: projective_plane(),
    "bar torus7": lambda gl: barycentric_subdivide(torus7()),
    "bar klein": lambda gl: barycentric_subdivide(klein_bottle()),
    "double cover rp2": lambda gl: gl.orientation_double_cover(projective_plane())[0],
    "double cover torus7": lambda gl: gl.orientation_double_cover(torus7())[0],
    "double cover klein": lambda gl: gl.orientation_double_cover(klein_bottle())[0],
    "sphere:3/star:4": lambda gl: subdivide_pseudomanifold(
        simplex_sphere(3), star_graph(4)).complex,
    "torus7/path:3": lambda gl: subdivide_pseudomanifold(torus7(), path_graph(3)).complex,
    "path:5 can": lambda gl: _path5_gluing()[0],
    "eta path:4": lambda gl: _glued(path_graph(4), orientation_cover_via_eta),
    "two-arc circle": lambda gl: gl.complex_from_gluings(
        1, 2, [((0, 0), (1, 0)), ((0, 1), (1, 1))])[0],
    "two triangles": lambda gl: gl.complex_from_gluings(
        2, 2, [((0, i), (1, i)) for i in range(3)])[0],
    "suspended two-arc circle": _suspended_two_arc_circle,
    "disc": lambda gl: SimplicialCellComplex.from_top_simplices([(0, 1, 2)]),
}


@pytest.mark.parametrize("name", CHECKED_COMPLEXES)
def test_column_checks_match_cell_loops(name, cell_checks, gluing):
    c = CHECKED_COMPLEXES[name](gluing)
    assert c.validate() == cell_checks.validate(c)
    assert c.is_pure() == cell_checks.is_pure(c)
    assert c.is_vertex_determined() == cell_checks.is_vertex_determined(c)
    assert pseudo_manifold_check(c).failures == cell_checks.pseudo_failures(c)


def test_vertex_determined_reaches_sorted_and_unsorted_levels(cell_checks,
                                                              gluing):
    # is_vertex_determined sorts only the levels whose columns do not
    # increase; the checked complexes hold both kinds, with either verdict
    kinds = set()
    for build in CHECKED_COMPLEXES.values():
        c = build(gluing)
        verdict = c.is_vertex_determined()
        assert verdict == cell_checks.is_vertex_determined(c)
        for vk in c.vertex_columns[1:]:
            kinds.add((all(t == tuple(sorted(t)) for t in zip(*vk)), verdict))
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


@pytest.mark.parametrize("edges, verdict", [
    ([(0, 1), (1, 2)], True),
    ([(0, 1), (0, 1)], False),
    ([(1, 0), (2, 1)], True),
    ([(0, 1), (1, 0)], False),
    # sorted and unsorted rows in one level, which is then sorted row by row
    ([(0, 1), (2, 0), (5, 6), (0, 2)], False),
    ([(0, 1), (2, 0), (5, 6), (6, 3)], True),
])
def test_vertex_determined_on_hand_made_edges(edges, verdict, cell_checks):
    c = _graph(7, edges)
    assert c.is_vertex_determined() is verdict
    assert cell_checks.is_vertex_determined(c) is verdict


def test_repeated_edge_tuples_are_checked_for_double_faces(gluing):
    # the levels the vertex-tuple argument cannot skip
    c = _suspended_two_arc_circle(gluing)
    assert not c.is_vertex_determined()
    assert len(set(zip(*c.vertex_columns[1]))) < c.n_cells(1)
    assert pseudo_manifold_check(c).is_pseudo
    assert homology(c).betti_q == (1, 0, 0, 1)


def _rebuilt(c, edit):
    """``c`` built again through the raw constructor from its rows, after
    ``edit`` has changed the per-level lists of vertex and face rows."""
    verts = [list(zip(*cols)) for cols in c.vertex_columns]
    faces = [list(zip(*cols)) for cols in c.face_columns]
    edit(verts, faces)
    return SimplicialCellComplex(c.n, c.n_cells(0), verts, faces)


def _sphere2_with_top_faces(edit):
    """sphere:2 with the face tuple of its first triangle edited; ``edit``
    also gets the number of edges."""
    def change(verts, faces):
        faces[2][0] = edit(faces[2][0], len(faces[1]))
    return _rebuilt(simplex_sphere(2), change)


def _one_double_face_fails():
    # a tetrahedron whose triangle (0, 1, 2) takes a copy of the edge (0, 1):
    # the vertex checks hold, but the tetrahedron's double face on slots 2
    # and 3 is the copy through one facet and the edge through the other
    def change(verts, faces):
        e = verts[1].index((0, 1))
        verts[1].append(verts[1][e])
        faces[1].append(faces[1][e])
        t = verts[2].index((0, 1, 2))
        faces[2][t] = faces[2][t][:2] + (len(faces[1]) - 1,)
    return _rebuilt(SimplicialCellComplex.from_top_simplices([(0, 1, 2, 3)]),
                    change)


def _unused_edge():
    def change(verts, faces):
        verts[1].append(verts[1][0])
        faces[1].append(faces[1][0])
    return _rebuilt(simplex_sphere(2), change)


def _repeated_top_vertex():
    def change(verts, faces):
        v = verts[3][0]
        verts[3][0] = (v[0], v[0]) + v[2:]
    return _rebuilt(simplex_sphere(3), change)


CORRUPTED = {
    # the id minus the edge count indexes the same edge from the end
    "negative face id": (lambda: _sphere2_with_top_faces(
        lambda f, m: (f[0] - m,) + f[1:]), False, None),
    "face id out of range": (lambda: _sphere2_with_top_faces(
        lambda f, m: f[:2] + (m,)), False, None),
    "repeated edge vertex": (_self_glued_arc, False, None),
    "repeated top vertex": (_repeated_top_vertex, False, None),
    "face with wrong vertices": (lambda: _sphere2_with_top_faces(
        lambda f, m: f[::-1]), False, None),
    # slots 1 and 2 both take the edge (v0, v2): only its last vertex is wrong
    "face with wrong last vertex": (lambda: _sphere2_with_top_faces(
        lambda f, m: f[:2] + f[1:2]), False, None),
    "isolated vertex": (lambda: SimplicialCellComplex.from_top_simplices(
        zip(*simplex_sphere(2).vertex_columns[2]), vertex_labels=range(5)),
        True, False),
    "unused edge": (_unused_edge, True, False),
    "facet hit once": (lambda: SimplicialCellComplex.from_top_simplices(
        [(0, 1, 2)]), True, True),
    "facet hit three times": (lambda: SimplicialCellComplex.from_top_simplices(
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), True, True),
    "27 facets hit once": (lambda: SimplicialCellComplex.from_top_simplices(
        [(0, i, i + 1) for i in range(1, 26)]), True, True),
    "one double face fails": (_one_double_face_fails, False, None),
}


@pytest.mark.parametrize("name", CORRUPTED)
def test_corrupted_complexes_get_the_loop_verdict(name, cell_checks):
    build, valid, pure = CORRUPTED[name]
    c = build()
    assert c.validate() is cell_checks.validate(c) is valid
    if valid:  # purity reads face ids as indices, so it needs a valid complex
        assert c.is_pure() is cell_checks.is_pure(c) is pure
    assert c.is_vertex_determined() == cell_checks.is_vertex_determined(c)
    failures = pseudo_manifold_check(c).failures
    assert failures and failures == cell_checks.pseudo_failures(c)


# Rows the raw constructor refuses, each with its message: a level must
# have one face row per cell, and every row of level k must be k + 1 long.
# A level with fewer face rows than cells is refused in
# ``test_short_face_list_is_invalid``.
RAGGED = {
    "short row": (lambda: _sphere2_with_top_faces(lambda f, m: f[:2]),
                  "a row of level 2 has 2 entries, not 3"),
    "long row": (lambda: _sphere2_with_top_faces(lambda f, m: f + f[:1]),
                 "a row of level 2 has 4 entries, not 3"),
    "more face rows than cells": (
        lambda: _rebuilt(simplex_sphere(2),
                         lambda verts, faces: faces[1].append(faces[1][0])),
        "level 1 has 7 face rows for 6 cells"),
    "edges without faces": (lambda: SimplicialCellComplex(
        1, 7, [None, [(0, 1), (1, 2)]], [None, [(), ()]]),
        "a row of level 1 has 0 entries, not 2"),
    "edges of three vertices": (lambda: SimplicialCellComplex(
        1, 7, [None, [(0, 1, 2), (5, 6)]], [None, [(2, 1, 0), (6, 5)]]),
        "a row of level 1 has 3 entries, not 2"),
}


@pytest.mark.parametrize("shape", RAGGED)
def test_ragged_rows_are_refused(shape):
    build, message = RAGGED[shape]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


def test_short_face_list_is_invalid():
    # fewer face rows than cells
    with pytest.raises(ValidationError,
                       match="^level 2 has 3 face rows for 4 cells$"):
        _rebuilt(simplex_sphere(2), lambda verts, faces: faces[2].pop())


def test_well_shaped_instance_list_rebuilds_the_complex(gluing):
    # the instance list of a complex that is not vertex-determined goes
    # through the raw constructor and gives back the same columns
    for c in (gluing.complex_from_gluings(
                  1, 2, [((0, 0), (1, 0)), ((0, 1), (1, 1))])[0],
              _suspended_two_arc_circle(gluing),
              gluing.complex_from_gluings(
                  2, 2, [((0, i), (1, i)) for i in range(3)])[0]):
        doc = complex_to_json_dict(c)
        assert "instances" in doc
        back, _ = complex_from_json_dict(doc)
        assert back.vertex_columns == c.vertex_columns
        assert back.face_columns == c.face_columns


@pytest.mark.parametrize("build", [torus7, klein_bottle])
def test_orient_calls_facet_pairs_and_validate_once(monkeypatch, build):
    calls = []
    for name in ("facet_pairs", "validate"):
        method = getattr(SimplicialCellComplex, name)

        def counting(self, name=name, method=method):
            calls.append(name)
            return method(self)

        monkeypatch.setattr(SimplicialCellComplex, name, counting)
    orient(build())
    assert sorted(calls) == ["facet_pairs", "validate"]


# Every checked complex, and two points, whose orientation needs no facets.
ORIENTED_COMPLEXES = {
    **CHECKED_COMPLEXES,
    "two points": lambda gl: SimplicialCellComplex.from_top_simplices([(0,), (1,)]),
}


@pytest.mark.parametrize("name", ORIENTED_COMPLEXES)
def test_orientation_matches_the_adjacency_walk(name, cell_checks, gluing):
    c = ORIENTED_COMPLEXES[name](gluing)
    incidences = cell_checks.facet_incidences(c)
    hits = [divmod(h, c.n + 1) for h in c.facet_pairs()]
    assert hits == list(chain.from_iterable(incidences))
    cert = orient(c)
    assert cert == cell_checks.orient(c)
    if cert.is_pseudo:
        # entries 2f and 2f + 1 are the two hits of facet f
        assert [hits[2 * f:2 * f + 2] for f in range(len(incidences))] == incidences
    if isinstance(cert.orientation, tuple):
        assert is_top_cycle(c, cert.orientation)


def test_orientation_signs_cancel_on_facets(cell_checks):
    c = simplex_sphere(2)
    sign = orient(c).orientation
    for (t1, s1), (t2, s2) in cell_checks.facet_incidences(c):
        assert sign[t1] * (-1) ** s1 + sign[t2] * (-1) ** s2 == 0
    assert is_top_cycle(c, sign)
    assert not is_top_cycle(c, (-sign[0],) + sign[1:])


def test_double_cover_of_projective_plane_is_a_sphere(gluing):
    cover, proj = gluing.orientation_double_cover(projective_plane())
    assert cover.n_cells(2) == 2 * projective_plane().n_cells(2)
    assert homology(cover).betti_q == (1, 0, 1)
    base = projective_plane()
    for k in range(3):
        assert len(proj[k]) == cover.n_cells(k)
        assert set(proj[k]) == set(range(base.n_cells(k)))


def test_double_cover_of_torus_splits(gluing):
    cover, _ = gluing.orientation_double_cover(torus7())
    assert homology(cover).betti_q[0] == 2
    assert cover.euler_characteristic() == 0


def test_barycentric_subdivision():
    bar = barycentric_subdivide(simplex_sphere(1))
    assert bar.cell_counts() == (6, 6)
    bar = barycentric_subdivide(torus7())
    assert bar.n_cells(2) == 14 * 6
    assert bar.euler_characteristic() == 0
    assert homology_z2(bar) == (1, 2, 1)
    # bar vertices are labelled by the cell they subdivide
    assert all(lbl[0] in (0, 1, 2) for lbl in bar.vertex_labels)


def _rational_rank(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col]
        a[rank] = [v / inv for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_smith_normal_form_known_values():
    rank, divs = smith_normal_form({(0, 0): 2, (1, 1): 3})
    assert (rank, divs) == (2, (1, 6))
    rank, divs = smith_normal_form({(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 8})
    assert (rank, divs) == (1, (2,))
    assert smith_normal_form({}) == (0, ())


def _dense_entries(dense):
    return {(i, j): v for i, row in enumerate(dense)
            for j, v in enumerate(row) if v}


# Hand-built matrices for each step of the sparse loop, with their divisors
# and, for the remainder step, the first calls it must make: "sparse" builds
# the row and column maps (a second one is the transpose), "add q" is a row
# operation row -= q * row.
@pytest.mark.parametrize("dense, divisors, first_calls", [
    # content 4, then content 3 after one unit: two content divisions
    ([[4, 8], [8, 4]], (4, 12), []),
    ([[2, 0, 0], [0, 4, 0], [0, 0, 8]], (2, 4, 8), []),
    # the least entry 6 does not divide 15 in its column: a row operation
    ([[6, 10], [15, 0]], (1, 150), ["sparse", "add 2"]),
    # 6 divides its column but not 10 in its row: a column operation
    ([[6, 10], [12, 0]], (2, 60), ["sparse", "sparse", "add 1"]),
    # 2 divides its row and column, so 3 is first moved into its row
    ([[2, 0], [0, 3]], (1, 6), ["sparse", "add -1", "sparse", "add 1"]),
    # as above, after clearing the 4 under the 2 from the moved row
    ([[2, 4], [4, 3]], (1, 10),
     ["sparse", "add 2", "add -1", "sparse", "add -1"]),
], ids=["content 4 then 3", "diag 2,4,8", "row", "column", "move",
        "clear and move"])
def test_smith_normal_form_steps(monkeypatch, snf_oracle, dense, divisors,
                                 first_calls):
    calls = []
    add_row, sparse = cellcomplex._add_row, cellcomplex._sparse

    def spy_add_row(rows, cols, dst, src, q):
        calls.append(f"add {q}")
        return add_row(rows, cols, dst, src, q)

    def spy_sparse(entries):
        calls.append("sparse")
        return sparse(entries)

    monkeypatch.setattr(cellcomplex, "_add_row", spy_add_row)
    monkeypatch.setattr(cellcomplex, "_sparse", spy_sparse)
    entries = _dense_entries(dense)
    want = (len(divisors), divisors)
    assert smith_normal_form(entries) == want
    assert snf_oracle(entries, len(dense), len(dense[0])) == want
    assert calls[:len(first_calls)] == first_calls


# Three entry pools without units, so that content division and the
# remainder step run, and small entries of either sign.
SNF_POOLS = [(0, 2, -2, 3, -3, 6, 4, -6, 9), (0, 6, 10, 15, -6, -10),
             (0, 4, 8, -4, 12, 6), tuple(range(-4, 5))]


def test_smith_normal_form_random_matrices(snf_oracle):
    rng = random.Random(11)
    for trial in range(2000):
        pool = SNF_POOLS[trial % len(SNF_POOLS)]
        nr = rng.randrange(1, 8)
        nc = rng.randrange(1, 8)
        dense = [[rng.choice(pool) for _ in range(nc)] for _ in range(nr)]
        entries = _dense_entries(dense)
        rank, divs = smith_normal_form(entries)
        assert (rank, divs) == snf_oracle(entries, nr, nc)
        assert rank == _rational_rank(dense)
        assert len(divs) == rank
        assert all(d > 0 for d in divs)
        assert all(divs[i + 1] % divs[i] == 0 for i in range(rank - 1))
        # mod-2 rank equals the number of odd divisors
        cols = []
        for j in range(nc):
            m = 0
            for i in range(nr):
                if dense[i][j] & 1:
                    m |= 1 << i
            cols.append(m)
        assert gf2_rank(cols) == sum(1 for d in divs if d % 2 == 1)


def test_gf2_rank():
    assert gf2_rank([0b11, 0b10, 0b01]) == 2
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b101, 0b011, 0b110]) == 2


def test_boundary_squares_to_zero():
    for c in (simplex_sphere(3), torus7(), klein_bottle()):
        for k in range(2, c.n + 1):
            upper = c.boundary_entries(k)
            lower = c.boundary_entries(k - 1)
            acc = {}
            for (mid, col), v in upper.items():
                for (row, mid2), w in lower.items():
                    if mid2 == mid:
                        acc[(row, col)] = acc.get((row, col), 0) + v * w
            assert all(v == 0 for v in acc.values())


def test_homology_routes_agree(betti_z2_without_clearing):
    subdivided = subdivide_pseudomanifold(torus7(), path_graph(3)).complex
    for c in (simplex_sphere(2), simplex_sphere(3), torus7(),
              klein_bottle(), projective_plane(), subdivided):
        assert homology(c).betti_z2 == homology_z2(c)
        assert betti_z2_without_clearing(c) == homology_z2(c)


def _graph(vertex_count, edges):
    """A raw 1-dim complex; edge (a, b) has faces (b, a), so its first face
    is its higher vertex."""
    return SimplicialCellComplex(1, vertex_count, [None, edges],
                                 [None, [e[::-1] for e in edges]])


def _disc_on_a_loop():
    """Edge 0 joins vertices 0 and 1, edge 1 is a loop at vertex 0, and one
    triangle has faces (0, 0, 1): its boundary is the loop, edge 0 twice
    cancelling, so its column's lowest row is a face that cancels."""
    return SimplicialCellComplex(2, 2, [None, [(0, 1), (0, 0)], [(0, 0, 1)]],
                                 [None, [(1, 0), (0, 0)], [(0, 0, 1)]])


def _disc_on_a_doubled_edge():
    """Edges 0 and 1 both join vertices 0 and 1, and one triangle has
    faces (1, 1, 0): edge 1 twice cancelling, its boundary is edge 0, so
    its column's highest face is one that cancels."""
    return SimplicialCellComplex(2, 2, [None, [(0, 1), (0, 1)], [(0, 0, 1)]],
                                 [None, [(1, 0), (1, 0)], [(1, 1, 0)]])


# Raw complexes that send GF(2) elimination down each of its branches.  A
# column that takes no step is stored as its index, so its faces are what a
# later step adds; a column that steps and stays nonzero is stored as its
# narrow (low, bits).
REDUCTION_CASES = {
    # the third column, rows {0, 2}, meets the index pivot at row 2 with
    # rows {1, 2}, based above it; what is left, rows {0, 1}, meets the
    # index pivot rows {0, 1} and reduces to zero
    "pivot based above the column": (lambda: _graph(3, [(0, 1), (1, 2), (0, 2)]), (1, 1)),
    # the second column, rows {1, 2}, meets the index pivot rows {0, 2},
    # based below it, and is shifted up to rows {0, 1} and stored narrow;
    # the third, rows {0, 1}, meets that reduced pivot at its own base
    "pivot based below the column": (lambda: _graph(3, [(0, 2), (1, 2), (0, 1)]), (1, 1)),
    # the second column, rows {2, 5}, meets the index pivot rows {4, 5} and
    # is stored narrow as rows {2, 4}; the third, rows {0, 4}, meets that
    # reduced pivot, based above it, and is stored narrow as rows {0, 2};
    # the fourth, rows {0, 2}, meets that one at its own base
    "reduced pivot based above the column": (
        lambda: _graph(6, [(4, 5), (2, 5), (0, 4), (0, 2)]), (3, 1)),
    # the second column, rows {0, 5}, meets the index pivot rows {4, 5} and
    # is stored narrow as rows {0, 4}; the fourth, rows {3, 4}, meets that
    # reduced pivot, based below it, is shifted up to rows {0, 3} and meets
    # the index pivot rows {0, 3}, which leaves zero
    "reduced pivot based below the column": (
        lambda: _graph(6, [(4, 5), (0, 5), (0, 3), (3, 4)]), (3, 1)),
    "repeated face cancels the column": (_self_glued_arc, (1, 1)),
    "repeated lowest face": (_disc_on_a_loop, (1, 0, 0)),
    # the triangle's highest face, edge 1, cancels, so the column is built
    # and stored narrow as edge 0 alone, never as its index
    "repeated highest face": (_disc_on_a_doubled_edge, (1, 0, 0)),
}


@pytest.mark.parametrize("name", REDUCTION_CASES)
def test_homology_z2_reduction_cases(name, betti_z2_without_clearing):
    build, want = REDUCTION_CASES[name]
    c = build()
    assert homology_z2(c) == want == betti_z2_without_clearing(c)
    assert homology(c).betti_z2 == want


def _renumbered(c, rng):
    """c with the cells of every level in a random order."""
    perm = [rng.sample(range(c.n_cells(k)), c.n_cells(k)) for k in range(c.n + 1)]
    cell_vertices = [None]
    cell_faces = [None]
    for k in range(1, c.n + 1):
        verts = [None] * c.n_cells(k)
        faces = [None] * c.n_cells(k)
        for j, new in enumerate(perm[k]):
            verts[new] = tuple(perm[0][col[j]] for col in c.vertex_columns[k])
            faces[new] = tuple(perm[k - 1][col[j]] for col in c.face_columns[k])
        cell_vertices.append(verts)
        cell_faces.append(faces)
    return SimplicialCellComplex(c.n, c.n_cells(0), cell_vertices, cell_faces)


def test_homology_z2_ignores_cell_numbering(betti_z2_without_clearing):
    rng = random.Random(5)
    for c in (simplex_sphere(3), torus7(), klein_bottle(), projective_plane(),
              barycentric_subdivide(klein_bottle())):
        want = homology_z2(c)
        for _ in range(4):
            d = _renumbered(c, rng)
            assert d.validate()
            assert homology_z2(d) == want == betti_z2_without_clearing(d)


def test_homology_z2_on_a_4_dim_gluing(betti_z2_without_clearing):
    c, h = _path5_gluing()
    assert homology_z2(c) == h == betti_z2_without_clearing(c)
    # the same manifold's cellular chain complex, a second column source
    b = graph_building_set(path_graph(5))
    assert homology_z2(small_cover(face_poset(b), lambda_can(b)).cellular()) == h


def _marshal_size(c):
    """The complex's traced size, read off a copy that costs less to trace
    than the gluing: marshal keeps the ints that cells share shared."""
    data = marshal.dumps((c.vertex_columns, c.face_columns, c.vertex_labels))
    return _traced(lambda: marshal.loads(data))[1]


def test_homology_z2_working_set_is_within_half_the_complex():
    c, h = _path5_gluing()
    betti, _, peak = _traced(lambda: homology_z2(c))
    assert betti == h
    # Nearly every column takes no step and is stored as its index, and
    # the pivot rows carried down are one byte per cell; it reads 0.35
    # times the complex here (0.48 with the pivot rows kept as a set).
    # Stored as narrow ints spanning their rows, the pivots cost about 2.4
    # times the complex, and as ints as wide as their highest rows 6.6.
    assert peak <= _marshal_size(c) // 2


def test_gluing_build_peak_is_within_1_4_times_the_complex():
    b = graph_building_set(path_graph(5))
    m = small_cover(face_poset(b), lambda_can(b))
    c, _, peak = _traced(lambda: m.complex)
    # The gluing is certified on bar(P) before the build, which sizes its
    # columns before it fills them: the first read peaks at 1.32 times the
    # complex here, set by the build.  With a pseudomanifold check on the
    # glued complex and the build's tables held through it, it read 1.53
    # times the row layout, and with the columns grown by appending, 1.38
    # times.
    assert peak <= 1.4 * _marshal_size(c)


def test_gluing_stores_under_100_bytes_a_cell():
    # k + 1 vertex and k + 1 face columns of ints per level, the ints
    # shared between them: 85 bytes a cell here, against about 180 for a
    # vertex tuple and a face tuple per cell
    c, _ = _path5_gluing()
    assert _marshal_size(c) <= 100 * c.total_cells()


def _two_spheres():
    """Two boundaries of tetrahedra, on disjoint vertices."""
    return SimplicialCellComplex.from_top_simplices(
        list(combinations(range(4), 3)) + list(combinations(range(4, 8), 3)))


def _handed_over(monkeypatch, build):
    """``build()``, and the last top simplices and labels that it handed
    to ``from_top_simplices``."""
    calls = []
    real = SimplicialCellComplex.from_top_simplices.__func__

    def spy(cls, tops, vertex_labels=None):
        calls.append((list(tops), vertex_labels))
        return real(cls, *calls[-1])

    with monkeypatch.context() as m:
        m.setattr(SimplicialCellComplex, "from_top_simplices", classmethod(spy))
        c = build()
    return c, calls[-1]


def _from_tops(build):
    """A layout case whose reference is the row construction on the top
    simplices that ``build`` hands over."""
    def case(monkeypatch, oracle, gluing):
        c, (tops, labels) = _handed_over(monkeypatch, build)
        return c, oracle.from_top_simplices(tops, labels)
    return case


def _barycentric_of(build):
    """A layout case: the barycentric subdivision of ``build()``, against
    the reference subdivision of the reference rows."""
    def case(monkeypatch, oracle, gluing):
        z, (tops, labels) = _handed_over(monkeypatch, build)
        return (barycentric_subdivide(z),
                oracle.barycentric(oracle.from_top_simplices(tops, labels)))
    return case


def _path_subdivision(monkeypatch, oracle, gluing):
    z, (tops, labels) = _handed_over(monkeypatch, torus7)
    return (subdivide_pseudomanifold(z, path_graph(3)).complex,
            oracle.barycentric(oracle.from_top_simplices(tops, labels)))


def _substitution(build, graph):
    """A layout case: the substitution subdivision of ``build()`` through
    ``graph``, against the row-by-row substitution of the same pieces."""
    def case(monkeypatch, oracle, gluing):
        z = build()
        got = subdivide_pseudomanifold(z, graph).complex
        want, _ = oracle.substitute(barycentric_subdivide(z),
                                    lemma_subdivision(graph, 0))
        return got, want
    return case


def _json_instances(build):
    """A layout case: the JSON round trip of a complex that is not vertex
    determined, against the rows rebuilt from its instance list."""
    def case(monkeypatch, oracle, gluing):
        doc = complex_to_json_dict(build(gluing))
        return complex_from_json_dict(doc)[0], oracle.from_instances(doc)
    return case


LAYOUT_CASES = {
    **{f"sphere:{k}": _from_tops(lambda k=k: simplex_sphere(k))
       for k in range(1, 5)},
    "torus7": _from_tops(torus7),
    "klein": _from_tops(klein_bottle),
    "rp2": _from_tops(projective_plane),
    "two spheres": _from_tops(_two_spheres),
    "bar torus7": _barycentric_of(torus7),
    "bar klein": _barycentric_of(klein_bottle),
    "bar sphere:3": _barycentric_of(lambda: simplex_sphere(3)),
    "torus7/path:3": _path_subdivision,
    "sphere:3/star:4": _substitution(lambda: simplex_sphere(3), star_graph(4)),
    "sphere:2/cycle:3": _substitution(lambda: simplex_sphere(2), cycle_graph(3)),
    **{f"lemma {name}@{a}": _from_tops(
        lambda g=g, a=a: lemma_subdivision(g, a).complex)
       for name, g, a in (("path:3", path_graph(3), 1),
                          ("star:4", star_graph(4), 2),
                          ("cycle:4", cycle_graph(4), 0))},
    "json torus7": _from_tops(
        lambda: complex_from_json_dict(complex_to_json_dict(torus7()))[0]),
    "json two-arc circle": _json_instances(lambda gl: gl.complex_from_gluings(
        1, 2, [((0, 0), (1, 0)), ((0, 1), (1, 1))])[0]),
    "json suspended two-arc circle": _json_instances(_suspended_two_arc_circle),
    "json two triangles": _json_instances(lambda gl: gl.complex_from_gluings(
        2, 2, [((0, i), (1, i)) for i in range(3)])[0]),
}


@pytest.mark.parametrize("name", LAYOUT_CASES)
def test_columns_zip_to_the_row_construction(
        name, monkeypatch, layout_oracle, gluing):
    c, want = LAYOUT_CASES[name](monkeypatch, layout_oracle, gluing)
    assert c.n == want.dim
    for k in range(c.n + 1):
        assert layout_oracle.rows(c, k) == (want.vertices[k], want.faces[k])
    if want.labels is not None:
        assert c.vertex_labels == want.labels


# Closed complexes on which ``homology_z2`` skips the last top column, with
# their mod-2 Betti numbers.
CLOSED_COMPLEXES = {
    **{f"sphere:{k}": (lambda k=k: simplex_sphere(k),
                       tuple(int(i in (0, k)) for i in range(k + 1)))
       for k in range(1, 5)},
    "torus7": (torus7, (1, 2, 1)),
    "klein": (klein_bottle, (1, 2, 1)),
    "rp2": (projective_plane, (1, 1, 1)),
    "bar klein": (lambda: barycentric_subdivide(klein_bottle()), (1, 2, 1)),
    "two spheres": (_two_spheres, (2, 0, 2)),
}


@pytest.mark.parametrize("name", CLOSED_COMPLEXES)
def test_homology_z2_skips_the_last_top_column_once_checked(
        name, betti_z2_without_clearing):
    build, want = CLOSED_COMPLEXES[name]
    c = build()
    assert homology_z2(c) == want   # not checked yet: the column is reduced
    assert pseudo_manifold_check(c).is_pseudo
    assert homology_z2(c) == want == betti_z2_without_clearing(c)
    assert homology(c).betti_z2 == want
    # Overwritten after the check with faces past the last facet, the last
    # top column changes nothing, since it is never reduced.  On a complex
    # that has not been checked the same column is reduced: it becomes a
    # pivot on a row that the level below does not have.
    fresh = build()
    for d in (c, fresh):
        below = d.n_cells(d.n - 1)
        for slot, col in enumerate(d.face_columns[d.n]):
            col[-1] = below + slot
    assert homology_z2(c) == want
    with pytest.raises(IndexError):
        homology_z2(fresh)


def test_homology_z2_reduces_every_top_column_of_a_disc():
    # a disc has boundary, so its top columns need not sum to zero: its
    # one triangle is the last top column, and skipping it would leave a
    # second Betti number of 1
    disc = SimplicialCellComplex.from_top_simplices([(0, 1, 2)])
    assert not pseudo_manifold_check(disc).is_pseudo
    assert homology_z2(disc) == (1, 0, 0) == homology(disc).betti_z2


def test_json_round_trip_vertex_determined():
    t = torus7()
    data = complex_to_json_dict(t)
    back, orientation = complex_from_json_dict(data)
    assert back.cell_counts() == t.cell_counts()
    assert homology(back).betti_q == (1, 2, 1)
    assert orientation is None


def test_json_round_trip_with_instances(gluing):
    cx, _ = gluing.complex_from_gluings(1, 2, [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    data = complex_to_json_dict(cx)
    assert "instances" in data
    back, _ = complex_from_json_dict(data)
    assert back.cell_counts() == (2, 2)
    assert not back.is_vertex_determined()
    assert homology(back).betti_q == (1, 1)


def test_json_orientation_passthrough():
    t = torus7()
    sign = orient(t).orientation
    data = complex_to_json_dict(t, orientation=sign)
    _, got = complex_from_json_dict(data)
    assert tuple(got) == sign


def test_json_rejects_malformed():
    with pytest.raises(ValidationError):
        complex_from_json_dict({"dim": 2})
    with pytest.raises(ValidationError):
        complex_from_json_dict({"dim": 1, "top_cells": [["a", "a"]]})


def test_pseudomanifold_from_spec(tmp_path):
    assert pseudomanifold_from_spec("sphere:2").cell_counts() == (4, 6, 4)
    assert pseudomanifold_from_spec("torus7").n_cells(2) == 14
    assert pseudomanifold_from_spec("klein").n == 2
    f = tmp_path / "c.json"
    f.write_text(json.dumps(complex_to_json_dict(simplex_sphere(1))))
    assert pseudomanifold_from_spec(str(f)).cell_counts() == (3, 3)
    with pytest.raises(ValidationError, match="cannot read"):
        pseudomanifold_from_spec(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2,")
    with pytest.raises(ValidationError, match="malformed"):
        pseudomanifold_from_spec(str(bad))
