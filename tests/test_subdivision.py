"""Graph-coloured subdivisions of simplices and closed complexes."""

import hashlib
import re
from fractions import Fraction
from itertools import chain

import pytest

from nestotope import subdivision
from nestotope.errors import CELL_BUDGET, BudgetExceeded, ValidationError
from nestotope.cellcomplex import (
    SimplicialCellComplex,
    barycentric_subdivide,
    complex_to_json_dict,
    homology,
    homology_z2,
    klein_bottle,
    orient,
    passed_pseudo_manifold_check,
    pseudo_manifold_check,
    pseudomanifold_from_spec,
    simplex_sphere,
    torus7,
)
from nestotope.graphs import (
    Graph,
    cycle_graph,
    graph_from_spec,
    path_graph,
    star_graph,
)
from nestotope.verify import _labeled_connected
from nestotope.subdivision import (
    ColouredSubdivision,
    _lemma_top_count,
    condition_star_check,
    lemma_subdivision,
    subdivide_pseudomanifold,
    verify_lemma_conditions,
)

# frozen top-cell counts of the simplex subdivision, spot-checked by hand:
# the segment splits in two; the triangle with a middle apex needs only
# the four corner-to-centre triangles, with an end apex the reflected
# recursion doubles everything twice more
_SIZES = [
    (path_graph(2), 0, 2),
    (path_graph(3), 1, 4),
    (path_graph(3), 0, 8),
    (path_graph(4), 0, 64),
    (star_graph(4), 0, 8),
    (star_graph(4), 2, 32),
]


@pytest.mark.parametrize("g,apex,tops", _SIZES)
def test_lemma_subdivision_sizes(g, apex, tops):
    k = lemma_subdivision(g, apex)
    assert k.complex.n_cells(g.n_vertices - 1) == tops
    assert k.mode == "simplex"
    assert k.apex == apex


@pytest.mark.parametrize("g,apex,tops", _SIZES)
def test_lemma_certificates(g, apex, tops):
    k = lemma_subdivision(g, apex)
    cert = verify_lemma_conditions(k, g, apex)
    assert cert.ok, cert.failures
    assert set(cert.checks) == {"valid", "rainbow_tops", "apex_interior",
                                "coords_injective", "volumes", "four_cofacets"}


@pytest.mark.parametrize("g,apex,tops", _SIZES)
def test_lemma_top_count_is_closed_form(g, apex, tops):
    assert _lemma_top_count(g, apex) == tops


def _must_not_run(*args, **kwargs):
    raise AssertionError("built something over budget")


def test_lemma_budget_refuses_before_building(monkeypatch):
    # T(n) = 2^(n-1) T(n-1) along a path from an end: 2^21 tops on 7 vertices
    monkeypatch.setattr(subdivision, "_lemma_tops", _must_not_run)
    with pytest.raises(BudgetExceeded, match="simplex subdivision needs "
                       "2097152 top simplices, over the 200000 budget"):
        lemma_subdivision(path_graph(7), 0)
    # the largest substitution the benchmark certifies stays in budget:
    # sphere:4 has 6 * 5! barycentric tops, star:5 gives 16 pieces each
    assert 6 * 120 * _lemma_top_count(star_graph(5), 0) == 11_520 <= CELL_BUDGET


def test_lemma_single_vertex():
    g = Graph(1, [])
    cert = verify_lemma_conditions(lemma_subdivision(g, 0), g, 0)
    assert cert.ok


def test_lemma_coordinates_are_barycentric():
    k = lemma_subdivision(path_graph(3), 0)
    scale = sum(k.coords[0])
    assert scale > 0
    for point in k.coords:
        assert sum(point) == scale
        assert all(type(x) is int and x >= 0 for x in point)


# every labelled connected graph on 1-4 vertices at every apex, and the
# 5-vertex families at apex 0
_ORACLE_INPUTS = [(g, a) for k in range(1, 5) for g in _labeled_connected(k)
                  for a in range(k)] + [
    (graph_from_spec(f"{name}:5"), 0)
    for name in ("path", "star", "cycle", "complete")]


def test_lemma_matches_the_rational_oracle(fraction_lemma_oracle):
    # the integer points, scaled back, are the rational ones: same cells,
    # same colours, and a certificate that passes where the rational
    # volumes add up to the simplex
    for g, a in _ORACLE_INPUTS:
        k = lemma_subdivision(g, a)
        want = fraction_lemma_oracle.lemma(g, a)
        assert k.complex.vertex_columns == want.complex.vertex_columns
        assert k.complex.face_columns == want.complex.face_columns
        assert k.colours == want.colours
        scale = sum(k.coords[0])
        assert all(sum(p) == scale for p in k.coords)
        assert [tuple(Fraction(x, scale) for x in p)
                for p in k.coords] == list(want.coords)
        cert = verify_lemma_conditions(k, g, a)
        assert cert.ok, (g, a, cert.failures)
        assert fraction_lemma_oracle.volumes(want)


def test_lemma_needs_every_block_on_the_common_scale(monkeypatch):
    # path:4 at apex 1 leaves the components {0} and {2, 3}, whose points
    # sum to the scales 1 and 2; joined without rescaling, the cells no
    # longer fill the simplex and the certificate fails
    g = path_graph(4)
    assert verify_lemma_conditions(lemma_subdivision(g, 1), g, 1).ok
    subdivision._MEMO.clear()
    embed = subdivision._embed
    monkeypatch.setattr(subdivision, "_embed",
                        lambda c, positions, width, factor:
                        embed(c, positions, width, 1))
    cert = verify_lemma_conditions(lemma_subdivision(g, 1), g, 1)
    assert not cert.ok and not cert.checks["volumes"]


def test_lemma_rejects_bad_input():
    with pytest.raises(ValidationError, match="apex"):
        lemma_subdivision(path_graph(3), 3)
    with pytest.raises(ValidationError, match="connected"):
        lemma_subdivision(Graph(3, [(0, 1)]), 0)


def test_lemma_refuses_a_collapsing_straightening(monkeypatch):
    # the two reflected copies of a vertex share its colour, so a constant
    # straightening map sends two vertices to one image
    monkeypatch.setattr(subdivision, "_straightening",
                        lambda g, a, scale: lambda x: (0,) * g.n_vertices)
    with pytest.raises(ValidationError, match="collapsed two vertices"):
        lemma_subdivision(path_graph(3), 0)


def test_middle_apex_triangle_geometry():
    k = lemma_subdivision(path_graph(3), 1)
    c = k.complex
    assert c.n_cells(2) == 4
    centre = [v for v in range(c.n_cells(0))
              if k.colours[v] == 1 and all(x != 0 for x in k.coords[v])]
    assert len(centre) == 1
    cofacets = sum(1 for verts in zip(*c.vertex_columns[2]) if centre[0] in verts)
    assert cofacets == 4


def test_subdivide_path_mode():
    y = subdivide_pseudomanifold(torus7(), path_graph(3))
    assert y.mode == "path"
    assert y.complex.cell_counts() == (42, 126, 84)
    assert y.orientation is not None
    assert homology_z2(y.complex) == (1, 2, 1)
    # colours count one per barycentric level
    from collections import Counter
    counts = Counter(y.colours)
    assert counts == Counter({0: 7, 1: 21, 2: 14})


def test_subdivide_relabelled_path_uses_path_order():
    zigzag = Graph(3, [(1, 0), (0, 2)])  # path 1-0-2
    y = subdivide_pseudomanifold(simplex_sphere(2), zigzag)
    assert y.mode == "path"
    # middle colour of the path is 0, carried by the edge barycentres
    from collections import Counter
    assert Counter(y.colours)[0] == simplex_sphere(2).n_cells(1)


def test_subdivide_substitution_mode():
    y = subdivide_pseudomanifold(simplex_sphere(2), cycle_graph(3))
    assert y.mode == "substitution"
    assert homology(y.complex).betti_q == (1, 0, 1)
    cert = condition_star_check(y, cycle_graph(3))
    assert cert.ok, cert.failures


def test_subdivide_forced_apex_leaves_path_shortcut():
    y = subdivide_pseudomanifold(simplex_sphere(1), path_graph(2), apex=1)
    assert y.mode == "substitution"
    assert homology(y.complex).betti_q == (1, 1)


def test_subdivide_rejects_bad_input():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        subdivide_pseudomanifold(simplex_sphere(2), path_graph(4))
    with pytest.raises(ValidationError, match="non-orientable input"):
        subdivide_pseudomanifold(klein_bottle(), path_graph(3))
    disc = SimplicialCellComplex.from_top_simplices([(0, 1, 2)])
    with pytest.raises(ValidationError, match="pseudo-manifold"):
        subdivide_pseudomanifold(disc, path_graph(3))
    with pytest.raises(ValidationError, match="connected"):
        subdivide_pseudomanifold(simplex_sphere(2), Graph(3, [(0, 1)]))


def test_condition_star_counts():
    y = subdivide_pseudomanifold(torus7(), path_graph(3))
    cert = condition_star_check(y, path_graph(3))
    assert cert.ok and cert.cells_checked == 21

    y = subdivide_pseudomanifold(simplex_sphere(3), path_graph(4))
    cert = condition_star_check(y, path_graph(4))
    assert cert.ok and cert.cells_checked == 90

    y = subdivide_pseudomanifold(simplex_sphere(3), star_graph(4))
    cert = condition_star_check(y, star_graph(4))
    assert cert.ok and cert.cells_checked == 720


def test_substituted_complex_is_certified_not_validated(monkeypatch):
    calls = []
    validate = SimplicialCellComplex.validate
    bars = []
    barycentric = subdivision.barycentric_subdivide

    def counting(self):
        calls.append(self)
        return validate(self)

    def kept(c):
        bars.append(barycentric(c))
        return bars[-1]

    monkeypatch.setattr(SimplicialCellComplex, "validate", counting)
    monkeypatch.setattr(subdivision, "barycentric_subdivide", kept)
    z = simplex_sphere(2)
    y = subdivide_pseudomanifold(z, cycle_graph(3))
    assert y.mode == "substitution"
    # the output is certified on bar(Z) and its piece, so it is never
    # validated; the input, bar(Z), the piece and each reflected sphere of
    # the simplex subdivision are validated once each
    assert calls.count(y.complex) == 0
    assert len({id(c) for c in calls}) == len(calls)
    assert calls.count(z) == calls.count(bars[0]) == 1
    assert calls.count(y.piece.complex) == 1
    # cycle:3 at apex 0 leaves the edge {1, 2}, whose own recursion leaves
    # one vertex: two reflected spheres, a circle and a pair of points
    assert len(calls) == 5


def test_substituted_sphere_stays_oriented():
    y = subdivide_pseudomanifold(simplex_sphere(3), star_graph(4))
    assert y.mode == "substitution"
    assert y.orientation is not None
    assert homology_z2(y.complex) == (1, 0, 0, 1)


def test_subdivision_records_its_apex():
    # path mode has no apex; substitution records the one it used
    assert subdivide_pseudomanifold(torus7(), path_graph(3)).apex is None
    y = subdivide_pseudomanifold(simplex_sphere(2), cycle_graph(3))
    assert (y.mode, y.apex) == ("substitution", 0)
    y = subdivide_pseudomanifold(simplex_sphere(1), path_graph(2), apex=1)
    assert (y.mode, y.apex) == ("substitution", 1)


# the substitution catalogue of the covering benchmark, and a forced apex
_SUBSTITUTIONS = [
    ("sphere:2", "complete:3", None),
    ("sphere:3", "star:4", None),
    ("sphere:3", "cycle:4", None),
    ("sphere:3", "path:4", 1),
    ("sphere:4", "star:5", None),
]


@pytest.mark.parametrize("zspec,gspec,apex", _SUBSTITUTIONS)
def test_substitution_matches_keyed_oracle(monkeypatch, covering_oracle,
                                           zspec, gspec, apex):
    z, g = pseudomanifold_from_spec(zspec), graph_from_spec(gspec)
    y = subdivide_pseudomanifold(z, g, apex=apex)
    monkeypatch.setattr(subdivision, "_substitute", covering_oracle.substitute)
    want = subdivide_pseudomanifold(z, g, apex=apex)
    assert y.mode == want.mode == "substitution"
    assert y.complex.vertex_columns == want.complex.vertex_columns
    assert y.complex.face_columns == want.complex.face_columns
    assert y.complex.vertex_labels == want.complex.vertex_labels
    assert y.colours == want.colours
    assert y.orientation == want.orientation


def _recoloured(y, vertex, colour):
    # the piece is kept: the star check must notice the colours changed
    colours = list(y.colours)
    colours[vertex] = colour
    return ColouredSubdivision(y.graph, y.complex, tuple(colours), apex=y.apex,
                               orientation=y.orientation, mode=y.mode,
                               piece=y.piece)


def test_star_check_failures_match_per_top_oracle(monkeypatch, covering_oracle):
    # a star:4 subdivision checked against the path, and one vertex of it
    # recoloured, reach both failure branches; the library lists the
    # messages in first-seen order over facets, the oracle over top cells,
    # so the oracle's list is put in facet order before the two are compared.
    # The digests pin the library's list, order included.
    y = subdivide_pseudomanifold(simplex_sphere(3), star_graph(4))
    assert y.colours[0] == 1
    cases = [(y, path_graph(4), 510, 150,
              "2e13ad04c593d33eca0085aa0905f1c93af84c120a7cff1d3c5da75ef1ad57ea"),
             (_recoloured(y, 0, 0), star_graph(4), 722, 38,
              "4f2280ec523ea54794997f46ed244fbff47ebfa05d98d7b9cf5155d0d328149a")]
    c = y.complex
    first_seen = {cid: i for i, cid in enumerate(
        dict.fromkeys(chain.from_iterable(zip(*c.face_columns[c.n - 1]))))}

    def cell_of(message):
        return first_seen[int(re.match(r"cell \(\d+,(\d+)\)", message)[1])]

    for yy, g, checked, failed, digest in cases:
        got = condition_star_check(yy, g)
        with monkeypatch.context() as m:
            m.setattr(subdivision, "_codim2_cofacets",
                      covering_oracle.codim2_cofacets)
            want = condition_star_check(yy, g)
        assert got.ok is want.ok is False
        assert got.cells_checked == want.cells_checked == checked
        assert len(got.failures) == len(want.failures) == failed
        assert got.failures == sorted(want.failures, key=cell_of)
        text = "\n".join(got.failures).encode()
        assert hashlib.sha256(text).hexdigest() == digest


def _two_spheres():
    tops = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return SimplicialCellComplex.from_top_simplices(
        tops + [tuple(v + 4 for v in t) for t in tops])


# every substitution the tests build: the catalogue, the torus, and two
# disjoint spheres, whose second component is signed on its own
_CERTIFIED = [(lambda zspec=zspec: pseudomanifold_from_spec(zspec), gspec, apex)
              for zspec, gspec, apex in _SUBSTITUTIONS] + [
    (torus7, "complete:3", None),
    (_two_spheres, "complete:3", None)]


def _copy(c):
    return SimplicialCellComplex.from_columns(
        c.n, c.n_cells(0), [[list(col) for col in level] for level in c.vertex_columns],
        [[list(col) for col in level] for level in c.face_columns],
        vertex_labels=c.vertex_labels)


@pytest.mark.parametrize("build,gspec,apex", _CERTIFIED,
                         ids=[f"{z}-{g}-{a}" for z, g, a in _SUBSTITUTIONS]
                         + ["torus7-complete:3-None", "two spheres-complete:3-None"])
def test_substitution_certificate_matches_generic_checks(monkeypatch, build,
                                                         gspec, apex):
    z, g = build(), graph_from_spec(gspec)
    walked = []
    rule = subdivision._codim2_rule
    monkeypatch.setattr(subdivision, "_codim2_rule",
                        lambda c, *args: walked.append(c) or rule(c, *args))
    sorted_ = []
    distinct = SimplicialCellComplex._distinct_vertex_sets
    monkeypatch.setattr(SimplicialCellComplex, "_distinct_vertex_sets",
                        lambda c: sorted_.append(c) or distinct(c))
    bar_counts = barycentric_subdivide(z).cell_counts()
    # built on the first and second sight, served on the third
    for built in (True, True, False):
        sorted_.clear()
        y = subdivide_pseudomanifold(z, g, apex=apex)
        assert y.mode == "substitution"
        # each build sorts the vertex sets of bar(Z) and the piece, and
        # neither the build nor the JSON report sorts y's
        complex_to_json_dict(y.complex, orientation=y.orientation)
        assert all(c is not y.complex for c in sorted_)
        assert [c.cell_counts() for c in sorted_] == (
            [bar_counts, y.piece.complex.cell_counts()] if built else [])
        # the certificate recorded the verdicts that the generic checks and
        # orient reach on a fresh copy of the columns, signs included
        assert passed_pseudo_manifold_check(y.complex)
        fresh = _copy(y.complex)
        assert not passed_pseudo_manifold_check(fresh)
        assert pseudo_manifold_check(fresh).is_pseudo
        assert orient(fresh).orientation == y.orientation
        assert (fresh.is_vertex_determined()
                is y.complex.is_vertex_determined() is True)
        assert sorted_[-1] is fresh
        # the star check answers on the piece, as the walk on y does
        walked.clear()
        got = condition_star_check(y, g)
        assert walked == [y.piece.complex]
        depths, failures = rule(y.complex, y.colours, None, g)
        assert failures == []
        assert (got.ok, got.cells_checked, got.failures) == (
            True, sum(depths.values()), [])


def _broken_piece(monkeypatch, breaking):
    real = subdivision.lemma_subdivision

    def broken(g, a):
        k = real(g, a)
        c = k.complex
        vertex_columns = [[list(col) for col in level] for level in c.vertex_columns]
        face_columns = [[list(col) for col in level] for level in c.face_columns]
        breaking(c.n, vertex_columns, face_columns)
        return ColouredSubdivision(
            g, SimplicialCellComplex.from_columns(c.n, c.n_cells(0), vertex_columns,
                                                  face_columns),
            k.colours, apex=a, coords=k.coords, mode=k.mode)

    monkeypatch.setattr(subdivision, "lemma_subdivision", broken)


def _swap_two_vertices(n, vertex_columns, face_columns):
    top = vertex_columns[n]
    top[0][0], top[1][0] = top[1][0], top[0][0]


def _drop_a_top_cell(n, vertex_columns, face_columns):
    for col in vertex_columns[n] + face_columns[n]:
        del col[0]


def _must_not_substitute(bar, k):
    raise AssertionError("substituted a piece that fails its certificate")


# both break the piece's validity or purity; the hit and sign rules are
# exercised one by one on segments below
@pytest.mark.parametrize("breaking", [_swap_two_vertices, _drop_a_top_cell],
                         ids=["swapped vertices", "dropped top cell"])
def test_broken_piece_is_refused_before_substitution(monkeypatch, breaking):
    _broken_piece(monkeypatch, breaking)
    monkeypatch.setattr(subdivision, "_substitute", _must_not_substitute)
    with pytest.raises(ValidationError, match="simplex piece cannot be substituted"):
        subdivide_pseudomanifold(simplex_sphere(3), star_graph(4))


def test_repeated_vertex_set_is_refused_before_substitution(monkeypatch,
                                                           gluing):
    # two triangles glued along their whole boundary: an oriented
    # pseudo-manifold whose top cells share one vertex set, put in place of
    # bar(Z); no piece that passes its certificate repeats a vertex set
    def two_triangles(z):
        return gluing.complex_from_gluings(2, 2, [((0, i), (1, i))
                                                  for i in range(3)])[0]

    monkeypatch.setattr(subdivision, "barycentric_subdivide", two_triangles)
    monkeypatch.setattr(subdivision, "_substitute", _must_not_substitute)
    with pytest.raises(ValidationError, match="share a vertex set"):
        subdivide_pseudomanifold(simplex_sphere(2), cycle_graph(3))


def _segment(points, tops):
    # a piece for path:2 from integer points summing to 2 and top edges
    c = SimplicialCellComplex.from_top_simplices(tops)
    return ColouredSubdivision(path_graph(2), c, (0, 1, 0)[:len(points)], apex=0,
                               coords=tuple(points), mode="simplex")


# pieces on the segment of points summing to 2 that each fail one condition
@pytest.mark.parametrize("points,tops,why", [
    ([(2, 0), (1, 1), (0, 2)], [(0, 1), (1, 2), (0, 1)],
     "volumes do not add up"),
    ([(2, 0), (1, 1), (2, 0)], [(0, 1), (1, 2)], "two top cells on one side"),
    ([(3, -1), (1, 1)], [(0, 1)], "one top cell off the boundary"),
    ([(2, 0), (1, 1), (1, 1)], [(0, 1), (1, 2)], "top cell 1 is degenerate"),
], ids=["doubled top", "folded", "open end", "degenerate"])
def test_piece_certificate_refuses(points, tops, why):
    assert subdivision._piece_signs(
        _segment([(2, 0), (1, 1), (0, 2)], [(0, 1), (1, 2)])) == [1, 1]
    with pytest.raises(ValidationError, match=why):
        subdivision._piece_signs(_segment(points, tops))


def test_recoloured_piece_fails_as_the_walk_does(monkeypatch):
    # piece vertex 4 of star:4 at apex 0 recoloured 0 breaks the rule on the
    # piece but not its certificate, which reads no colours
    real = subdivision.lemma_subdivision
    g = star_graph(4)
    k = real(g, 0)
    colours = list(k.colours)
    colours[4] = 0
    _, missed = subdivision._codim2_rule(k.complex, colours, k.coords, g)
    assert missed
    monkeypatch.setattr(subdivision, "lemma_subdivision",
                        lambda g, a: ColouredSubdivision(
                            g, k.complex, tuple(colours), apex=a,
                            coords=k.coords, mode=k.mode))
    y = subdivide_pseudomanifold(simplex_sphere(3), g)
    got = condition_star_check(y, g)
    depths, failures = subdivision._codim2_rule(y.complex, y.colours, None, g)
    assert failures and not got.ok
    assert (got.cells_checked, got.failures) == (sum(depths.values()), failures)
