"""Covering certificates over subdivided glued manifolds."""

import json
from dataclasses import replace
from itertools import product

import pytest

from nestotope.errors import ValidationError
from nestotope.cellcomplex import (
    SimplicialCellComplex,
    klein_bottle,
    pseudomanifold_from_spec,
    simplex_sphere,
    torus7,
)
from nestotope.graphs import (
    graph_building_set,
    graph_from_spec,
    mask_of,
    members,
    path_graph,
)
from nestotope.nestohedron import face_poset
from nestotope import cli, realization
from nestotope.realization import (
    build_covering,
    build_sigma_system,
    certificate_to_json_dict,
    enumerate_involution_sets,
    involution_closure,
    realize,
)
from nestotope.subdivision import (
    ColouredSubdivision,
    lemma_subdivision,
    subdivide_pseudomanifold,
)


def _system(z, g):
    y = subdivide_pseudomanifold(z, g)
    sys = build_sigma_system(y)
    b = graph_building_set(g)
    return sys, b


def _oracle_tables(covering_oracle, sys, b, budget=None):
    """The library's certificate, and the oracle's families of the library's
    closures with their conjugation tables; the oracle's certificate on the
    intact tables must equal the library's."""
    sets = enumerate_involution_sets(sys, b)
    cert = build_covering(b, sets, sys, budget)
    tables = covering_oracle.tables(b, sets)
    assert cert == covering_oracle.build_covering(b, tables, sys, budget)
    return cert, tables


def test_compose_applies_right_factor_first(covering_oracle):
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert covering_oracle.compose(p, q) == (1, 0, 2)


def test_sigma_system_on_subdivided_circle(covering_oracle):
    sys, _ = _system(simplex_sphere(1), path_graph(2))
    assert sys.size == 6
    assert sys.n_colours == 2
    assert sum(sys.plus) == 3
    for xi in sys.xi:
        assert covering_oracle.compose(xi, xi) == tuple(range(6))
        assert all(sys.plus[xi[t]] != sys.plus[t] for t in range(6))


def test_sigma_system_needs_an_oriented_closed_complex():
    # a simplex subdivision has a boundary and carries no orientation
    with pytest.raises(ValidationError, match="oriented closed"):
        build_sigma_system(lemma_subdivision(path_graph(3), 0))
    # an orientation does not make a disc closed
    disc = SimplicialCellComplex.from_top_simplices([(0, 1, 2)])
    y = ColouredSubdivision(path_graph(3), disc, (0, 1, 2), orientation=(1,))
    with pytest.raises(ValidationError, match="oriented closed"):
        build_sigma_system(y)


def test_involution_closure_hexagon(covering_oracle):
    # crossing involutions around a hexagon generate the three reflections
    sys, _ = _system(simplex_sphere(1), path_graph(2))
    perms = involution_closure(sys, {0, 1})
    assert len(perms) == 3
    assert perms[0] == sys.xi[0]
    want, words = covering_oracle.closure(sys, {0, 1})
    assert perms == want
    assert all(len(w) % 2 == 1 for w in words)


def test_involution_sets_on_torus():
    sys, b = _system(torus7(), path_graph(3))
    sets = enumerate_involution_sets(sys, b)
    sizes = {t: len(sets[t]) for t in b.proper_tubes}
    assert sizes[mask_of([0])] == 1
    assert sizes[mask_of([1])] == 1
    assert sizes[mask_of([2])] == 1
    assert sizes[mask_of([0, 1])] == 3
    assert sizes[mask_of([1, 2])] == 3


def test_nested_tubes_conjugate_into_larger_sets(covering_oracle):
    # every entry of the oracle's tables is the index of the conjugate it
    # stands for
    compose = covering_oracle.compose
    for z, g in ((torus7(), path_graph(3)), (simplex_sphere(3), path_graph(4))):
        sys, b = _system(z, g)
        tables = covering_oracle.tables(b, enumerate_involution_sets(sys, b))
        for s in b.proper_tubes:
            assert set(tables[s].conj) == {t for t in b.proper_tubes
                                           if t != s and t & s == s}
            for t, rows in tables[s].conj.items():
                big = tables[t].perms
                assert len(rows) == len(tables[s])
                for small, row in zip(tables[s].perms, rows):
                    assert len(row) == len(big)
                    for mu, idx in zip(big, row):
                        assert big[idx] == compose(small, compose(mu, small))


def _phi_by_composition(b, tables, s, omega, compose):
    """Reference face involution that conjugates the permutations."""
    sigma, mu, g = omega
    j = b.proper_index[s]
    mu_s = tables[s].perms[mu[j]]
    new_mu = list(mu)
    for k, t in enumerate(b.proper_tubes):
        if t != s and t & s == s:
            perms = tables[t].perms
            new_mu[k] = perms.index(compose(mu_s, compose(perms[mu[k]], mu_s)))
    return mu_s[sigma], tuple(new_mu), g ^ (1 << j)


def _labels(b, sets, sigmas, gs):
    mus = product(*(range(len(sets[t])) for t in b.proper_tubes))
    return product(sigmas, mus, gs)


def test_phi_action_matches_permutation_conjugation(covering_oracle):
    # every label in dimension 2; in dimension 3, where a tube with a bigger
    # tube can have several involutions, every mu over one cell
    sys, b = _system(simplex_sphere(2), path_graph(3))
    tables = covering_oracle.tables(b, enumerate_involution_sets(sys, b))
    cases = [(b, tables, _labels(b, tables, range(sys.size),
                                 range(1 << len(b.proper_tubes))))]
    sys, b = _system(simplex_sphere(3), path_graph(4))
    tables = covering_oracle.tables(b, enumerate_involution_sets(sys, b))
    assert max(len(tables[s]) for s in b.proper_tubes if tables[s].conj) > 1
    cases.append((b, tables, _labels(b, tables, (0,), (0,))))
    for b, tables, labels in cases:
        for omega in labels:
            for s in b.proper_tubes:
                assert (covering_oracle.phi_action(b, tables, s, omega)
                        == _phi_by_composition(b, tables, s, omega,
                                               covering_oracle.compose))


def test_phi_action_involutes_and_flips_bits(covering_oracle):
    sys, b = _system(simplex_sphere(1), path_graph(2))
    tables = covering_oracle.tables(b, enumerate_involution_sets(sys, b))
    phi, epsilon = covering_oracle.phi_action, covering_oracle.epsilon
    start = (0, (0, 0), 0)
    s = b.proper_tubes[0]
    once = phi(b, tables, s, start)
    assert once[2] == 1
    assert phi(b, tables, s, once) == start
    assert epsilon(sys, once) == epsilon(sys, start)


def test_full_certificate_on_circle():
    sys, b = _system(simplex_sphere(1), path_graph(2))
    sets = enumerate_involution_sets(sys, b)
    cert = build_covering(b, sets, sys)
    assert cert.r == 6 and cert.s == 2 and cert.m == 2
    assert cert.mode == "full"
    assert cert.fiber_histogram == {6: 8}
    assert all(cert.checks.values())


def test_full_certificate_on_torus():
    cert = realize(torus7(), path_graph(3))
    assert cert.mode == "full"
    assert cert.r == 756 and cert.s == 144
    assert all(cert.checks.values())
    prod = 1
    for v in cert.i_sizes.values():
        prod *= v
    assert cert.s == 2 ** (cert.m - 1) * prod


def test_sampled_certificate_on_three_sphere():
    cert = realize(simplex_sphere(3), path_graph(4))
    assert cert.mode == "sampled"
    assert cert.r == 116640 and cert.s == 248832
    assert cert.m == 9
    assert all(cert.checks.values())
    assert cert.i_sizes == {"0": 1, "1": 1, "2": 1, "3": 1,
                            "0,1": 3, "1,2": 3, "2,3": 3,
                            "0,1,2": 6, "1,2,3": 6}


@pytest.mark.parametrize("k", [1, 2])
def test_fibre_certificate_matches_every_label(k, covering_oracle):
    # the certificate reads the generators and writes the histogram and
    # degree as closed forms; here every check runs on every (sigma, mu, g)
    sys, b = _system(simplex_sphere(k), path_graph(k + 1))
    sets = enumerate_involution_sets(sys, b)
    cert = build_covering(b, sets, sys)
    assert cert.mode == "full"
    tables = covering_oracle.tables(b, sets)
    epsilon = covering_oracle.epsilon
    p = face_poset(b)
    tubes = b.proper_tubes
    m = len(tubes)
    labels = list(_labels(b, sets, range(sys.size), range(1 << m)))
    pairs = [(tubes[i], tubes[j])
             for i, j in (p.faces_by_size[2] if p.dim >= 2 else ())]
    faces = [face for level in p.faces_by_size for face in level]

    def phi(s, w):
        return covering_oracle.phi_action(b, tables, s, w)

    assert cert.checks["phi_involutions"] == all(
        phi(s, phi(s, w)) == w for w in labels for s in tubes)
    assert cert.checks["epsilon_class_constant"] == all(
        epsilon(sys, phi(s, w)) == epsilon(sys, w)
        for w in labels for s in tubes)
    assert cert.checks["phi_commutation"] == all(
        phi(s, phi(t, w)) == phi(t, phi(s, w))
        for w in labels for s, t in pairs)
    histogram = {}
    even = True
    for face in faces:
        classes = {}
        for _, _, g in labels:
            key = g
            for i in face:
                key &= ~(1 << i)
            classes[key] = classes.get(key, 0) + 1
        for count in classes.values():
            fibre = count >> len(face)
            even = even and count == fibre << len(face)
            histogram[fibre] = histogram.get(fibre, 0) + 1
    assert cert.fiber_histogram == histogram
    assert cert.checks["covering_fibers"] == (even and all(
        covering_oracle.orbit_check(b, tables, sys, w, face)
        for w in labels for face in faces))
    positive = {probe: 0 for probe in range(sys.size)}
    for w in labels:
        positive[w[0]] += epsilon(sys, w) == 1
    assert set(positive.values()) == {cert.s}
    assert cert.checks["degree_independent"]
    assert all(cert.checks.values())


# The library reads no family member and no conjugation table, only the
# generators.  A broken row or member is a closure bug: the tampers below
# break the oracle's tables, and the oracle's certificate must show it.

def _break_row(sys, tables):
    """mu_0 conjugates I_{0,1} by a row that starts (0, 2, 1); swapping its
    first two entries makes a 3-cycle, so phi of the tube {0} is no
    involution.  Returns the row before the swap."""
    s, t = mask_of([0]), mask_of([0, 1])
    (row,) = tables[s].conj[t]
    assert row[:3] == (0, 2, 1)
    tables[s].conj[t] = ((row[1], row[0]) + row[2:],)
    return row


def _unconjugate_row(sys, tables):
    """mu_0 acting on I_{0,1} by the identity row leaves phi of the tube {0}
    an involution, but it no longer commutes with phi of the tube {0, 1}:
    mu_0 conjugates the second and third members of I_{0,1} into each
    other."""
    s, t = mask_of([0]), mask_of([0, 1])
    (row,) = tables[s].conj[t]
    assert row[:3] == (0, 2, 1)
    tables[s].conj[t] = (tuple(range(len(row))),)


def _swap_cells(perm, sys):
    """``perm`` with the images of the last cell and of the largest cell
    that it does not pair with the last one swapped: a permutation, and no
    involution when ``perm`` is one."""
    a = sys.size - 1
    c = max(x for x in range(sys.size) if x not in (a, perm[a]))
    broken = list(perm)
    broken[a], broken[c] = perm[c], perm[a]
    return tuple(broken)


def _break_cell(sys, tables):
    """Swapping two unpaired cells in the tube {0}'s only involution leaves
    it a permutation but no involution, so orbits through those cells fail
    while other labels of the same mu pass."""
    s = mask_of([0])
    (perm,) = tables[s].perms
    tables[s].perms = (_swap_cells(perm, sys),)


@pytest.mark.parametrize("k, budget, mode", [(2, None, "full"),
                                             (2, 1000, "sampled"),
                                             (3, None, "sampled")])
def test_broken_conjugation_row_is_caught(k, budget, mode, covering_oracle):
    # mode reads only r * 2^m against the budget; the checks are exact in
    # both, and the oracle walks the tube and pair pools over every label
    sys, b = _system(simplex_sphere(k), path_graph(k + 1))
    _, tables = _oracle_tables(covering_oracle, sys, b, budget)
    assert _break_row(sys, tables) == (0, 2, 1)
    cert = covering_oracle.build_covering(b, tables, sys, budget)
    assert cert.mode == mode
    assert not cert.checks["phi_involutions"]
    assert not cert.checks["phi_commutation"]
    assert not cert.checks["covering_fibers"]


@pytest.mark.parametrize("k, gspec, budget, mode", [
    (1, "path:2", None, "full"),
    (2, "path:3", None, "full"),
    (2, "path:3", 1000, "sampled"),
    (2, "complete:3", None, "full"),
    (2, "complete:3", 1000, "sampled"),
], ids=["1-None-full", "2-None-full", "2-1000-sampled",
        "complete:3-None-full", "complete:3-1000-sampled"])
def test_broken_cell_step_matches_tuple_label_oracle(k, gspec, budget, mode,
                                                     covering_oracle):
    # the oracle walks every pool, faces included, over every fibre label,
    # at either budget
    sys, b = _system(simplex_sphere(k), graph_from_spec(gspec))
    _, tables = _oracle_tables(covering_oracle, sys, b, budget)
    _break_cell(sys, tables)
    cert = covering_oracle.build_covering(b, tables, sys, budget)
    assert cert.mode == mode
    assert not cert.checks["phi_involutions"]
    assert not cert.checks["covering_fibers"]
    if gspec == "complete:3":
        assert (cert.r, cert.m) == (2304, 6)
        assert not cert.checks["epsilon_class_constant"]
        assert not cert.checks["phi_commutation"]


def test_broken_cell_among_a_billion_labels_is_caught(covering_oracle):
    # sphere:4 with path:5 has r = 1,259,712,000 fibre labels.  Swapping
    # the images of cells 12 and 26 under the last permutation of the tube
    # {1, 2, 3, 4} breaks phi only where mu picks that permutation and
    # sigma is one of four cells, one label in 1,800: a check on samples
    # can miss it (10,000 seeded draws, with a face walk from each, did),
    # and the oracle's table walk must not.  phi_action twice at one label
    # shows the break.
    sys, b = _system(simplex_sphere(4), path_graph(5))
    _, tables = _oracle_tables(covering_oracle, sys, b)
    s = mask_of([1, 2, 3, 4])
    *kept, perm = tables[s].perms
    assert len(kept) == 9 and (perm[12], perm[26]) == (13, 27)
    broken = list(perm)
    broken[12], broken[26] = perm[26], perm[12]
    tables[s].perms = (*kept, tuple(broken))
    cert = covering_oracle.build_covering(b, tables, sys)
    assert (cert.mode, cert.r) == ("sampled", 1_259_712_000)
    assert not cert.checks["phi_involutions"]
    assert not cert.checks["phi_commutation"]
    assert not cert.checks["covering_fibers"]
    assert cert.checks["epsilon_class_constant"]
    phi = covering_oracle.phi_action
    w = (12, tuple(9 if t == s else 0 for t in b.proper_tubes), 0)
    assert phi(b, tables, s, phi(b, tables, s, w)) != w


# the covering benchmark's realize catalogue, the torus and complete:3 at
# both budgets, and the 3-sphere
_REALIZE = [
    ("sphere:1", "path:2", None),
    ("sphere:2", "path:3", 1000),
    ("sphere:2", "path:3", None),
    ("torus7", "path:3", 1000),
    ("torus7", "path:3", None),
    ("sphere:2", "complete:3", 1000),
    ("sphere:2", "complete:3", None),
    ("sphere:3", "path:4", None),
]


def _bipyramid(n):
    """The suspension of an n-gon: a 2-sphere of 2n triangles."""
    return SimplicialCellComplex.from_top_simplices(
        [tuple(sorted((i, (i + 1) % n, pole)))
         for i in range(n) for pole in (n, n + 1)])


@pytest.mark.parametrize("zspec,gspec", sorted(
    {(z, g) for z, g, _ in _REALIZE} | {("bipyramid:6", "path:3")}))
def test_closures_match_the_word_oracle(covering_oracle, zspec, gspec):
    # the library's closures keep no words: each family must be the
    # oracle's, whose every word, composed from the xi's, is its member
    z = (_bipyramid(6) if zspec == "bipyramid:6"
         else pseudomanifold_from_spec(zspec))
    sys, b = _system(z, graph_from_spec(gspec))
    sets = enumerate_involution_sets(sys, b)
    for tube in b.proper_tubes:
        perms, words = covering_oracle.closure(sys, members(tube))
        assert set(sets[tube]) == set(perms)
        for perm, word in zip(perms, words):
            built = tuple(range(sys.size))
            for col in word:
                built = covering_oracle.compose(sys.xi[col], built)
            assert built == perm


@pytest.mark.parametrize("zspec,gspec,budget", _REALIZE)
def test_covering_matches_tuple_label_oracle(covering_oracle, zspec, gspec,
                                             budget):
    sys, b = _system(pseudomanifold_from_spec(zspec), graph_from_spec(gspec))
    sets = enumerate_involution_sets(sys, b)
    got = certificate_to_json_dict(build_covering(b, sets, sys, budget))
    want = certificate_to_json_dict(covering_oracle.build_covering(
        b, covering_oracle.tables(b, sets), sys, budget))
    assert all(got["checks"].values())
    assert json.dumps(got) == json.dumps(want)


_BREAKS = {"intact": lambda sys, tables: None, "broken row": _break_row,
           "identity row": _unconjugate_row, "broken cell": _break_cell}


@pytest.mark.parametrize("zspec,gspec,budget,broken", [
    (*case, broken) for case in _REALIZE for broken in _BREAKS
    # path:2 has no tube {0, 1} to conjugate
    if case[1] != "path:2" or not broken.endswith("row")])
def test_full_face_pool_follows_from_the_relators(covering_oracle, zspec,
                                                  gspec, budget, broken):
    # covering_fibers is read off the involution and commutation checks;
    # the oracle walks every face from every fibre label on each of these
    # inputs but the 3-sphere, and must agree.  Its walk on the tables
    # must give the pools' checks of its walk over every label.
    sys, b = _system(pseudomanifold_from_spec(zspec), graph_from_spec(gspec))
    _, tables = _oracle_tables(covering_oracle, sys, b, budget)
    _BREAKS[broken](sys, tables)
    cert = covering_oracle.build_covering(b, tables, sys, budget)
    checks = cert.checks
    assert checks["covering_fibers"] == (checks["phi_involutions"]
                                         and checks["phi_commutation"])
    assert checks["covering_fibers"] == (broken == "intact")
    if broken == "identity row":
        assert checks["phi_involutions"]
        assert not checks["phi_commutation"]
    assert covering_oracle.table_walk(b, tables, sys) == (
        checks["phi_involutions"], checks["epsilon_class_constant"],
        checks["phi_commutation"])


@pytest.mark.parametrize("broken", ["intact", "broken cell"])
def test_table_checks_settle_the_face_pool_on_a_bipyramid(covering_oracle,
                                                           broken):
    # the hexagonal bipyramid along path:3 at budget 1000 has r = 1296 and
    # 11 faces, in mode "sampled": the library reads covering_fibers off
    # the generator checks, the oracle walks all 11 faces from every label,
    # and a broken cell must fail the oracle's table checks and its walk
    sys, b = _system(_bipyramid(6), path_graph(3))
    _, tables = _oracle_tables(covering_oracle, sys, b, 1000)
    _BREAKS[broken](sys, tables)
    cert = covering_oracle.build_covering(b, tables, sys, 1000)
    p = face_poset(b)
    pools = (cert.m, len(p.faces_by_size[2]),
             sum(len(level) for level in p.faces_by_size))
    assert (cert.mode, cert.r, pools) == ("sampled", 1296, (5, 5, 11))
    assert cert.checks["phi_involutions"] == (broken == "intact")
    assert cert.checks["covering_fibers"] == (broken == "intact")
    assert covering_oracle.table_walk(b, tables, sys)[0] == (broken == "intact")


# Tampers on the generators, which the library reads, at the plus cells 0
# and 7: xi_0 with their images swapped still swaps the signs but is no
# involution; xi_0 with their partners swapped is a sign-swapping
# involution that no longer commutes with xi_2, a colour the path does not
# join to 0; and xi_0 with 0 and its partner fixed is an involution that
# keeps their signs.
_GENERATOR_INPUTS = [("sphere:2", "path:3"), ("torus7", "path:3"),
                     ("sphere:3", "path:4")]


def _broken_xi0(z, g, tamper):
    """The sigma system of z and g with xi_0 replaced by ``tamper`` of it
    at the cells 0 and 7, and the building set."""
    sys, b = _system(pseudomanifold_from_spec(z), graph_from_spec(g))
    assert sys.plus[0] and sys.plus[7]
    return replace(sys, xi=(tamper(sys.xi[0], 0, 7),) + sys.xi[1:]), b


def _swap_images(xi, a, c):
    """A 4-cycle through a, c and their partners, whose signs alternate."""
    out = list(xi)
    out[a], out[c] = xi[c], xi[a]
    return tuple(out)


def _swap_partners(xi, a, c):
    """a paired with c's partner, and c with a's."""
    out = list(xi)
    out[a], out[c] = xi[c], xi[a]
    out[xi[a]], out[xi[c]] = c, a
    return tuple(out)


def _fix_pair(xi, a, c):
    """a and its partner fixed."""
    out = list(xi)
    out[a], out[xi[a]] = a, xi[a]
    return tuple(out)


@pytest.mark.parametrize("zspec,gspec", _GENERATOR_INPUTS)
def test_a_generator_that_keeps_a_sign_is_caught(covering_oracle, zspec,
                                                 gspec):
    broken, b = _broken_xi0(zspec, gspec, _fix_pair)
    sets = enumerate_involution_sets(broken, b)
    cert = build_covering(b, sets, broken)
    assert cert == covering_oracle.build_covering(
        b, covering_oracle.tables(b, sets), broken)
    checks = cert.checks
    assert checks["phi_involutions"]
    assert not checks["xi_involutions"]
    assert not checks["epsilon_class_constant"]


@pytest.mark.parametrize("zspec,gspec", _GENERATOR_INPUTS)
def test_a_generator_that_is_no_involution_is_caught(covering_oracle,
                                                     monkeypatch, tmp_path,
                                                     zspec, gspec):
    broken, b = _broken_xi0(zspec, gspec, _swap_images)
    sets = enumerate_involution_sets(broken, b)
    cert = build_covering(b, sets, broken)
    assert cert == covering_oracle.build_covering(
        b, covering_oracle.tables(b, sets), broken)
    checks = cert.checks
    assert not checks["xi_involutions"]
    assert not checks["phi_involutions"]
    assert not checks["covering_fibers"]
    assert checks["epsilon_class_constant"]
    # the CLI writes the certificate and exits 1
    monkeypatch.setattr(realization, "build_sigma_system",
                        lambda y: replace(build_sigma_system(y), xi=broken.xi))
    out = tmp_path / "r.json"
    assert cli.run(["realize", "--pseudomanifold", zspec, "--graph", gspec,
                    "--emit", str(out)]) == 1
    assert json.loads(out.read_text()) == certificate_to_json_dict(cert)


@pytest.mark.parametrize("zspec,gspec", _GENERATOR_INPUTS)
def test_a_generator_that_breaks_a_commutation_is_caught(covering_oracle,
                                                         zspec, gspec):
    broken, b = _broken_xi0(zspec, gspec, _swap_partners)
    sets = enumerate_involution_sets(broken, b)
    cert = build_covering(b, sets, broken)
    assert cert == covering_oracle.build_covering(
        b, covering_oracle.tables(b, sets), broken)
    checks = cert.checks
    assert checks["xi_involutions"] and checks["phi_involutions"]
    assert checks["epsilon_class_constant"]
    assert not checks["xi_commutation"]
    assert not checks["phi_commutation"]
    assert not checks["covering_fibers"]


@pytest.mark.parametrize("zspec", ["sphere:2", "torus7"])
def test_consecutive_colours_off_an_edge_are_checked_to_commute(
        covering_oracle, zspec):
    # On star:3, colours 1 and 2 are consecutive but no edge; on a path,
    # consecutive colours are always an edge.  xi_1 with the partners of
    # two plus cells swapped is a sign-swapping involution that no longer
    # commutes with xi_2, and it commutes with xi_0 unchecked (an edge).
    sys, b = _system(pseudomanifold_from_spec(zspec), graph_from_spec("star:3"))
    graph = sys.y.graph
    assert graph.has_edge(0, 1) and graph.has_edge(0, 2)
    assert not graph.has_edge(1, 2)
    a, c = [cell for cell in range(sys.size) if sys.plus[cell]][:2]
    xi = sys.xi
    broken = replace(sys, xi=(xi[0], _swap_partners(xi[1], a, c), xi[2]))
    sets = enumerate_involution_sets(broken, b)
    cert = build_covering(b, sets, broken)
    assert cert == covering_oracle.build_covering(
        b, covering_oracle.tables(b, sets), broken)
    checks = cert.checks
    assert checks["xi_involutions"] and checks["phi_involutions"]
    assert checks["epsilon_class_constant"]
    assert not checks["xi_commutation"]
    assert not checks["phi_commutation"]
    assert not checks["covering_fibers"]


def test_certificates_are_deterministic():
    a = certificate_to_json_dict(realize(simplex_sphere(3), path_graph(4)))
    b = certificate_to_json_dict(realize(simplex_sphere(3), path_graph(4)))
    assert a == b
    assert a["schema"] == "nestotope/1"
    assert set(a["checks"]) == {"xi_involutions", "xi_commutation",
                                "phi_involutions", "phi_commutation",
                                "covering_fibers", "epsilon_class_constant",
                                "degree_independent"}


def test_realize_rejects_bad_input():
    with pytest.raises(ValidationError, match="non-orientable input"):
        realize(klein_bottle(), path_graph(3))
    with pytest.raises(ValidationError, match="dimension mismatch"):
        realize(simplex_sphere(2), path_graph(4))
