"""Covering certificates over subdivided glued manifolds."""

from itertools import product

import pytest

from nestotope.errors import ValidationError
from nestotope.cellcomplex import klein_bottle, simplex_sphere, torus7
from nestotope.graphs import graph_building_set, mask_of, path_graph
from nestotope.realization import (
    build_covering,
    build_sigma_system,
    certificate_to_json_dict,
    compose,
    enumerate_involution_sets,
    epsilon,
    involution_closure,
    phi_action,
    realize,
)
from nestotope.subdivision import subdivide_pseudomanifold


def _system(z, g):
    y = subdivide_pseudomanifold(z, g)
    sys = build_sigma_system(y)
    b = graph_building_set(g)
    return sys, b


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)


def test_sigma_system_on_subdivided_circle():
    sys, _ = _system(simplex_sphere(1), path_graph(2))
    assert sys.size == 6
    assert sys.n_colours == 2
    assert sum(sys.plus) == 3
    for xi in sys.xi:
        assert compose(xi, xi) == tuple(range(6))
        assert all(sys.plus[xi[t]] != sys.plus[t] for t in range(6))


def test_involution_closure_hexagon():
    # crossing involutions around a hexagon generate the three reflections
    sys, _ = _system(simplex_sphere(1), path_graph(2))
    perms, words = involution_closure(sys, {0, 1})
    assert len(perms) == 3
    assert all(len(w) % 2 == 1 for w in words)
    for perm, word in zip(perms, words):
        built = tuple(range(6))
        for col in word:
            built = compose(sys.xi[col], built)
        assert built == perm


def test_involution_sets_on_torus():
    sys, b = _system(torus7(), path_graph(3))
    sets = enumerate_involution_sets(sys, b)
    sizes = {t: len(sets[t]) for t in b.proper_tubes}
    assert sizes[mask_of([0])] == 1
    assert sizes[mask_of([1])] == 1
    assert sizes[mask_of([2])] == 1
    assert sizes[mask_of([0, 1])] == 3
    assert sizes[mask_of([1, 2])] == 3


def test_nested_tubes_conjugate_into_larger_sets():
    # every table entry is the index of the conjugate it stands for
    for z, g in ((torus7(), path_graph(3)), (simplex_sphere(3), path_graph(4))):
        sys, b = _system(z, g)
        sets = enumerate_involution_sets(sys, b)
        for s in b.proper_tubes:
            assert set(sets[s].conj) == {t for t in b.proper_tubes
                                         if t != s and t & s == s}
            for t, rows in sets[s].conj.items():
                big = sets[t].perms
                assert len(rows) == len(sets[s])
                for small, row in zip(sets[s].perms, rows):
                    assert len(row) == len(big)
                    for mu, idx in zip(big, row):
                        assert big[idx] == compose(small, compose(mu, small))


def _phi_by_composition(b, sets, s, omega):
    """Reference face involution that conjugates the permutations."""
    sigma, mu, g = omega
    j = b.proper_index[s]
    mu_s = sets[s].perms[mu[j]]
    new_mu = list(mu)
    for k, t in enumerate(b.proper_tubes):
        if t != s and t & s == s:
            perms = sets[t].perms
            new_mu[k] = perms.index(compose(mu_s, compose(perms[mu[k]], mu_s)))
    return mu_s[sigma], tuple(new_mu), g ^ (1 << j)


def _labels(b, sets, sigmas, gs):
    mus = product(*(range(len(sets[t])) for t in b.proper_tubes))
    return product(sigmas, mus, gs)


def test_phi_action_matches_permutation_conjugation():
    # every label in dimension 2; in dimension 3, where a tube with a bigger
    # tube can have several involutions, every mu over one cell
    sys, b = _system(simplex_sphere(2), path_graph(3))
    sets = enumerate_involution_sets(sys, b)
    cases = [(b, sets, _labels(b, sets, range(sys.size),
                               range(1 << len(b.proper_tubes))))]
    sys, b = _system(simplex_sphere(3), path_graph(4))
    sets = enumerate_involution_sets(sys, b)
    assert max(len(sets[s]) for s in b.proper_tubes if sets[s].conj) > 1
    cases.append((b, sets, _labels(b, sets, (0,), (0,))))
    for b, sets, labels in cases:
        for omega in labels:
            for s in b.proper_tubes:
                assert (phi_action(b, sets, s, omega)
                        == _phi_by_composition(b, sets, s, omega))


def test_phi_action_involutes_and_flips_bits():
    sys, b = _system(simplex_sphere(1), path_graph(2))
    sets = enumerate_involution_sets(sys, b)
    start = (0, (0, 0), 0)
    s = b.proper_tubes[0]
    once = phi_action(b, sets, s, start)
    assert once[2] == 1
    assert phi_action(b, sets, s, once) == start
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
