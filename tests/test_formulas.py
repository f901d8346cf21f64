"""Closed-form sequences and their brute-force oracles."""

from math import comb, factorial

import pytest

from nestotope.errors import ValidationError
from nestotope.formulas import (
    as_cover_total,
    betti_as_can,
    betti_hessenberg,
    betti_tomei,
    check_inequality_chain,
    eulerian,
    eulerian_brute,
    family_table,
    hessenberg_cover_total,
    zigzag,
    zigzag_brute,
)


def test_eulerian_against_enumeration():
    for m in range(1, 8):
        for k in range(m):
            assert eulerian(m, k) == eulerian_brute(m, k)


def test_eulerian_row_properties():
    for m in range(1, 9):
        row = [eulerian(m, k) for k in range(m)]
        assert sum(row) == factorial(m)
        assert row == row[::-1]
    assert eulerian(4, 1) == 11


def test_zigzag_values():
    assert [zigzag(m) for m in range(10)] == \
        [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]
    for m in range(10):
        assert zigzag(m) == zigzag_brute(m)


def test_betti_families():
    assert betti_tomei(2) == (1, 4, 1)
    assert betti_tomei(3) == (1, 11, 11, 1)
    # Tomei Betti numbers are the ascent counts one row up
    for n in range(1, 6):
        assert betti_tomei(n) == tuple(eulerian(n + 1, i) for i in range(n + 1))

    assert betti_hessenberg(2) == (1, 3, 0)
    assert betti_hessenberg(3) == (1, 6, 5, 0)
    # odd-dimensional closed manifolds have zero Euler characteristic
    for n in (3, 5, 7):
        row = betti_hessenberg(n)
        assert sum((-1) ** i * v for i, v in enumerate(row)) == 0

    assert betti_as_can(2) == (1, 2, 0)
    assert betti_as_can(3) == (1, 3, 2, 0)
    for n in (3, 5, 7):
        row = betti_as_can(n)
        assert sum((-1) ** i * v for i, v in enumerate(row)) == 0


def test_cover_totals():
    assert as_cover_total(2) == 6 == 2 * comb(3, 1)
    assert hessenberg_cover_total(2) == 8
    for n in range(2, 8):
        assert hessenberg_cover_total(n) == \
            2 * sum(comb(n + 1, 2 * i) * zigzag(2 * i)
                    for i in range(0, (n + 1) // 2 + 1))


def test_inequality_chain():
    # the middle term reaches (n+1)! at n=3, so the strict chain starts at 4
    assert not check_inequality_chain(2)
    assert not check_inequality_chain(3)
    for n in range(4, 11):
        assert check_inequality_chain(n)
    for n in range(3, 11):
        assert as_cover_total(n) < factorial(n + 1)


def test_family_table():
    # Oracles that share no code with the tables: the alternating sum for
    # the Eulerian numbers, the zigzag numbers pinned above, and binomials.
    zig = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]
    closed = {
        "tomei": lambda n: [sum((-1) ** j * comb(n + 2, j) * (k + 1 - j) ** (n + 1)
                                for j in range(k + 1)) for k in range(n + 1)],
        "hessenberg": lambda n: [comb(n + 1, 2 * i) * zig[2 * i]
                                 if 2 * i <= n + 1 else 0 for i in range(n + 1)],
        "as": lambda n: [comb(n + 1, i) - (comb(n + 1, i - 1) if i else 0)
                         if i <= (n + 1) // 2 else 0 for i in range(n + 1)],
    }
    for family, betti in closed.items():
        for n in range(9):
            rows = family_table(family, n)
            assert rows[0] == ("index", "value", "sources")
            assert rows[1:] == [(f"{n},{i}", str(v), "formula")
                                for i, v in enumerate(betti(n))]
    assert family_table("tomei", 3)[1:] == [
        ("3,0", "1", "formula"), ("3,1", "11", "formula"),
        ("3,2", "11", "formula"), ("3,3", "1", "formula")]
    with pytest.raises(ValidationError, match="unknown family"):
        family_table("nope", 3)
