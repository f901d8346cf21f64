"""Closed-form Betti and permutation-count formulas with brute oracles.

Everything here is exact integer arithmetic.  Each closed form has a
matching enumeration oracle over small inputs.
"""

import sys
from itertools import permutations
from math import comb, factorial, log10

from .errors import ValidationError, check_budget


def eulerian(m, k):
    """Permutations of 1..m with exactly k ascents, by recurrence."""
    if m < 1:
        raise ValidationError("need m >= 1")
    if not 0 <= k < m:
        return 0
    return _eulerian_row(m)[k]


def _eulerian_row(m):
    """The Eulerian numbers A(m, 0), ..., A(m, m - 1), one row from the
    last."""
    row = [1]
    for size in range(2, m + 1):
        new = []
        for j in range(size):
            up = (j + 1) * row[j] if j < size - 1 else 0
            down = (size - j) * row[j - 1] if j > 0 else 0
            new.append(up + down)
        row = new
    return row


def eulerian_brute(m, k):
    count = 0
    for perm in permutations(range(1, m + 1)):
        ascents = sum(1 for s in range(1, m) if perm[s] > perm[s - 1])
        if ascents == k:
            count += 1
    return count


def zigzag(m):
    """Alternating permutations of length m (up-down), by convolution."""
    if m < 0:
        raise ValidationError("need m >= 0")
    return _zigzags(m)[m]


def _zigzags(m):
    """The zigzag numbers E_0, ..., E_m (at least E_0 and E_1), each by
    convolution of the ones before it."""
    e = [1, 1]
    while len(e) <= m:
        n = len(e) - 1
        total = sum(comb(n, k) * e[k] * e[n - k] for k in range(n + 1))
        if total % 2:
            raise ValidationError("zigzag convolution came out odd")
        e.append(total // 2)
    return e


def zigzag_brute(m):
    if m == 0:
        return 1
    count = 0
    for perm in permutations(range(1, m + 1)):
        good = True
        for s in range(1, m):
            if s % 2 == 1 and perm[s - 1] >= perm[s]:
                good = False
                break
            if s % 2 == 0 and perm[s - 1] <= perm[s]:
                good = False
                break
        if good:
            count += 1
    return count


def betti_tomei(n):
    """Rational Betti numbers of the complete-graph gluing: one ascent
    class of permutations per degree."""
    return tuple(_eulerian_row(n + 1))


def betti_hessenberg(n):
    """Rational Betti numbers of the canonical complete-graph gluing; a
    degree i with 2i > n + 1 has none."""
    e = _zigzags(n + 1)
    return tuple(comb(n + 1, 2 * i) * e[2 * i] if 2 * i <= n + 1 else 0
                 for i in range(n + 1))


def betti_as_can(n):
    """Rational Betti numbers of the canonical path-graph gluing: binomial
    differences up to the middle, zero beyond."""
    half = (n + 1) // 2
    binomials = [1]   # C(n + 1, i) for i = 0..half, each from the last
    for i in range(1, half + 1):
        binomials.append(binomials[-1] * (n + 2 - i) // i)
    return (tuple(b - a for a, b in zip([0] + binomials, binomials))
            + (0,) * (n - half))


def hessenberg_cover_total(n):
    return 2 * sum(betti_hessenberg(n))


def as_cover_total(n):
    return 2 * comb(n + 1, (n + 1) // 2)


def check_inequality_chain(n):
    """Strict ordering of the three total Betti numbers: path cover,
    complete-graph canonical cover, complete-graph gluing.

    False for n <= 3: at n = 3 the middle total equals 4! = 24 (the
    totals are 12, 24, 24), and below that it exceeds (n+1)!.  True for
    n = 4..10, matching the paper's claim in dimensions 4 and higher."""
    left = as_cover_total(n)
    middle = hessenberg_cover_total(n)
    right = factorial(n + 1)
    return left < middle < right


def family_table(family, n):
    """Per-degree Betti values of one closed-form family, as CSV rows."""
    values = {
        "tomei": betti_tomei,
        "hessenberg": betti_hessenberg,
        "as": betti_as_can,
    }
    if family not in values:
        raise ValidationError(f"unknown family: {family}")
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    # the Eulerian row and the zigzag convolution make about (n + 1)^2
    # entries, the binomial differences n + 1
    check_budget(f"{family} table", n + 1 if family == "as" else (n + 1) ** 2,
                 "entries")
    # every binomial difference is below 2^(n + 1); the interpreter may
    # refuse to format an int of more digits than its limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if family == "as" and limit:
        check_budget("as table", int((n + 1) * log10(2)) + 1,
                     "digits per value", limit)
    return [("index", "value", "sources")] + [
        (f"{n},{i}", str(v), "formula") for i, v in enumerate(values[family](n))]
