"""Oracles shared between test modules."""

import pytest

from nestotope.cellcomplex import gf2_rank


def _betti_z2_without_clearing(c):
    """Mod-2 Betti numbers from the plain GF(2) rank of every boundary,
    its columns built here, with nothing carried between degrees."""
    ranks = [0] * (c.n + 2)
    for k in range(1, c.n + 1):
        columns = []
        for faces in c.faces_of[k]:
            col = 0
            for f in faces:
                col ^= 1 << f
            columns.append(col)
        ranks[k] = gf2_rank(columns)
    return tuple(c.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(c.n + 1))


@pytest.fixture
def betti_z2_without_clearing():
    return _betti_z2_without_clearing
