"""Oracles shared between test modules."""

from types import SimpleNamespace

import pytest

from nestotope.cellcomplex import gf2_rank, pseudo_manifold_check
from nestotope.graphs import members


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


# The structural checks of SimplicialCellComplex written cell by cell, one
# condition at a time; the library checks whole columns of a level at once.


def _validate_by_cells(c):
    for k in range(1, c.n + 1):
        n_below = c.n_cells(k - 1)
        for cid, verts in enumerate(c.vertices_of[k]):
            if len(set(verts)) != k + 1:
                return False
            faces = c.faces_of[k][cid]
            if len(faces) != k + 1:
                return False
            for slot, f in enumerate(faces):
                if not 0 <= f < n_below:
                    return False
                expect = verts[:slot] + verts[slot + 1:]
                if c.vertices_of[k - 1][f] != expect:
                    return False
    for k in range(2, c.n + 1):
        for cid, faces in enumerate(c.faces_of[k]):
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    a = c.faces_of[k - 1][faces[j]][i]
                    b = c.faces_of[k - 1][faces[i]][j - 1]
                    if a != b:
                        return False
    return True


def _is_pure_by_cells(c):
    reachable = [set() for _ in range(c.n + 1)]
    reachable[c.n] = set(range(c.n_cells(c.n)))
    for k in range(c.n, 0, -1):
        for cid in reachable[k]:
            reachable[k - 1].update(c.faces_of[k][cid])
    return all(len(reachable[k]) == c.n_cells(k) for k in range(c.n + 1))


def _is_vertex_determined_by_cells(c):
    for k in range(1, c.n + 1):
        seen = set()
        for verts in c.vertices_of[k]:
            key = tuple(sorted(verts))
            if key in seen:
                return False
            seen.add(key)
    return True


def _facet_incidences(c):
    """For every (n-1)-cell, the list of (top cell, slot) hits."""
    inc = [[] for _ in range(c.n_cells(c.n - 1))]
    for t, faces in enumerate(c.faces_of[c.n]):
        for slot, f in enumerate(faces):
            inc[f].append((t, slot))
    return inc


def _pseudo_failures_by_incidences(c):
    """The failure list of ``pseudo_manifold_check``, with the two-hit
    test counted on per-facet incidence lists."""
    if not _validate_by_cells(c):
        return ["not a valid simplicial cell complex"]
    if not _is_pure_by_cells(c):
        return ["not pure: some cell lies in no top cell"]
    failures = []
    for f, hits in enumerate(_facet_incidences(c)):
        if len(hits) != 2:
            failures.append(f"(n-1)-cell {f} lies in {len(hits)} top cells, expected 2")
            if len(failures) > 20:
                failures.append("...")
                break
    return failures


def _orient_by_adjacency(c):
    """The certificate of ``orient``, from adjacency lists built on the
    incidence lists, a walk over them, and a final check that the signed
    top cells have zero boundary."""
    cert = pseudo_manifold_check(c)
    if not cert.is_pseudo:
        return cert
    n_top = c.n_cells(c.n)
    adj = [[] for _ in range(n_top)]
    ok = True
    for (t1, s1), (t2, s2) in _facet_incidences(c):
        # induced orientations must cancel: sign2 = sign1 * (-1)^(s1+s2+1)
        flip = (s1 + s2 + 1) & 1
        if t1 == t2:
            if flip:  # a self-gluing needs slots of opposite parity
                ok = False
            continue
        adj[t1].append((t2, flip))
        adj[t2].append((t1, flip))
    sign = [0] * n_top
    for start in range(n_top):
        if not ok:
            break
        if sign[start]:
            continue
        sign[start] = 1
        stack = [start]
        while stack and ok:
            t = stack.pop()
            for u, flip in adj[t]:
                want = -sign[t] if flip else sign[t]
                if sign[u] == 0:
                    sign[u] = want
                    stack.append(u)
                elif sign[u] != want:
                    ok = False
                    break
    if not ok:
        cert.orientation = "non-orientable"
        return cert
    # The fundamental cycle must vanish under the integer boundary map.
    acc = {}
    for t, faces in enumerate(c.faces_of[c.n]):
        for slot, f in enumerate(faces):
            acc[f] = acc.get(f, 0) + sign[t] * (-1) ** slot
    if any(v != 0 for v in acc.values()):
        cert.is_pseudo = False
        cert.failures.append("signed boundary of the fundamental cycle is nonzero")
        return cert
    cert.orientation = tuple(sign)
    return cert


@pytest.fixture
def cell_checks():
    return SimpleNamespace(validate=_validate_by_cells,
                           is_pure=_is_pure_by_cells,
                           is_vertex_determined=_is_vertex_determined_by_cells,
                           pseudo_failures=_pseudo_failures_by_incidences,
                           facet_incidences=_facet_incidences,
                           orient=_orient_by_adjacency)


def _lambda_to_json_dict(lam):
    """The matrix JSON that ``lambda_from_json_dict`` reads: each proper
    tube, written as its comma-joined members, maps to its column's bits."""
    cols = {}
    for t, col in zip(lam.b.proper_tubes, lam.columns):
        key = ",".join(str(v) for v in members(t))
        cols[key] = [(col >> i) & 1 for i in range(lam.rows)]
    return {"rows": lam.rows, "columns": cols}


@pytest.fixture
def lambda_to_json_dict():
    return _lambda_to_json_dict
