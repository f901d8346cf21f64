"""Oracles shared between test modules, and a fixture that empties the
shared memo before every test."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, permutations, product, repeat
from math import lcm, prod
from operator import add, itemgetter, mul
from types import SimpleNamespace

import pytest

from nestotope.cellcomplex import (
    SimplicialCellComplex,
    gf2_rank,
    pseudo_manifold_check,
)
from nestotope import subdivision
from nestotope.memo import _MEMO
from nestotope.errors import OMEGA_BUDGET, ValidationError
from nestotope.graphs import bits_of, components_minus_vertex, members
from nestotope.nestohedron import _det_sign, _flags, _int_det, face_poset
from nestotope.realization import CoveringCertificate


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test starts with an empty memo, so a test that patches a
    builder or counts its calls sees the build itself."""
    _MEMO.clear()


def _cell_rows(c, k):
    """The vertex rows and the face rows of the k-cells of ``c``, lists of
    tuples read off its columns; a vertex's face row is ()."""
    faces = zip(*c.face_columns[k]) if k else repeat((), c.n_cells(0))
    return list(zip(*c.vertex_columns[k])), list(faces)


def _betti_z2_without_clearing(c):
    """Mod-2 Betti numbers from the plain GF(2) rank of every boundary,
    its columns built here, with nothing carried between degrees."""
    ranks = [0] * (c.n + 2)
    for k in range(1, c.n + 1):
        columns = []
        for faces in zip(*c.face_columns[k]):
            col = 0
            for f in faces:
                col ^= 1 << f
            columns.append(col)
        ranks[k] = gf2_rank(columns)
    return tuple(c.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(c.n + 1))


@pytest.fixture
def betti_z2_without_clearing():
    return _betti_z2_without_clearing


# An independent Smith normal form, the exact oracle for the library's
# single sparse loop: sparse unit-pivot elimination, then a dense textbook
# reduction of whatever core has no unit entry.  nrows and ncols are unread.


def smith_normal_form(entries, nrows, ncols):
    """(rank, elementary divisors) of an integer matrix given sparsely.

    Unit pivots are eliminated first, chosen by Markowitz fill count, which
    keeps the arithmetic integral and the matrix sparse; whatever core
    survives without unit entries goes through a dense textbook reduction.
    Divisors come back positive, each dividing the next.
    """
    rows = {}
    cols = {}
    for (r, ch), v in entries.items():
        if v:
            rows.setdefault(r, {})[ch] = v
            cols.setdefault(ch, set()).add(r)
    ones = 0
    while True:
        best = None
        for r, row in rows.items():
            rl = len(row)
            for ch, v in row.items():
                if v == 1 or v == -1:
                    cost = (rl - 1) * (len(cols[ch]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, r, ch)
                        if cost == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, pr, pc = best
        pv = rows[pr][pc]
        prow = rows.pop(pr)
        for ch in prow:
            cols[ch].discard(pr)
            if not cols[ch]:
                del cols[ch]
        for r in list(cols.get(pc, ())):
            row = rows[r]
            mult = row[pc] * pv  # pv in {1,-1} so this is row[pc]/pv
            for ch, v in prow.items():
                if ch == pc:
                    continue
                nv = row.get(ch, 0) - mult * v
                if nv:
                    if ch not in row:
                        cols.setdefault(ch, set()).add(r)
                    row[ch] = nv
                else:
                    if ch in row:
                        del row[ch]
                        cols[ch].discard(r)
                        if not cols[ch]:
                            del cols[ch]
            del row[pc]
            cols[pc].discard(r)
            if not row:
                del rows[r]
        if pc in cols and not cols[pc]:
            del cols[pc]
        ones += 1
    # Dense leftover.
    if rows:
        row_ids = sorted(rows)
        col_ids = sorted({ch for row in rows.values() for ch in row})
        cindex = {ch: j for j, ch in enumerate(col_ids)}
        dense = [[0] * len(col_ids) for _ in row_ids]
        for i, r in enumerate(row_ids):
            for ch, v in rows[r].items():
                dense[i][cindex[ch]] = v
        core = _dense_snf(dense)
    else:
        core = []
    divisors = [1] * ones + core
    return (len(divisors), tuple(divisors))


def _dense_snf(a):
    """Textbook Smith reduction of a small dense integer matrix.

    Returns the nonzero diagonal entries, positive, in divisibility order.
    """
    a = [row[:] for row in a]
    nr, nc = len(a), len(a[0]) if a else 0
    out = []
    top = 0
    while top < nr and top < nc:
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(best[0])):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        # clear row and column; restart if a remainder creates a smaller entry
        again = False
        p = a[top][top]
        for i in range(top + 1, nr):
            if a[i][top]:
                q = a[i][top] // p
                for j in range(top, nc):
                    a[i][j] -= q * a[top][j]
                if a[i][top]:
                    again = True
        for j in range(top + 1, nc):
            if a[top][j]:
                q = a[top][j] // p
                for i in range(top, nr):
                    a[i][j] -= q * a[i][top]
                if a[top][j]:
                    again = True
        if again:
            continue
        # ensure p divides everything below-right
        p = a[top][top]
        fixed = True
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if a[i][j] % p:
                    for jj in range(top, nc):
                        a[top][jj] += a[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        out.append(abs(p))
        top += 1
    return out


@pytest.fixture
def snf_oracle():
    return smith_normal_form


# The face-list check with the subset-closure walk: every stored face is
# shape-checked and its facets looked up, then the levels are compared with
# the rebuilt cliques.  The library's check, which compares the levels
# only, must return the same verdict on every poset.


def check_simple_and_flag(p):
    """Verify the stored face list against the clique model.

    True when faces are subset-closed, listed once each, coincide with the
    cliques of the stored pair relation, and every maximal face is a
    full-size tubing.  A hand-built poset missing the top of a clique (three
    mutually compatible tubes with no triple face) fails here.
    """
    n = p.dim
    stored = [set(level) for level in p.faces_by_size]
    if stored[0] != {()} or any(
            len(level) != len(faces)
            for level, faces in zip(p.faces_by_size, stored)):
        return False
    for k in range(1, n + 1):
        for face in stored[k]:
            if len(face) != k or list(face) != sorted(set(face)):
                return False
            for drop in range(k):
                if face[:drop] + face[drop + 1:] not in stored[k - 1]:
                    return False
    # adjacency as recorded by the 2-faces
    m = len(p.b.proper_tubes)
    adj = [0] * m
    if n >= 2:
        for (i, j) in stored[2]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    cliques = [set() for _ in range(n + 2)]

    def rec(members_tup, cand, ext):
        k = len(members_tup)
        if k <= n:
            cliques[k].add(members_tup)
        else:
            return False
        if ext == 0 and k < n:
            return False
        c = cand
        ok = True
        while c:
            low = c & -c
            i = low.bit_length() - 1
            higher = ~((1 << (i + 1)) - 1)
            if not rec(members_tup + (i,), cand & adj[i] & higher, ext & adj[i]):
                ok = False
            c ^= low
        return ok

    singles = {f[0] for f in stored[1]} if n >= 1 else set()
    start = sum(1 << i for i in singles)
    if not rec((), start, start if n >= 1 else 0):
        return False
    for k in range(n + 1):
        if cliques[k] != stored[k]:
            return False
    return True


@pytest.fixture
def flag_check_oracle():
    return check_simple_and_flag


# The projection degree by the pruned walk over every nondegenerate chain of
# faces, which ``pi_degree`` computed before it read one forced chain: a
# signed count per image flag, with its own refusals of a broken poset.


def _signed_flag_counts(p, coords):
    """Signed counts of the nondegenerate complete face chains, per image.

    Returns ``acc``, which maps each image flag, the tuple of uncovered
    masks u(F) of the chain's faces from vertex to the whole polytope, to
    the sum over the chains above it of the source orientation sign times
    the image flag's sign.  Source points are face barycentres scaled by
    vertex counts: each vertex's point is added into every face of its
    tubing.  The image flag's 0/1 rows differ by the rows of a permutation
    matrix, so its sign is the permutation's, read off the walk: each step
    uncovers one element x after the elements u already uncovered, and adds
    one inversion per element of u above x.

    A chain counts only when u grows by one element at each step: its face
    at step i, which has dim - i tubes, must leave i + 1 elements uncovered.
    So a chain is nondegenerate exactly when every face F on it is good,
    |u(F)| = n_vertices - |F|, and the walk down from each vertex, which
    descends only into good faces, reaches exactly the nondegenerate chains
    of ``_flags``.  Every key is then a nested chain of masks of sizes 1 to
    n_vertices ending at the ground set, the chain of one ordering of the
    ground set, so ``acc`` has at most n_vertices! keys.  A stored tubing
    that covers the whole ground set (it has no image), a face under a good
    face that the poset does not store, a stored face that no vertex
    contains, and a degenerate source chain over a nondegenerate image,
    raise.
    """
    b = p.b
    nv = b.n_vertices
    proper = b.proper_tubes
    uncovered = {}
    bary = {}
    for level in p.faces_by_size:
        for face in level:
            covered = 0
            for i in face:
                covered |= proper[i]
            uncovered[face] = b.ground_mask & ~covered
            if not uncovered[face]:
                raise ValidationError("tubing covers the whole ground set")
            bary[face] = None
    for v in p.vertices:
        pt = coords[v]
        under = [()]
        for i in v:
            under += [face + (i,) for face in under]
        for face in under:
            if face in bary:
                row = bary[face]
                bary[face] = pt if row is None else tuple(map(add, row, pt))
    if any(row is None for row in bary.values()):
        raise ValidationError("face with no vertices")
    good = {face for face, u in uncovered.items()
            if u.bit_count() == nv - len(face)}

    acc = {}

    def descend(face, key, rows, inversions):
        if not face:
            sdom = _det_sign(rows)
            if sdom == 0:
                raise ValidationError(
                    "degenerate source flag with nondegenerate image")
            acc[key] = acc.get(key, 0) + (-sdom if inversions & 1 else sdom)
            return
        u = key[-1]
        for drop in range(len(face)):
            child = face[:drop] + face[drop + 1:]
            if child in good:
                grown = uncovered[child]
                descend(child, key + (grown,), rows + (bary[child],),
                        inversions + (u >> (grown & ~u).bit_length()).bit_count())
            elif child not in uncovered:
                raise ValidationError(
                    f"face {child} under face {face} is missing from the "
                    "face poset")

    for v in p.vertices:
        if v in good:
            descend(v, (uncovered[v],), (bary[v],), 0)
    return acc


@pytest.fixture
def signed_flag_oracle():
    return _signed_flag_counts


# The vertex check one vertex at a time: the point from the coordinate
# table, a subset-sum table of it over all masks, then every tube in index
# order.  The library checks each tube once over the columns of all the
# points and must return the same points and raise the same error.


def vertex_coordinates(p, vertex):
    """Integer coordinates of a vertex given as a tuple of tube indexes.

    Postnikov's formula (IMRN 2009, arXiv:math/0507163, section 7):
    coordinate j counts the tubes S with j in S contained in T_j, the
    smallest tube of the vertex holding j, or the ground set if none does.
    Those counts are the rows of ``p.coordinate_table``: x starts as the
    ground-set row, and the vertex's tubes, walked from largest to smallest
    (the canonical tube order is by size), overwrite it on their members,
    so each x_j ends as T_j's entry.

    The point is then checked to meet the support-count equation of every
    tube of the vertex, and every other proper tube's inequality strictly.
    The sums over tubes are read from a subset-sum table of x over all
    2^n_vertices masks, built by doubling, so each tube costs one lookup.

    >>> from nestotope.graphs import complete_graph, graph_building_set
    >>> p = face_poset(graph_building_set(complete_graph(3)))
    >>> sorted(vertex_coordinates(p, p.vertices[0]))
    [1, 2, 4]
    """
    b = p.b
    if vertex not in p.face_sets[p.dim]:
        raise ValidationError("not a vertex of this face poset")
    proper = b.proper_tubes
    table = p.coordinate_table
    x = list(table[-1])
    for i in sorted(vertex, reverse=True):
        row = table[i]
        for j in bits_of(proper[i]):
            x[j] = row[j]
    if sum(x) != len(b.tubes):
        raise ValidationError("vertex equations failed to hold")
    sums = [0]  # sums[mask] = sum of x[j] over the bits j of mask
    for xj in x:
        sums += [s + xj for s in sums]
    own = set(vertex)
    for idx, (s, c) in enumerate(zip(proper, p.support)):
        total = sums[s]
        if idx in own:
            if total != c:
                raise ValidationError("vertex equations failed to hold")
        elif total <= c:
            raise ValidationError(
                "support inequality not strict off the vertex's own tubes")
    return tuple(x)


@pytest.fixture
def vertex_coordinates_oracle():
    return vertex_coordinates


# The structural checks of SimplicialCellComplex written cell by cell, one
# condition at a time; the library checks whole columns of a level at once.


def _validate_by_cells(c):
    vertex_rows, face_rows = zip(*(_cell_rows(c, k) for k in range(c.n + 1)))
    for k in range(1, c.n + 1):
        n_below = c.n_cells(k - 1)
        for verts, faces in zip(vertex_rows[k], face_rows[k]):
            if len(set(verts)) != k + 1:
                return False
            for slot, f in enumerate(faces):
                if not 0 <= f < n_below:
                    return False
                expect = verts[:slot] + verts[slot + 1:]
                if vertex_rows[k - 1][f] != expect:
                    return False
    for k in range(2, c.n + 1):
        for faces in face_rows[k]:
            for i in range(k + 1):
                for j in range(i + 1, k + 1):
                    a = face_rows[k - 1][faces[j]][i]
                    b = face_rows[k - 1][faces[i]][j - 1]
                    if a != b:
                        return False
    return True


def _is_pure_by_cells(c):
    reachable = [set() for _ in range(c.n + 1)]
    reachable[c.n] = set(range(c.n_cells(c.n)))
    for k in range(c.n, 0, -1):
        face_rows = list(zip(*c.face_columns[k]))
        for cid in reachable[k]:
            reachable[k - 1].update(face_rows[cid])
    return all(len(reachable[k]) == c.n_cells(k) for k in range(c.n + 1))


def _is_vertex_determined_by_cells(c):
    for k in range(1, c.n + 1):
        seen = set()
        for verts in zip(*c.vertex_columns[k]):
            key = tuple(sorted(verts))
            if key in seen:
                return False
            seen.add(key)
    return True


def _facet_incidences(c):
    """For every (n-1)-cell, the list of (top cell, slot) hits."""
    inc = [[] for _ in range(c.n_cells(c.n - 1))]
    for t, faces in enumerate(zip(*c.face_columns[c.n])):
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
    for t, faces in enumerate(zip(*c.face_columns[c.n])):
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


# Quotients of disjoint simplices by order-preserving facet identifications.
# Instances (t, A) with A a nonempty slot mask of top simplex t are merged by
# the transitive closure of the listed facet gluings; the classes become the
# cells.  The library builds no complex this way: these are the oracles for
# its subcell tables, for complexes that are not vertex-determined, and for
# the eta orientation cover of a glued manifold.


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _slot_correspondence(n, i1, i2):
    """Map slot j != i1 of one facet to the matching slot of the other."""
    table = [None] * (n + 1)
    for j in range(n + 1):
        if j == i1:
            continue
        pos = j - (1 if j > i1 else 0)
        table[j] = pos + (1 if pos >= i2 else 0)
    return table


def _complex_from_gluings(dim, n_tops, gluings):
    """Glue ``n_tops`` copies of the dim-simplex along the listed facet pairs.

    ``gluings`` is an iterable of ((t1, i1), (t2, i2)) meaning facet i1 of top
    t1 is identified with facet i2 of top t2, matching remaining slots in
    order.  Returns (complex, instance_cell) where instance_cell maps
    (t, slot_mask) to the (k, cell_id) it became.
    """
    full = (1 << (dim + 1)) - 1
    per_top = full  # masks 1..full
    uf = _UnionFind(n_tops * per_top)

    def iid(t, mask):
        return t * per_top + (mask - 1)

    corr_cache = {}
    for (t1, i1), (t2, i2) in gluings:
        key = (i1, i2)
        table = corr_cache.get(key)
        if table is None:
            table = _slot_correspondence(dim, i1, i2)
            corr_cache[key] = table
        avail = full & ~(1 << i1)
        sub = avail
        while sub:
            mapped = 0
            m = sub
            while m:
                low = m & -m
                mapped |= 1 << table[low.bit_length() - 1]
                m ^= low
            uf.union(iid(t1, sub), iid(t2, mapped))
            sub = (sub - 1) & avail

    # Number the classes, graded by |A| - 1.
    cell_of_root = {}
    counts = [0] * (dim + 1)
    order = []
    for t in range(n_tops):
        for mask in range(1, full + 1):
            root = uf.find(iid(t, mask))
            if root not in cell_of_root:
                k = mask.bit_count() - 1
                cell_of_root[root] = (k, counts[k])
                counts[k] += 1
                order.append((t, mask, root))

    def instance_cell(t, mask):
        return cell_of_root[uf.find(iid(t, mask))]

    cell_vertices = [None] + [[None] * counts[k] for k in range(1, dim + 1)]
    cell_faces = [None] + [[None] * counts[k] for k in range(1, dim + 1)]
    for t, mask, _root in order:
        k = mask.bit_count() - 1
        if k == 0:
            continue
        _, cid = instance_cell(t, mask)
        verts = []
        faces = []
        m = mask
        while m:
            low = m & -m
            verts.append(instance_cell(t, low)[1])
            faces.append(instance_cell(t, mask ^ low)[1])
            m ^= low
        cell_vertices[k][cid] = tuple(verts)
        cell_faces[k][cid] = tuple(faces)
    cx = SimplicialCellComplex(dim, counts[0], cell_vertices, cell_faces)
    return cx, instance_cell


def _orientation_double_cover(c):
    """The two-sheeted cover trivializing the orientation character.

    Top cells are doubled into sheets; crossing a facet keeps or swaps the
    sheet according to whether the two induced orientations already cancel.
    Lower cells follow by transitive closure.  Returns (cover, projection)
    where projection lists, per dimension, the base cell under each cover
    cell.  The cover of a non-orientable connected pseudo-manifold is
    connected; of an orientable one, two disjoint copies.
    """
    cert = pseudo_manifold_check(c)
    if not cert.is_pseudo:
        raise ValidationError("orientation double cover needs a pseudo-manifold: "
                              + "; ".join(cert.failures))
    n = c.n
    n_top = c.n_cells(n)

    def sheet_top(t, s):
        return 2 * t + s

    gluings = []
    pairs = c.facet_pairs()
    for a, b in zip(pairs[::2], pairs[1::2]):
        (t1, s1), (t2, s2) = divmod(a, n + 1), divmod(b, n + 1)
        flip = (s1 + s2 + 1) & 1
        for s in (0, 1):
            gluings.append(((sheet_top(t1, s), s1), (sheet_top(t2, s ^ flip), s2)))
    cover, instance_cell = _complex_from_gluings(n, 2 * n_top, gluings)
    if not cover.validate():
        raise ValidationError("double cover produced an invalid complex")
    projection = [[None] * cover.n_cells(k) for k in range(n + 1)]
    for t in range(n_top):
        table = c.subfaces(n, t)
        for s in (0, 1):
            for mask in range(len(table) - 1, 0, -1):
                k, cid = instance_cell(sheet_top(t, s), mask)
                projection[k][cid] = table[mask][1]
    for k in range(n + 1):
        if any(b is None for b in projection[k]):
            raise ValidationError("double cover projection left a cell unmapped")
    return cover, projection


@pytest.fixture
def gluing():
    return SimpleNamespace(complex_from_gluings=_complex_from_gluings,
                           orientation_double_cover=_orientation_double_cover)



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


# The covering chain walked label by label, and per-top walks: the tube and
# pair pools walked over every fibre label, one whole permutation of the
# cells per mu index and step, each step filled from ``phi_action`` on the
# families' conjugation tables; every face orbit walked from every label
# where that is small; the barycentric substitution with one dict lookup
# per piece cell; and the codimension-2 cofacet count from the pairs of
# facet slots of every top cell.  The library's generator checks, keyed
# substitution and half-sum count must give the same certificates and
# complexes.

# The oracle walks every face from every fibre label when r times the face
# count is at most this: every 2-dimensional input of the tests, not the
# 3-sphere (116,640 labels times 45 faces).
_FACE_WALK_LABELS = 30_000

# The oracle walks the pools label by label when r is at most this, as on
# the 3-sphere with path:4 (116,640 labels), and on the families' tables
# above it, as on the 4-sphere with path:5 (1,259,712,000 labels).
_LABEL_WALK_LABELS = 200_000


def _compose(p, q):
    """Permutation product, q applied first."""
    return tuple(p[x] for x in q)


def _involution_closure(sys, colour_set):
    """Conjugation closure of the smallest colour's involution, composed
    tuple by tuple: each permutation, in the order found, with one witness
    word over the given colours; the word's involutions, composed, give
    the permutation."""
    cols = sorted(colour_set)
    seed = sys.xi[cols[0]]
    words = {seed: (cols[0],)}
    queue = [seed]
    while queue:
        mu = queue.pop()
        for i in cols:
            conj = _compose(sys.xi[i], _compose(mu, sys.xi[i]))
            if conj not in words:
                words[conj] = (i,) + words[mu] + (i,)
                queue.append(conj)
    perms = tuple(words)
    return perms, tuple(words[p] for p in perms)


@dataclass
class _InvolutionSet:
    perms: tuple
    conj: dict   # bigger tube t -> rows[i_s][i_t], the index of mu_s.mu_t.mu_s

    def __len__(self):
        return len(self.perms)


def _involution_tables(b, sets):
    """Each tube's family of ``sets`` with the index table of its
    conjugation action on the family of every bigger tube."""
    tables = {t: _InvolutionSet(sets[t], {}) for t in b.proper_tubes}
    for t in b.proper_tubes:
        index = {p: i for i, p in enumerate(sets[t])}
        for s in b.proper_tubes:
            if s == t or (t & s) != s:
                continue
            rows = []
            for mu_s in sets[s]:
                row = [index.get(_compose(mu_s, _compose(mu_t, mu_s)))
                       for mu_t in sets[t]]
                if None in row:
                    raise ValidationError("conjugation leaves the involution set")
                rows.append(tuple(row))
            tables[s].conj[t] = tuple(rows)
    return tables


def _phi_action(b, tables, s, omega):
    """The face involution of one tube on a sheet label (sigma, mu, g).

    The tube's own involution moves the cell; families at larger tubes
    are conjugated; the group coordinate flips the tube's bit.  ``sigma``
    indexes the tube's permutation, so a slice there returns that part of
    the permutation instead of one cell.
    """
    sigma, mu, g = omega
    j = b.proper_index[s]
    tube_set = tables[s]
    i_s = mu[j]
    new_mu = list(mu)
    for t, rows in tube_set.conj.items():
        k = b.proper_index[t]
        new_mu[k] = rows[i_s][mu[k]]
    return tube_set.perms[i_s][sigma], tuple(new_mu), g ^ (1 << j)


def _epsilon(sys, omega):
    """Sign of a sheet label: cell sign times group-coordinate parity."""
    sigma, _, g = omega
    sign = 1 if sys.plus[sigma] else -1
    if g.bit_count() & 1:
        sign = -sign
    return sign


def _orbit_check(b, tables, sys, omega, face):
    """Face orbit must have size 2^k and hit each group coset element once."""
    tubes = [b.proper_tubes[i] for i in face]
    k = len(tubes)
    seen = {omega}
    frontier = [omega]
    while frontier:
        w = frontier.pop()
        for s in tubes:
            nxt = _phi_action(b, tables, s, w)
            if nxt not in seen:
                if len(seen) >= (1 << k):
                    return False
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != (1 << k):
        return False
    span = {0}
    for s in tubes:
        bit = 1 << b.proper_index[s]
        span |= {g ^ bit for g in span}
    return {w[2] for w in seen} == {omega[2] ^ d for d in span}


def _pairs(b):
    """The 2-faces of the nestohedron, as pairs of tube positions."""
    p = face_poset(b)
    return p.faces_by_size[2] if p.dim >= 2 else ()


def _label_walk(b, tables, sys):
    """``phi_involutions``, ``epsilon_class_constant`` and
    ``phi_commutation`` over every fibre label x = sigma + size * u, u the
    mixed-radix index of mu with mu[0] fastest.

    The walk runs once per mu index on a state (permutation, base) that
    carries every sigma of that mu at once; each tube's step at a base is
    ``phi_action`` with a full slice for sigma, stored the first time the
    base is reached.
    """
    tubes = b.proper_tubes
    size = sys.size
    sizes = [len(tables[t]) for t in tubes]
    weights = [size * prod(sizes[:k]) for k in range(len(tubes))]
    steps = [{} for _ in tubes]

    def move(j, state):
        """Tube j's step on a (sigma permutation, base) state."""
        cells, base = state
        if base not in steps[j]:
            u = base // size
            mu = []
            for n_i in sizes:
                u, i = divmod(u, n_i)
                mu.append(i)
            perm, mu, _ = _phi_action(b, tables, tubes[j],
                                      (slice(None), tuple(mu), 0))
            steps[j][base] = perm, sum(map(mul, mu, weights))
        perm, nxt = steps[j][base]
        return tuple(perm[c] for c in cells), nxt

    ident = tuple(range(size))
    states = [(ident, base) for base in range(0, size * prod(sizes), size)]
    # each cell's sign at g = 0, and at the odd g = e_j where a step lands
    at_zero = [_epsilon(sys, (c, None, 0)) for c in range(size)]
    landed = [_epsilon(sys, (c, None, 1)) for c in range(size)]
    involutions = class_constant = True
    for w in states:
        for j in range(len(tubes)):
            image = move(j, w)
            involutions = involutions and move(j, image) == w
            class_constant = class_constant and all(
                landed[c] == at_zero[x] for c, x in zip(image[0], ident))
    commutation = all(move(i, move(j, w)) == move(j, move(i, w))
                      for w in states for i, j in _pairs(b))
    return involutions, class_constant, commutation


def _table_walk(b, tables, sys):
    """The checks of ``_label_walk`` on the families' tables, at a cost
    that does not depend on r.

    On the fibre g = 0 tube s's step moves sigma by the permutation
    pi^s_a, a = mu_s, and mu_t by the row ``tables[s].conj[t][a]`` for
    each tube t strictly containing s.  Each check runs on states of rows:
    the cells, one row per tube it steps holding that tube's index, and
    one row per tube above them holding every index of that tube's
    family.  A step maps whole rows, so one state stands for every label
    with those indexes.
    """
    size = sys.size
    tubes = b.proper_tubes
    ident = tuple(range(size))

    def states(own):
        """Row positions, by tube, and the start states for the steps of
        the ``own`` tubes: one state per choice of their indexes, holding
        every cell and every index of each tube strictly above them."""
        above = {t for s in own for t in tables[s].conj}.difference(own)
        at = {t: q for q, t in enumerate((*own, *above), 1)}
        rows = [tuple(range(len(tables[t]))) for t in above]
        return at, ([ident, *((k,) for k in ks), *rows]
                    for ks in product(*(range(len(tables[s])) for s in own)))

    def step(s, state, at):
        """Tube s's face involution on every label a state stands for."""
        a = state[at[s]][0]
        new = list(state)
        new[0] = itemgetter(*state[0])(tables[s].perms[a])
        for t, rows in tables[s].conj.items():
            new[at[t]] = tuple(map(rows[a].__getitem__, state[at[t]]))
        return new

    involutions = class_constant = True
    for s in tubes:
        at, starts = states((s,))
        for w in starts:
            image = step(s, w, at)
            involutions = involutions and step(s, image, at) == w
            class_constant = class_constant and all(
                sys.plus[c] != sys.plus[x] for c, x in zip(image[0], ident))
    commutation = True
    for i, j in _pairs(b):
        at, starts = states((tubes[i], tubes[j]))
        commutation = commutation and all(
            step(tubes[i], step(tubes[j], w, at), at)
            == step(tubes[j], step(tubes[i], w, at), at) for w in starts)
    return involutions, class_constant, commutation


def build_covering(b, tables, sys, budget=None):
    """Certify that the sheet labels assemble into a covering, by walking
    the fibre g = 0 on the families and conjugation tables of
    ``_involution_tables``.

    The tube and the pair pools are walked label by label (``_label_walk``)
    when r is at most _LABEL_WALK_LABELS, and on the tables
    (``_table_walk``) above that.  Every face is walked from every fibre
    label with ``_orbit_check`` when r * faces is at most
    _FACE_WALK_LABELS; above that, ``covering_fibers`` is
    ``phi_involutions and phi_commutation``, by the relator argument of
    the library's ``build_covering``, which the smaller inputs
    cross-check.

    Two entries are closed forms, not counts: every face F splits the
    labels into classes of r * 2^|F|, so the fibre histogram is
    {r: sum over faces of 2^(m - |F|)}; and half of the 2^m group
    coordinates have each parity, so every probe cell carries
    s = 2^(m-1) * prod |I_t| positive labels and ``degree_independent``
    holds.
    """
    if budget is None:
        budget = OMEGA_BUDGET
    p = face_poset(b)
    tubes = b.proper_tubes
    m = len(tubes)
    size = sys.size
    sizes = [len(tables[t]) for t in tubes]
    prod_i = prod(sizes)
    r = size * prod_i
    mode = "full" if r << m <= budget else "sampled"
    checks = {}

    checks["xi_involutions"] = all(
        _compose(x, x) == tuple(range(size))
        and all(sys.plus[x[t]] != sys.plus[t] for t in range(size))
        for x in sys.xi)
    graph = sys.y.graph
    checks["xi_commutation"] = all(
        _compose(sys.xi[i], sys.xi[j]) == _compose(sys.xi[j], sys.xi[i])
        for i in range(sys.n_colours) for j in range(i + 1, sys.n_colours)
        if not graph.has_edge(i, j))

    walk = _label_walk if r <= _LABEL_WALK_LABELS else _table_walk
    (checks["phi_involutions"], checks["epsilon_class_constant"],
     checks["phi_commutation"]) = walk(b, tables, sys)

    faces = [face for level in p.faces_by_size for face in level]
    if r * len(faces) <= _FACE_WALK_LABELS:
        labels = [(sigma, mu, 0) for mu in product(*map(range, sizes))
                  for sigma in range(size)]
        checks["covering_fibers"] = all(
            _orbit_check(b, tables, sys, w, face)
            for w in labels for face in faces)
    else:
        checks["covering_fibers"] = (checks["phi_involutions"]
                                     and checks["phi_commutation"])
    checks["degree_independent"] = True

    histogram = {r: sum(1 << (m - len(face)) for face in faces)}
    i_sizes = {",".join(str(v) for v in members(t)): len(tables[t])
               for t in tubes}
    return CoveringCertificate(r, (1 << (m - 1)) * prod_i, m, size,
                               i_sizes, histogram, checks, mode)


def _substitute(bar, k):
    """The complex and colours of ``_substitute_rows``."""
    rows, colours = _substitute_rows(bar, k)
    return (SimplicialCellComplex(rows.dim, len(rows.labels), rows.vertices,
                                  rows.faces, vertex_labels=rows.labels),
            colours)


def _substitute_rows(bar, k):
    """Replace every barycentric cell by the matching piece of the simplex
    subdivision, matching graph vertices to barycentric dimensions; the
    rows of the result, with its colours.

    Slot i of every top barycentric cell has dimension i, so a piece whose
    coordinate support is the slot set S sits, inside top cell t, in the
    subcell ``subfaces(n, t)[S]``: the smallest barycentric cell with those
    dimensions, so pieces on a common boundary are shared and the copies
    glue.  Vertices are numbered in (host cell, piece vertex) order; higher
    cells on first sight in one pass over the top cells, which lists the
    top cells in (barycentric top, piece) order.  The result is not
    validated here: ``orient`` checks it as a pseudo-manifold.
    """
    n = bar.n
    kc = k.complex
    # carrier[kk][cid]: the coordinate support of a piece, as a slot mask;
    # any two facets of a cell cover all its vertices
    carrier = [[sum(1 << j for j, x in enumerate(p) if x) for p in k.coords]]
    for kk in range(1, n + 1):
        below = carrier[-1]
        carrier.append([below[f[0]] | below[f[1]]
                        for f in zip(*kc.face_columns[kk])])
    on_support = {}            # support mask -> piece vertices, ascending
    rank = []                  # each piece vertex's place in its list
    for u, m in enumerate(carrier[0]):
        same = on_support.setdefault(m, [])
        rank.append(len(same))
        same.append(u)
    first = {}                 # barycentric cell -> its first hosted vertex
    labels = []
    for bk in range(n + 1):
        for bid, verts in enumerate(zip(*bar.vertex_columns[bk])):
            first[bk, bid] = len(labels)
            dims = sum(1 << bar.vertex_labels[v][0] for v in verts)
            labels.extend(((bk, bid), u) for u in on_support.get(dims, ()))

    ids = [{} for _ in range(n + 1)]   # (host dim, host id, piece cell) -> id
    piece_rows = [_cell_rows(kc, kk) for kk in range(n + 1)]
    cell_vertices = [[] for _ in range(n + 1)]
    cell_faces = [[] for _ in range(n + 1)]
    for t, verts in enumerate(zip(*bar.vertex_columns[n])):
        if [bar.vertex_labels[v][0] for v in verts] != list(range(n + 1)):
            raise ValidationError("barycentric cell with repeated dims")
        table = bar.subfaces(n, t)
        # here[kk][cid]: the output id of piece cell cid inside top cell t
        here = [[first[table[m]] + r for m, r in zip(carrier[0], rank)]]
        for kk in range(1, n + 1):
            row = []
            for cid, m in enumerate(carrier[kk]):
                key = table[m] + (cid,)
                got = ids[kk].get(key)
                if got is None:
                    got = ids[kk][key] = len(cell_vertices[kk])
                    verts, faces = (rows[cid] for rows in piece_rows[kk])
                    cell_vertices[kk].append(tuple(here[0][u] for u in verts))
                    cell_faces[kk].append(tuple(here[kk - 1][f] for f in faces))
                row.append(got)
            here.append(row)
    cell_vertices[0] = [(i,) for i in range(len(labels))]
    cell_faces[0] = [()] * len(labels)
    rows = SimpleNamespace(dim=n, vertices=cell_vertices, faces=cell_faces,
                           labels=labels)
    return rows, tuple(k.colours[u] for _, u in labels)


def _codim2_cofacets(c):
    """Top-cell count of every codimension-2 cell, in first-seen order."""
    n = c.n
    counts = {}
    below = list(zip(*c.face_columns[n - 1]))
    for faces in zip(*c.face_columns[n]):
        hits = set()
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                # drop slot j, then slot i of that facet
                hits.add((n - 2, below[faces[j]][i]))
        for key in hits:
            counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.fixture
def covering_oracle():
    return SimpleNamespace(build_covering=build_covering,
                           label_walk=_label_walk,
                           table_walk=_table_walk,
                           closure=_involution_closure,
                           tables=_involution_tables,
                           compose=_compose,
                           phi_action=_phi_action,
                           epsilon=_epsilon,
                           orbit_check=_orbit_check,
                           substitute=_substitute,
                           codim2_cofacets=_codim2_cofacets)


# The rows that the row-by-row constructions make: every cell's vertex
# tuple and face tuple, built as tuples and kept in per-level lists, as the
# complexes stored them before they stored each level as slot columns.
# The rows a complex's columns zip to (``rows``) must be these.  A
# reference is a namespace of ``dim``, ``vertices``, ``faces`` (per level,
# with the vertices' rows (i,) and ()) and ``labels``.


def _rows_from_top_simplices(tops, vertex_labels=None):
    """The rows of ``SimplicialCellComplex.from_top_simplices``: lower cells
    numbered in the order the cells above first reach them, slot by slot."""
    tops = [tuple(t) for t in tops]
    dim = len(tops[0]) - 1
    if vertex_labels is None:
        vertex_labels = sorted({v for t in tops for v in t})
    vid = {lab: i for i, lab in enumerate(vertex_labels)}
    levels = [None] * (dim + 1)
    levels[dim] = [tuple(sorted(vid[v] for v in t)) for t in tops]
    index = [None] * (dim + 1)
    for k in range(dim - 1, 0, -1):
        idx = {}
        for verts in levels[k + 1]:
            for slot in range(k + 2):
                idx.setdefault(verts[:slot] + verts[slot + 1:], len(idx))
        levels[k] = list(idx)
        index[k] = idx
    faces = [[()] * len(vertex_labels)]
    for k in range(1, dim + 1):
        level = []
        for verts in levels[k]:
            row = []
            for slot in range(k + 1):
                sub = verts[:slot] + verts[slot + 1:]
                row.append(sub[0] if k == 1 else index[k - 1][sub])
            level.append(tuple(row))
        faces.append(level)
    levels[0] = [(i,) for i in range(len(vertex_labels))]
    return SimpleNamespace(dim=dim, vertices=levels, faces=faces,
                           labels=list(vertex_labels))


def _subfaces_of_rows(ref, k, cid):
    """``SimplicialCellComplex.subfaces`` read off reference rows."""
    table = [None] * (2 << k)
    table[-1] = (k, cid)
    for mask in range(len(table) - 1, 0, -1):
        d, c = table[mask]
        m = mask
        for f in ref.faces[d][c]:
            low = m & -m
            table[mask ^ low] = (d - 1, f)
            m ^= low
    return table


def _barycentric_rows(ref):
    """The rows of ``barycentric_subdivide``: one flag per top cell and
    permutation of its slots, read off the reference rows."""
    n = ref.dim
    tops = []
    for t in range(len(ref.vertices[n])):
        table = _subfaces_of_rows(ref, n, t)
        for perm in permutations(range(n + 1)):
            tops.append(tuple(table[m] for m in accumulate(1 << s for s in perm)))
    return _rows_from_top_simplices(tops)


def _glued_rows(m):
    """The rows of a glued manifold's complex, level by level: yields k,
    the vertex rows and face rows of level k, and the vertex labels.

    Every copy g walks the bar cells, and a cell is new where g is the
    coset minimum of the span of its largest face, else it is the cell of
    that minimum's copy; new cells take their vertices and faces from the
    copy's id tables.  The bar complex's rows come from
    ``_rows_from_top_simplices`` on the polytope's flags.
    """
    p = m.poset
    n = p.dim
    bar = _rows_from_top_simplices(
        [tuple((n - len(face), face) for face in flag) for flag in _flags(p)])
    cells = []
    labels = []
    for k in range(n + 1):
        pins = [m._reduced[bar.labels[verts[-1]][1]] for verts in bar.vertices[k]]
        rows = []
        verts_out = []
        faces_out = []
        for g in range(1 << m.rank):
            row = []
            for cid, pin in enumerate(pins):
                r = pin[g]
                if r != g:
                    row.append(rows[r][cid])
                elif k == 0:
                    row.append(len(labels))
                    labels.append((bar.labels[cid][1], g))
                else:
                    row.append(len(verts_out))
                    verts_out.append(
                        tuple(cells[0][g][v] for v in bar.vertices[k][cid]))
                    faces_out.append(
                        tuple(cells[k - 1][g][f] for f in bar.faces[k][cid]))
            rows.append(row)
        cells.append(rows)
        if k == 0:
            verts_out = [(i,) for i in range(len(labels))]
            faces_out = [()] * len(labels)
        yield k, verts_out, faces_out, labels


def _rows_from_instances(doc):
    """The rows that the JSON reader builds from a document's instance
    list: cell cid of dimension len(slots) - 1 has the vertices of its
    one-slot instances and the faces of its instances one slot short."""
    by_key = {(t, tuple(slots)): cid for t, slots, cid in doc["instances"]}
    dim = doc["dim"]
    counts = [0] * (dim + 1)
    for (t, slots), cid in by_key.items():
        counts[len(slots) - 1] = max(counts[len(slots) - 1], cid + 1)
    vertices = [[(i,) for i in range(counts[0])]]
    faces = [[()] * counts[0]]
    for k in range(1, dim + 1):
        vertices.append([None] * counts[k])
        faces.append([None] * counts[k])
    for (t, slots), cid in by_key.items():
        k = len(slots) - 1
        if k:
            vertices[k][cid] = tuple(by_key[t, (s,)] for s in slots)
            faces[k][cid] = tuple(by_key[t, slots[:i] + slots[i + 1:]]
                                  for i in range(k + 1))
    return SimpleNamespace(dim=dim, vertices=vertices, faces=faces, labels=None)


@pytest.fixture
def layout_oracle():
    return SimpleNamespace(rows=_cell_rows,
                           from_top_simplices=_rows_from_top_simplices,
                           barycentric=_barycentric_rows,
                           glued=_glued_rows,
                           substitute=_substitute_rows,
                           from_instances=_rows_from_instances)


def _lemma_tops(g, a):
    """Top simplices as tuples of (coords, colour) labels; coordinates are
    barycentric over the graph's own vertex list."""
    nv = g.n_vertices
    if nv == 1:
        return [(((Fraction(1),), 0),)]
    blocks = []
    for sub, labels in components_minus_vertex(g, a):
        adjacent = g.adjacency[a]
        b_old = min(v for v in labels if (adjacent >> v) & 1)
        sub_tops = _lemma_tops(sub, labels.index(b_old))
        blocks.append((subdivision._reflect_block(sub_tops, len(labels)),
                       labels))

    ambient = [v for v in range(nv) if v != a]
    slot_of = {v: j for j, v in enumerate(ambient)}
    joined = [()]
    for tops, labels in blocks:
        positions = [slot_of[v] for v in labels]
        grown = []
        for top in tops:
            emb = tuple((_embed(c, positions, len(ambient)), labels[col])
                        for c, col in top)
            for prefix in joined:
                grown.append(prefix + emb)
        joined = grown

    origin = (tuple(Fraction(0) for _ in ambient), a)
    phi = _straightening(g, a)
    tops = [top + (origin,) for top in joined]
    image = {(c, col): (phi(c), col)
             for c, col in set(chain.from_iterable(tops))}
    if len(set(image.values())) != len(image):
        raise ValidationError("straightening map collapsed two vertices")
    return [tuple(map(image.__getitem__, top)) for top in tops]


def _embed(coords, positions, width):
    out = [Fraction(0)] * width
    for c, j in zip(coords, positions):
        out[j] = c
    return tuple(out)


def _straightening(g, a):
    """Affine-per-orthant bijection from the cross-polytope onto the simplex.

    The positive endpoint of every axis stays put; the negative endpoint
    of the i-th axis (apex first, the rest in increasing order) goes to
    the barycentre of the first i simplex corners; the origin goes to
    the overall barycentre.
    """
    nv = g.n_vertices
    order = [a] + [v for v in range(nv) if v != a]
    whole = tuple(Fraction(1, nv) for _ in range(nv))

    def corner(v):
        return tuple(Fraction(1) if u == v else Fraction(0) for u in range(nv))

    plus_target = []
    minus_target = []
    for i in range(1, nv):
        plus_target.append(corner(order[i]))
        head = order[:i]
        minus_target.append(tuple(
            Fraction(1, i) if u in head else Fraction(0) for u in range(nv)))

    def phi(x):
        slack = 1 - sum(abs(c) for c in x)
        acc = [slack * w for w in whole]
        for j, c in enumerate(x):
            if c == 0:
                continue
            target = plus_target[j] if c > 0 else minus_target[j]
            mag = abs(c)
            for u in range(nv):
                acc[u] += mag * target[u]
        return tuple(acc)

    return phi


def _fraction_det(rows):
    denoms = []
    scaled = []
    for row in rows:
        d = lcm(*(f.denominator for f in row))
        denoms.append(d)
        scaled.append([int(f * d) for f in row])
    det = _int_det(scaled)
    out = Fraction(det)
    for d in denoms:
        out /= d
    return out


def _fraction_lemma(g, a):
    """The simplex subdivision on exact rational points: its complex, its
    colours and its coordinates, each point summing to 1."""
    c = SimplicialCellComplex.from_top_simplices(_lemma_tops(g, a))
    return SimpleNamespace(complex=c,
                           colours=tuple(lbl[1] for lbl in c.vertex_labels),
                           coords=tuple(lbl[0] for lbl in c.vertex_labels))


def _fraction_volumes(k):
    """Whether every top cell has a nonzero volume and the volumes add up
    to the whole simplex, from rational determinants."""
    total = Fraction(0)
    for verts in zip(*k.complex.vertex_columns[k.complex.n]):
        det = _fraction_det([list(k.coords[v]) for v in verts])
        if det == 0:
            return False
        total += abs(det)
    return total == 1


@pytest.fixture
def fraction_lemma_oracle():
    return SimpleNamespace(lemma=_fraction_lemma, volumes=_fraction_volumes,
                           det=_fraction_det)
