"""Face lattice, vectors, exact coordinates and the simplex projection."""

import gc
import random
import re
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest

from nestotope import errors
from nestotope.cellcomplex import ChainComplex, homology
from nestotope.errors import BudgetExceeded, ValidationError
from nestotope.graphs import (
    BuildingSet,
    Graph,
    complete_graph,
    connected_graph_representatives,
    cycle_graph,
    graph_building_set,
    bits_of,
    mask_of,
    path_graph,
    star_graph,
    validate_building_set,
)
from nestotope.nestohedron import (
    FacePoset,
    _det_sign,
    _flags,
    _int_det,
    all_vertex_coordinates,
    barycentric_complex,
    check_simple_and_flag,
    compatible,
    face_incidences,
    face_poset,
    face_vectors,
    minkowski_vertex_oracle,
    pi_degree,
    support_constant,
    vertex_coordinates,
)


def _poset(g):
    return face_poset(graph_building_set(g))


def test_support_constant():
    b = graph_building_set(path_graph(3))
    assert support_constant(b, mask_of([0])) == 1
    assert support_constant(b, mask_of([0, 1])) == 3
    assert support_constant(b, b.ground_mask) == 6
    # {0,2} is disconnected: only two singleton tubes inside
    assert support_constant(b, mask_of([0, 2])) == 2
    with pytest.raises(ValidationError):
        support_constant(b, 1 << 5)


def test_compatibility_relation():
    b = graph_building_set(path_graph(3))
    s0, s1, s01, s12 = (mask_of(x) for x in ([0], [1], [0, 1], [1, 2]))
    assert compatible(b, s0, s01)          # nested
    assert not compatible(b, s01, s12)     # overlapping
    assert not compatible(b, s0, s1)       # disjoint but union is a tube
    assert compatible(b, s0, mask_of([2]))  # disjoint, union not a tube
    with pytest.raises(ValidationError):
        compatible(b, s0, s0)
    with pytest.raises(ValidationError):
        compatible(b, s0, mask_of([0, 2]))


def test_face_counts_small():
    assert _poset(path_graph(3)).f_counts() == (1, 5, 5)       # pentagon
    assert _poset(complete_graph(3)).f_counts() == (1, 6, 6)   # hexagon
    assert _poset(path_graph(4)).f_counts() == (1, 9, 21, 14)
    assert _poset(complete_graph(4)).f_counts() == (1, 14, 36, 24)
    assert _poset(star_graph(4)).f_counts() == (1, 10, 24, 16)


def test_face_poset_rejects_non_graphical_input():
    # singletons plus the ground set satisfy the axioms but the clique
    # model only covers building sets coming from graphs: the three
    # singletons are pairwise compatible, one more than the dimension
    b = BuildingSet(3, [0b1, 0b10, 0b100, 0b111])
    with pytest.raises(ValidationError, match="found more pairwise "
                                              "compatible tubes than the dimension"):
        face_poset(b)
    # {0,1} and {1,2} overlap, so each alone is a maximal tubing
    with pytest.raises(ValidationError, match="maximal tubing smaller than "
                                              "the dimension"):
        face_poset(BuildingSet(3, [0b11, 0b110, 0b111]))
    with pytest.raises(ValidationError, match="ground"):
        face_poset(graph_building_set(Graph(3, [(0, 1)])))


_UNION = "union (0, 1, 2) of intersecting members (0, 1) and (1, 2) is missing"


@pytest.mark.parametrize("n, tubes, message", [
    # no singleton {1}: the cliques alone give f = (1, 4, 3)
    (3, [0b1, 0b11, 0b100, 0b110, 0b111], "missing singleton {1}"),
    # {0, 1} and {1, 2} meet, and {0, 1, 2} is missing
    (4, [0b1, 0b10, 0b100, 0b1000, 0b11, 0b110, 0b1111], _UNION),
], ids=["singleton", "union"])
def test_face_poset_refuses_what_is_not_a_building_set(n, tubes, message):
    b = BuildingSet(n, tubes)
    for check in (validate_building_set, face_poset):
        with pytest.raises(ValidationError) as refused:
            check(b)
        assert str(refused.value) == message


def test_face_poset_checks_the_union_before_the_singletons():
    # validate_building_set names the missing singleton {1} first; the
    # poset meets the union on its pass over pairs, before the levels
    with pytest.raises(ValidationError, match=re.escape(_UNION)):
        face_poset(BuildingSet(4, [0b1, 0b100, 0b1000, 0b11, 0b110, 0b1111]))


def test_face_budget_refuses_before_a_level_is_built(monkeypatch):
    # path:4 has f = (1, 9, 21, 14): 31 faces up to the edges, 45 in all
    b = graph_building_set(path_graph(4))
    monkeypatch.setattr(errors, "FACE_BUDGET", 30)
    with pytest.raises(BudgetExceeded) as refused:
        face_poset(b)
    assert str(refused.value) == "face poset needs 31 faces, over the 30 budget"
    assert (refused.value.count, refused.value.unit) == (31, "faces")
    monkeypatch.setattr(errors, "FACE_BUDGET", 45)
    assert face_poset(b).f_counts() == (1, 9, 21, 14)


def test_sums_budget_refuses_before_the_table_is_built(monkeypatch):
    # path:4's tubes and ground set strip down to 10 nonempty masks; with
    # the empty one, each holds a sum for each of the 14 vertices
    p = face_poset(graph_building_set(path_graph(4)))
    monkeypatch.setattr(errors, "SUMS_BUDGET", 153)
    with pytest.raises(BudgetExceeded) as refused:
        all_vertex_coordinates(p)
    assert str(refused.value) == ("vertex coordinates needs 154 mask sums, "
                                  "over the 153 budget")
    # one vertex needs one sum per mask
    assert len(vertex_coordinates(p, p.vertices[0])) == 4
    monkeypatch.setattr(errors, "SUMS_BUDGET", 154)
    assert len(all_vertex_coordinates(p)) == 14


def test_face_poset_levels_are_lexicographic():
    # face_incidences lists each face's facets in this order
    for k in range(2, 7):
        for g in connected_graph_representatives(k):
            for level in _poset(g).faces_by_size:
                assert all(a < b for a, b in zip(level, level[1:])), g


def test_check_simple_and_flag():
    assert check_simple_and_flag(_poset(path_graph(3)))
    p = _poset(path_graph(4))
    assert check_simple_and_flag(p)
    # drop a top face while keeping all its edges: the pairwise data still
    # spans the clique, so the rebuilt clique list disagrees with the store
    broken = FacePoset(p.b, [p.faces_by_size[0], p.faces_by_size[1],
                             p.faces_by_size[2], p.faces_by_size[3][1:]])
    assert not check_simple_and_flag(broken)
    # drop a middle-level face under a surviving top: subset closure breaks
    broken = FacePoset(p.b, [p.faces_by_size[0], p.faces_by_size[1],
                             p.faces_by_size[2][1:], p.faces_by_size[3]])
    assert not check_simple_and_flag(broken)
    # a face listed twice leaves the stored sets as they were, but not the
    # face counts: a doubled vertex, then a doubled facet
    q = _poset(path_graph(3))
    f0, f1, f2 = q.faces_by_size
    for levels, f in (([f0, f1, f2 + f2[:1]], (1, 5, 6)),
                      ([f0, f1 + f1[:1], f2], (1, 6, 5))):
        doubled = FacePoset(q.b, levels)
        assert doubled.f_counts() == f
        assert not check_simple_and_flag(doubled)


def _outcome(check, p):
    try:
        return check(p)
    except Exception as exc:  # a raise must meet a raise of the same type
        return type(exc)


def _mutated_posets(p):
    """``(poset, verdict)`` for ``p`` broken at each level in the ways a
    hand-built face list can go wrong: a face dropped, listed twice,
    unsorted, with a repeated index, or taken from the level above (a
    3-tuple in level 2) or below (an empty tuple in level 1).  Each is
    refused; a face listed twice leaves the stored sets as they were, and
    is refused by its level's length."""
    levels = p.faces_by_size

    def at(k, level):
        return FacePoset(p.b, levels[:k] + (tuple(level),) + levels[k + 1:])

    for k, level in enumerate(levels):
        for drop in range(len(level)):
            yield at(k, level[:drop] + level[drop + 1:]), False
        yield at(k, level + level[:1]), False
        if k >= 2:
            yield at(k, level + (level[0][::-1],)), False
            yield at(k, level + ((level[0][0],) + level[0][:-1],)), False
        if k + 1 < len(levels):
            yield at(k, level + levels[k + 1][:1]), False
        if k >= 1:
            yield at(k, level + levels[k - 1][:1]), False


def test_check_simple_and_flag_matches_oracle(flag_check_oracle):
    graphs = [complete_graph(6)]
    for k in range(1, 6):
        graphs.extend(connected_graph_representatives(k))
    for g in graphs:
        p = _poset(g)
        assert check_simple_and_flag(p) is flag_check_oracle(p) is True, g
    for g in (path_graph(4), complete_graph(4)):
        for q, verdict in _mutated_posets(_poset(g)):
            assert _outcome(check_simple_and_flag, q) is verdict
            assert _outcome(flag_check_oracle, q) is verdict


def test_check_simple_and_flag_refuses_indexes_out_of_range():
    # path:3 has m = 5 proper tubes; the former check raises on these
    p = _poset(path_graph(3))
    f0, f1, f2 = p.faces_by_size
    assert len(p.b.proper_tubes) == 5
    for levels in ([f0, f1 + ((5,),), f2], [f0, f1 + ((-1,),), f2],
                   [f0, f1, f2 + ((0, 5),)], [f0, f1, f2 + ((-1, 0),)]):
        assert check_simple_and_flag(FacePoset(p.b, levels)) is False


def test_face_vectors_pentagon_hexagon():
    fv = face_vectors(_poset(path_graph(3)))
    assert (fv.f, fv.h, fv.gamma) == ((1, 5, 5), (1, 3, 1), (1, 1))
    fv = face_vectors(_poset(complete_graph(3)))
    assert (fv.f, fv.h, fv.gamma) == ((1, 6, 6), (1, 4, 1), (1, 2))
    fv = face_vectors(_poset(path_graph(4)))
    assert (fv.h, fv.gamma) == ((1, 6, 6, 1), (1, 3))
    fv = face_vectors(_poset(complete_graph(4)))
    assert (fv.h, fv.gamma) == ((1, 11, 11, 1), (1, 8))


def test_face_vectors_reject_bad_counts():
    p = _poset(path_graph(3))
    broken = FacePoset(p.b, [p.faces_by_size[0], p.faces_by_size[1][:-1],
                             p.faces_by_size[2]])
    with pytest.raises(ValidationError):
        face_vectors(broken)


def test_vertex_coordinates_pentagon():
    p = _poset(path_graph(3))
    coords = all_vertex_coordinates(p)
    assert len(coords) == 5
    total = len(p.b.tubes)
    for point in coords.values():
        assert sum(point) == total
    assert (1, 2, 3) in set(coords.values())
    with pytest.raises(ValidationError):
        vertex_coordinates(p, (0, 1))  # not a face of full size


def test_vertices_match_minkowski_oracle():
    graphs = [path_graph(3), complete_graph(3), path_graph(4),
              star_graph(4), cycle_graph(4), complete_graph(4),
              path_graph(6), complete_graph(6)]
    for k in range(2, 6):
        graphs.extend(connected_graph_representatives(k))
    for g in graphs:
        p = _poset(g)
        mine = {tuple(v) for v in all_vertex_coordinates(p).values()}
        assert mine == minkowski_vertex_oracle(p.b)


def test_hexagon_vertices_are_permutations():
    # complete graphs: every subset is a tube, so x_j = 2^(|T_j| - 1)
    for k in (3, 4):
        p = _poset(complete_graph(k))
        got = {tuple(v) for v in all_vertex_coordinates(p).values()}
        assert got == set(permutations([2 ** i for i in range(k)]))


def test_vertex_support_check_catches_tampering():
    p = _poset(path_graph(4))
    v = p.vertices[0]
    x = vertex_coordinates(p, v)
    proper = p.b.proper_tubes

    def tampered(idx, value):
        q = FacePoset(p.b, p.faces_by_size)
        q.support = p.support[:idx] + (value,) + p.support[idx + 1:]
        return q

    # a tube off the vertex whose support constant reaches its true sum
    off = next(i for i in range(len(proper)) if i not in v)
    total = sum(x[j] for j in bits_of(proper[off]))
    assert total > p.support[off]
    with pytest.raises(ValidationError, match="not strict off the vertex"):
        vertex_coordinates(tampered(off, total), v)
    # a tube of the vertex whose support constant no longer meets the point
    own = v[-1]
    assert sum(x[j] for j in bits_of(proper[own])) == p.support[own]
    with pytest.raises(ValidationError, match="vertex equations failed"):
        vertex_coordinates(tampered(own, p.support[own] + 1), v)
    with pytest.raises(ValidationError, match="not strict off the vertex"):
        pi_degree(tampered(off, total))


def test_vertex_check_words_the_first_failing_tube():
    # an own tube's equation and an off tube's inequality, broken alone or
    # together and each either way: the lower failing index words the error
    p = _poset(path_graph(4))
    proper = p.b.proper_tubes
    seen = set()
    for v in p.vertices:
        x = vertex_coordinates(p, v)
        offs = [i for i in range(len(proper)) if i not in v]
        for own, off, shift, excess in product((*v, None), (*offs, None),
                                               (1, -1), (0, 1)):
            if own is None and off is None:
                continue
            support = list(p.support)
            if own is not None:
                support[own] += shift
            if off is not None:
                support[off] = excess + sum(x[j] for j in bits_of(proper[off]))
            q = FacePoset(p.b, p.faces_by_size)
            q.support = tuple(support)
            first_is_own = off is None or (own is not None and own < off)
            seen.add((own is None, off is None, first_is_own))
            with pytest.raises(ValidationError, match=(
                    "vertex equations failed" if first_is_own
                    else "not strict off the vertex")):
                vertex_coordinates(q, v)
    assert seen == {(False, False, True), (False, False, False),
                    (True, False, False), (False, True, True)}


def test_vertex_coordinates_match_oracle(vertex_coordinates_oracle):
    graphs = [path_graph(6), complete_graph(6)]
    for k in range(1, 6):
        graphs.extend(connected_graph_representatives(k))
    for g in graphs:
        p = _poset(g)
        assert all_vertex_coordinates(p) == {
            v: vertex_coordinates_oracle(p, v) for v in p.vertices}, g


def _error(f, *args):
    try:
        f(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def _vertex_errors(vertex_coordinates_oracle, p, support, vertices):
    """The errors of ``all_vertex_coordinates`` and of the oracle, vertex
    by vertex, on ``p`` with the given supports and vertex list."""
    q = FacePoset(p.b, p.faces_by_size[:-1] + (tuple(vertices),))
    q.support = tuple(support)
    return (_error(all_vertex_coordinates, q),
            _error(lambda: {v: vertex_coordinates_oracle(q, v)
                            for v in vertices}))


def test_vertex_errors_match_oracle(vertex_coordinates_oracle):
    # two supports moved one either way, vertices in both orders
    for g in (path_graph(4), complete_graph(4), star_graph(4)):
        p = _poset(g)
        m = len(p.b.proper_tubes)
        for (t1, t2), d1, d2 in product(combinations(range(m), 2),
                                        (-1, 1), (-1, 1)):
            support = list(p.support)
            support[t1] += d1
            support[t2] += d2
            for vertices in (p.vertices, p.vertices[::-1]):
                mine, oracle = _vertex_errors(vertex_coordinates_oracle, p,
                                              support, vertices)
                assert mine == oracle is not None


def test_vertex_error_names_the_first_failing_vertex(
        vertex_coordinates_oracle):
    # Vertex a fails only on tube t2 and vertex b on tube t1 < t2, with the
    # other message: the error is the first vertex's, not the lower tube's.
    # A support moved down breaks only its own vertices' equations; one
    # moved up also breaks the off vertices whose sum then equals it.
    p = _poset(path_graph(4))
    proper = p.b.proper_tubes
    sums = {v: [sum(x[j] for j in bits_of(t)) for t in proper]
            for v, x in all_vertex_coordinates(p).items()}
    equations = "vertex equations failed to hold"
    strict = "support inequality not strict off the vertex's own tubes"

    def failure(v, t, c):
        if t in v:
            return equations if sums[v][t] != c else None
        return strict if sums[v][t] <= c else None

    pinned = {}
    for t1, t2 in combinations(range(len(proper)), 2):
        for d1, d2 in product((-1, 1), (-1, 1)):
            c1, c2 = p.support[t1] + d1, p.support[t2] + d2
            for a, b in permutations(p.vertices, 2):
                first_a = failure(a, t1, c1) or failure(a, t2, c2)
                first_b = failure(b, t1, c1)
                if (failure(a, t1, c1) is None and first_a and first_b
                        and first_a != first_b):
                    pinned.setdefault(first_a, (t1, t2, c1, c2, a, b))
    assert set(pinned) == {equations, strict}
    for t1, t2, c1, c2, a, b in pinned.values():
        support = list(p.support)
        support[t1], support[t2] = c1, c2
        for first, second in ((a, b), (b, a)):
            want = failure(first, t1, c1) or failure(first, t2, c2)
            assert _vertex_errors(vertex_coordinates_oracle, p, support,
                                  (first, second)) == (want, want)


def test_barycentric_complex_of_pentagon():
    bar = barycentric_complex(_poset(path_graph(3)))
    # one bar vertex per face, one triangle per complete face chain
    assert bar.cell_counts() == (11, 20, 10)
    assert bar.euler_characteristic() == 1
    assert bar.validate()


@pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5)],
                         ids=["path:5", "cycle:5"])
def test_barycentric_complex_leaves_no_garbage_cycles(g):
    # every object the build makes is freed by its reference count: with
    # the cycle collector off, a collection right after finds nothing
    p = _poset(g)
    gc.collect()
    gc.disable()
    try:
        barycentric_complex(p)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _forced_key(nv):
    """The image flag ``pi_degree`` reads, as the walk keys it: the ground
    set's own order, uncovering {0}, {0, 1}, ..., the ground set."""
    return tuple((2 << i) - 1 for i in range(nv))


def test_projection_degree_is_one(signed_flag_oracle):
    # the walk over every nondegenerate chain finds every ordering of the
    # ground set as an image flag, each of local degree 1; pi_degree reads
    # the one chain over the first flag and must give the walk's value
    graphs = [path_graph(7), complete_graph(7)]
    for k in range(2, 7):
        graphs.extend(connected_graph_representatives(k))
    for g in graphs:
        p = _poset(g)
        acc = signed_flag_oracle(p, all_vertex_coordinates(p))
        assert len(acc) == factorial(g.n_vertices), g
        assert set(acc.values()) == {1}, g
        assert pi_degree(p) == acc[_forced_key(g.n_vertices)] == 1, g


def _leibniz_det(a):
    n = len(a)
    return sum((-1) ** sum(s[i] > s[j] for i, j in combinations(range(n), 2))
               * prod(a[i][s[i]] for i in range(n))
               for s in permutations(range(n)))


def test_int_det_matches_leibniz():
    # pi_degree decides the degree with one determinant.  Seeded integer
    # matrices of size 1 to 6, in turn: plain; with the first column zero
    # above the last row, so the first pivot search swaps rows; singular,
    # the last row being the sum of the first and the one before it (zero
    # at size 1)
    rng = random.Random(51)
    swapped = singular = 0
    for size in range(1, 7):
        for trial in range(90):
            a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            if trial % 3 == 1:
                for row in a[:-1]:
                    row[0] = 0
            elif trial % 3 == 2:
                a[-1] = ([x + y for x, y in zip(a[0], a[-2])] if size > 1
                         else [0])
            det = _int_det(a)
            assert det == _leibniz_det(a), a
            swapped += size > 1 and trial % 3 == 1 and det != 0
            singular += det == 0
    assert swapped > 100 and singular > 200


def _every_chain_flag_counts(p, coords):
    """The signed flag count by brute force: every complete chain of
    ``_flags``, its degenerate ones dropped afterwards, each barycentre
    summed over all vertices, and both signs from full determinants: the
    source chain's of its barycentres, the image flag's of its 0/1 rows."""
    proper = p.b.proper_tubes
    nv = p.b.n_vertices
    bary = {}

    def barycentre(face):
        if face not in bary:
            pts = [coords[v] for v in p.vertices if set(face) <= set(v)]
            bary[face] = tuple(sum(pt[j] for pt in pts) for j in range(nv))
        return bary[face]

    def uncovered(face):
        covered = 0
        for i in face:
            covered |= proper[i]
        return p.b.ground_mask & ~covered

    acc = {}
    for flag in _flags(p):
        key = tuple(uncovered(face) for face in flag)
        if any(m.bit_count() != i + 1 for i, m in enumerate(key)):
            continue
        image = _det_sign([[(m >> j) & 1 for j in range(nv)] for m in key])
        acc[key] = acc.get(key, 0) + image * _det_sign(
            [barycentre(face) for face in flag])
    return acc


def test_signed_flag_counts_match_every_chain(signed_flag_oracle):
    graphs = [complete_graph(6)]
    for k in range(2, 6):
        graphs.extend(connected_graph_representatives(k))
    for g in graphs:
        p = _poset(g)
        coords = all_vertex_coordinates(p)
        assert signed_flag_oracle(p, coords) == _every_chain_flag_counts(
            p, coords), g


def test_signed_flag_keys_are_orderings_of_the_ground_set(signed_flag_oracle):
    # the walk's keys are compared by count with the orderings of the ground
    # set; the two agree because each key is a nested chain of masks of
    # sizes 1 to n_vertices ending at the ground set
    for k in range(2, 6):
        for g in connected_graph_representatives(k):
            p = _poset(g)
            for key in signed_flag_oracle(p, all_vertex_coordinates(p)):
                assert [m.bit_count() for m in key] == list(range(1, k + 1))
                assert all(a & ~b == 0 for a, b in zip(key, key[1:]))
                assert key[-1] == p.b.ground_mask


def _drop_vertices(p, drop):
    """``p`` without the vertices at positions ``drop``, and without every
    face that no remaining vertex contains."""
    keep = [v for i, v in enumerate(p.vertices) if i not in drop]
    levels = [tuple(f for f in level if any(set(f) <= set(v) for v in keep))
              for level in p.faces_by_size[:-1]]
    return FacePoset(p.b, levels + [tuple(keep)])


def test_pi_degree_guards(signed_flag_oracle):
    # pi_degree reads one chain, so it first checks its premise: p.b is a
    # building set and every level lists its tubings, each once, and
    # nothing else.  The walk over every chain refused each tamper below
    # too; each comment gives the walk's refusal.
    def face(f):
        return re.escape(str(f))

    p = _poset(path_graph(3))
    f0, f1, f2 = p.faces_by_size
    # walk: IndexError, reading the vertices
    with pytest.raises(ValidationError,
                       match="face poset has 2 levels, not 3"):
        pi_degree(FacePoset(p.b, [f0, f1]))
    # walk: face (0,) under a vertex is missing
    with pytest.raises(ValidationError,
                       match=r"face \(0,\) is missing from the face poset"):
        pi_degree(FacePoset(p.b, [f0, f1[1:], f2]))
    # walk: face () under a facet is missing
    with pytest.raises(ValidationError,
                       match=r"face \(\) is missing from the face poset"):
        pi_degree(FacePoset(p.b, [(), f1, f2]))
    # walk: degenerate source flag with nondegenerate image
    with pytest.raises(ValidationError, match=f"face {face(f2[0])} is missing"):
        pi_degree(FacePoset(p.b, [f0, f1, f2[1:]]))
    # walk: misses some full flags (two vertices and their edge dropped)
    dropped = _drop_vertices(p, (2, 3))
    edge = next(f for f in f1 if f not in dropped.face_sets[1])
    with pytest.raises(ValidationError, match=f"face {face(edge)} is missing"):
        pi_degree(dropped)
    # walk: local degrees disagree: [1, 2]
    with pytest.raises(ValidationError,
                       match=f"face {face(f2[0])} is stored twice"):
        pi_degree(FacePoset(p.b, [f0, f1, f2 + f2[:1]]))
    # walk: face with no vertices
    gone = next(v for v in f2 if 0 in v)
    with pytest.raises(ValidationError, match=f"face {face(gone)} is missing"):
        pi_degree(FacePoset(p.b, [f0, f1, tuple(v for v in f2 if 0 not in v)]))
    # walk (all_vertex_coordinates): vertex equations failed to hold.
    # {0} and {1,2} are not compatible, so (0, 4) is no vertex
    assert p.b.proper_tubes[0] | p.b.proper_tubes[4] == p.b.ground_mask
    with pytest.raises(ValidationError,
                       match=r"stored face \(0, 4\) is no tubing"):
        pi_degree(FacePoset(p.b, [f0, f1, f2 + ((0, 4),)]))
    q = _poset(path_graph(4))
    g0, g1, g2, g3 = q.faces_by_size
    proper = q.b.proper_tubes
    covering = next((i, j) for i in range(len(proper))
                    for j in range(i + 1, len(proper))
                    if proper[i] | proper[j] == q.b.ground_mask)
    covered = FacePoset(q.b, [g0, g1, g2 + (covering,), g3])
    # walk: tubing covers the whole ground set
    with pytest.raises(ValidationError,
                       match=f"stored face {face(covering)} is no tubing"):
        pi_degree(covered)
    with pytest.raises(ValidationError, match="covers the whole ground set"):
        signed_flag_oracle(covered, all_vertex_coordinates(covered))
    # each face of the chain pi_degree reads, dropped alone: on path:4 the
    # face with k tubes holds the intervals ending at 3 of lengths 1 to k
    for k in range(q.dim + 1):
        chain_face = tuple(sorted(q.b.proper_index[mask_of(range(j, 4))]
                                  for j in range(4 - k, 4)))
        levels = list(q.faces_by_size)
        levels[k] = tuple(f for f in levels[k] if f != chain_face)
        with pytest.raises(ValidationError,
                           match=f"face {face(chain_face)} is missing"):
            pi_degree(FacePoset(q.b, levels))
    # walk: misses some full flags.  These tubes miss the singleton {1}, so
    # they are no building set, though every maximal clique has full size
    b = BuildingSet(3, [0b001, 0b011, 0b100, 0b110, 0b111])
    with pytest.raises(ValidationError, match=r"missing singleton \{1\}"):
        pi_degree(face_poset(b))


def _refusal(check, *args):
    try:
        check(*args)
    except ValidationError as refused:
        return str(refused)
    return None


def test_pi_degree_refuses_what_the_enumeration_refuses():
    # pi_degree leaves the building-set axioms to its fresh enumeration.
    # Over every tube family holding the ground set on at most 3 elements,
    # it refuses each family validate_building_set refuses, and it accepts
    # a family exactly when face_poset does, refusing the others with
    # face_poset's message; a poset face_poset will not build is built by
    # hand from the pairwise compatible tubes.  The simplex's building set
    # on 3 elements is refused by both, as its three singletons are
    # pairwise compatible: the clique model covers flag nestohedra only.
    seen = {"refused": 0, "degree 1": 0}
    for n in range(1, 4):
        ground = (1 << n) - 1
        for bits in range(1 << ground - 1):
            b = BuildingSet(n, [ground] + [t for t in range(1, ground)
                                           if bits >> (t - 1) & 1])
            axioms = _refusal(validate_building_set, b)
            enumerated = _refusal(face_poset, b)
            if enumerated is None:
                assert axioms is None and pi_degree(face_poset(b)) == 1, b
                seen["degree 1"] += 1
                continue
            proper = b.proper_tubes
            p = FacePoset(b, [
                [f for f in combinations(range(len(proper)), k)
                 if all(compatible(b, proper[i], proper[j])
                        for i, j in combinations(f, 2))]
                for k in range(n)])
            assert _refusal(pi_degree, p) == enumerated, b
            seen["refused"] += 1
            assert axioms is not None or b.tubes == (1, 2, 4, 7), b
    assert seen == {"refused": 60, "degree 1": 9}


def test_gamma_vector_nonnegative_small():
    for k in range(2, 6):
        for g in connected_graph_representatives(k):
            fv = face_vectors(_poset(g))
            assert fv.h == fv.h[::-1]
            assert all(c >= 0 for c in fv.gamma)


def test_face_incidences_square_to_zero():
    # [F : G] [G : H] summed over the two faces G between F and H is 0 over Z
    for k in range(2, 6):
        for g in connected_graph_representatives(k):
            p = _poset(g)
            inc = p.incidences
            for face in (f for level in p.faces_by_size[:p.dim] for f in level):
                facets = inc[face]
                assert [G for G, _ in facets] == sorted(
                    G for G in p.faces_by_size[len(face) + 1]
                    if set(face) < set(G))
                assert all(sign in (1, -1) for _, sign in facets)
                square = {}
                for G, s in facets:
                    for H, t in inc.get(G, ()):
                        square[H] = square.get(H, 0) + s * t
                assert not any(square.values())
            assert set(inc) == {f for level in p.faces_by_size[:p.dim]
                                for f in level}


def test_polytope_cells_form_a_ball():
    # the incidences alone give the homology of a point
    for k in range(2, 6):
        for g in connected_graph_representatives(k):
            p = _poset(g)
            n = p.dim
            ids = [{face: i for i, face in enumerate(p.faces_by_size[n - d])}
                   for d in range(n + 1)]
            boundaries = [{}]
            for d in range(1, n + 1):
                boundaries.append({(ids[d - 1][facet], col): sign
                                   for face, col in ids[d].items()
                                   for facet, sign in p.incidences[face]})
            prof = homology(ChainComplex(p.f_counts()[::-1], boundaries))
            assert prof.betti_q == (1,) + (0,) * n
            assert prof.torsion == ((),) * (n + 1)


def test_face_incidences_refuse_a_missing_face():
    p = _poset(path_graph(3))
    f0, f1, f2 = p.faces_by_size
    above = next(v for v in f2 if 0 in v)
    with pytest.raises(ValidationError, match=re.escape(
            f"face (0,) under face {above} is missing from the face poset")):
        face_incidences(FacePoset(p.b, [f0, f1[1:], f2]))
    with pytest.raises(ValidationError, match=re.escape(
            "face () under face (0,) is missing from the face poset")):
        face_incidences(FacePoset(p.b, [(), f1, f2]))


def test_face_incidences_refuse_an_edge_with_one_end():
    p = _poset(path_graph(3))
    faces = list(p.faces_by_size)
    faces[2] = faces[2][1:]
    with pytest.raises(ValidationError, match="two ends"):
        face_incidences(FacePoset(p.b, faces))
