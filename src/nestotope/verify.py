"""The verification catalogue: the package's checkable claims as suites.

Each suite takes ``max_n``, the largest polytope dimension to reach, and
returns a list of (label, ok, detail) items; the detail carries the
computed values the item was decided on.  ``SUITES`` names them in the
order ``nestotope verify --suite all`` prints them, and the acceptance
tests assert the same items.  Every check is exact.  The strict chain of
cover totals is the paper's claim from dimension 4 up; at n = 3 the
middle total equals 4! and the item pins the exact values instead.

>>> [(label, ok) for label, ok, _ in SUITES["facet-counts"](2)]
[('facet counts n=1', True), ('facet counts n=2', True)]
"""

from itertools import permutations
from math import comb, factorial, prod

from .graphs import (
    Graph,
    complete_graph,
    connected_graph_representatives,
    cycle_graph,
    graph_building_set,
    path_graph,
    path_order,
    star_graph,
)
from .nestohedron import (
    all_vertex_coordinates,
    face_poset,
    face_vectors,
    minkowski_vertex_oracle,
    pi_degree,
)
from .cellcomplex import orient, simplex_sphere, torus7
from .smallcover import (
    betti_z2_matches_h,
    cover_betti_match,
    enumerate_characteristics,
    is_orientable_smallcover,
    lambda_can,
    lambda_star_as3,
    lambda_tomei,
    orientation_cover_via_eta,
    small_cover,
)
from .subdivision import (
    condition_star_check,
    lemma_subdivision,
    subdivide_pseudomanifold,
    verify_lemma_conditions,
)
from .realization import realize
from . import formulas as fm


def _narayana(n):
    return tuple(comb(n + 1, i) * comb(n + 1, i + 1) // (n + 1)
                 for i in range(n + 1))


def _labeled_connected(k):
    """Every connected graph on vertices 0..k-1, no symmetry reduction."""
    if k == 1:
        return [Graph(1, [])]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = []
    for bits in range(1, 1 << len(pairs)):
        g = Graph(k, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        if g.is_connected():
            out.append(g)
    return out


def _geometrically_orientable(m):
    return orient(m.complex).orientation != "non-orientable"


def _suite_facet_counts(max_n):
    out = []
    for n in range(1, min(max_n, 8) + 1):
        paths = len(graph_building_set(path_graph(n + 1)).proper_tubes)
        full = len(graph_building_set(complete_graph(n + 1)).proper_tubes)
        ok = paths == n * (n + 3) // 2 and full == 2 ** (n + 1) - 2
        out.append((f"facet counts n={n}", ok, f"path {paths}, complete {full}"))
    return out


def _suite_h_vectors(max_n):
    out = []
    for n in range(1, min(max_n, 6) + 1):
        h = face_vectors(face_poset(graph_building_set(path_graph(n + 1)))).h
        out.append((f"path h-vector n={n}", h == _narayana(n), str(h)))
    for n in range(1, min(max_n, 5) + 1):
        h = face_vectors(face_poset(graph_building_set(complete_graph(n + 1)))).h
        want = tuple(fm.eulerian(n + 1, i) for i in range(n + 1))
        out.append((f"complete h-vector n={n}", h == want, str(h)))
    return out


def _suite_h_dominance(max_n):
    out = []
    for k in range(2, min(max_n + 1, 6) + 1):
        n = k - 1
        base = _narayana(n)
        ok = True
        reps = connected_graph_representatives(k)
        detail = f"checked {len(reps)} classes"
        for g in reps:
            h = face_vectors(face_poset(graph_building_set(g))).h
            dominated = all(h[i] >= base[i] for i in range(n + 1))
            tight = h == base
            if not dominated or tight != (path_order(g) is not None):
                ok = False
                detail = f"violated by {g!r}"
                break
        out.append((f"h dominance on {k} vertices", ok, detail))
    return out


def _vertices(p):
    return {tuple(v) for v in all_vertex_coordinates(p).values()}


def _suite_minkowski(max_n):
    out = []
    for k in range(2, min(max_n, 3) + 2):
        posets = ((g, face_poset(graph_building_set(g)))
                  for g in connected_graph_representatives(k))
        bad = next((g for g, p in posets
                    if _vertices(p) != minkowski_vertex_oracle(p.b)), None)
        out.append((f"vertex oracle on {k} vertices", bad is None,
                    "" if bad is None else f"mismatch on {bad!r}"))
    verts = _vertices(face_poset(graph_building_set(complete_graph(3))))
    out.append(("hexagon vertices are the arrangements of 1,2,4",
                verts == set(permutations((1, 2, 4))), str(sorted(verts))))
    return out


def _degree(g):
    return pi_degree(face_poset(graph_building_set(g)))


def _suite_degree(max_n):
    out = []
    for k in range(2, min(max_n, 5) + 2):
        degrees = {_degree(g) for g in connected_graph_representatives(k)}
        out.append((f"projection degree on {k} vertices",
                    degrees == {1}, f"degrees {sorted(degrees)}"))
    if max_n >= 6:
        degrees = {name: _degree(make(7)) for name, make in (
            ("path", path_graph), ("cycle", cycle_graph),
            ("star", star_graph), ("complete", complete_graph))}
        out.append(("projection degree on the 7-vertex path, cycle, star "
                    "and complete graph", set(degrees.values()) == {1},
                    ", ".join(f"{name} {d}" for name, d in degrees.items())))
    return out


def _suite_h_vs_z2(max_n):
    out = []
    for k in range(2, min(max_n, 4) + 2):
        sets = ((g, graph_building_set(g))
                for g in connected_graph_representatives(k))
        bad = next((g for g, b in sets
                    if not betti_z2_matches_h(face_poset(b), lambda_can(b))), None)
        out.append((f"mod-2 homology equals h, {k} vertices", bad is None,
                    "" if bad is None else f"canonical matrix fails on {bad!r}"))
    if max_n >= 3:
        p = face_poset(graph_building_set(complete_graph(4)))
        out.append(("mod-2 homology equals h, complete 4-vertex gluing",
                    betti_z2_matches_h(p, lambda_tomei(3)), ""))
        lam = lambda_star_as3()
        p = face_poset(lam.b)
        out.append(("mod-2 homology equals h, orientable path gluing",
                    betti_z2_matches_h(p, lam), ""))
    return out


def _suite_glued_homology(max_n):
    out = []
    bh = graph_building_set(complete_graph(3))
    ph = face_poset(bh)
    m = small_cover(ph, lambda_tomei(2))
    prof = m.homology()
    out.append(("hexagon gluing is the orientable genus-2 surface",
                prof.betti_q == (1, 4, 1)
                and is_orientable_smallcover(lambda_tomei(2))
                and _geometrically_orientable(m),
                str(prof.betti_q)))
    profh = small_cover(ph, lambda_can(bh)).homology()
    got = orientation_cover_via_eta(ph, lambda_can(bh)).homology().betti_q
    out.append(("hexagon canonical gluing and its cover",
                profh.betti_q == (1, 3, 0)
                and profh.betti_q == fm.betti_hessenberg(2)
                and sum(got) == fm.hessenberg_cover_total(2)
                and cover_betti_match(profh.betti_q, got),
                f"{profh.betti_q} -> {got}"))
    bp = graph_building_set(path_graph(3))
    pp = face_poset(bp)
    profp = small_cover(pp, lambda_can(bp)).homology()
    gotp = orientation_cover_via_eta(pp, lambda_can(bp)).homology().betti_q
    out.append(("pentagon canonical gluing and its cover",
                profp.betti_q == (1, 2, 0)
                and profp.betti_q == fm.betti_as_can(2)
                and gotp == (1, 4, 1)
                and sum(gotp) == fm.as_cover_total(2) == 6
                and cover_betti_match(profp.betti_q, gotp),
                f"{profp.betti_q} -> {gotp}"))
    if max_n >= 3:
        pt = face_poset(graph_building_set(complete_graph(4)))
        proft = small_cover(pt, lambda_tomei(3)).homology()
        out.append(("complete 4-vertex gluing homology",
                    proft.betti_q == (1, 11, 11, 1)
                    and proft.betti_q == fm.betti_tomei(3),
                    str(proft.betti_q)))
    return out


def _suite_orientability(max_n):
    out = []
    b = graph_building_set(path_graph(3))
    p = face_poset(b)
    lams = enumerate_characteristics(p)
    agree = not any(is_orientable_smallcover(lam)
                    or _geometrically_orientable(small_cover(p, lam))
                    for lam in lams)
    out.append(("all 30 pentagon matrices glue non-orientably",
                len(lams) == 30 and agree, f"{len(lams)} matrices"))
    bh = graph_building_set(complete_graph(3))
    hexagon = face_poset(bh)
    builds = [(hexagon, lambda_tomei(2)), (p, lambda_can(b)),
              (hexagon, lambda_can(bh))]
    if max_n >= 3:
        lam = lambda_star_as3()
        m3 = small_cover(face_poset(lam.b), lam)
        out.append(("hand-picked path matrix glues orientably",
                    is_orientable_smallcover(lam)
                    and _geometrically_orientable(m3), ""))
        builds += [(face_poset(graph_building_set(complete_graph(4))),
                    lambda_tomei(3)), (face_poset(lam.b), lam)]
    for k in range(2, min(max_n, 3) + 2):
        for g in connected_graph_representatives(k):
            bg = graph_building_set(g)
            builds.append((face_poset(bg), lambda_can(bg)))
    ok = True
    for pb, lam in builds:
        m = small_cover(pb, lam)
        top = m.homology().betti_q[m.complex.n]
        ok = ok and (is_orientable_smallcover(lam) == (top == 1)
                     == _geometrically_orientable(m))
    out.append(("orientability criterion matches the homology oracle", ok, ""))
    return out


def _suite_lemma(max_n):
    """The lemma's certificate at every apex of every labelled connected
    graph on 1 to 4 vertices and, from ``max_n`` 4, of every class on 5.
    A class answers for its labellings, as the lemma asks for a subdivision
    to exist: permuting the coordinates and colours of one certified for g
    by an isomorphism s onto h keeps the complex, rainbow tops, zero
    coordinates (the apex colour stays interior), distinct points, absolute
    volumes and non-adjacent missing pairs, so it is certified for h at
    s(apex).  (The build itself does not commute with relabelling.)"""
    out = []
    sizes = [(k, _labeled_connected(k), "")
             for k in range(1, min(max_n + 1, 4) + 1)]
    if max_n >= 4:
        classes = connected_graph_representatives(5)
        sizes.append((5, classes, f"{len(classes)} classes, "))
    for k, graphs, counted in sizes:
        runs = [(g, a) for g in graphs for a in range(k)]
        failure = next((f"{g!r} apex {a}: {cert.failures[:1]}" for g, a in runs
                        if not (cert := verify_lemma_conditions(
                            lemma_subdivision(g, a), g, a)).ok), "")
        out.append((f"simplex subdivision certificates, {k} vertices",
                    not failure, failure or f"{counted}{len(runs)} runs"))
    k = lemma_subdivision(path_graph(3), 1)
    tops = k.complex.n_cells(2)
    apexv = [v for v in range(k.complex.n_cells(0))
             if k.colours[v] == 1 and all(x != 0 for x in k.coords[v])]
    cof = sum(1 for verts in zip(*k.complex.vertex_columns[2])
              if apexv[0] in verts)
    out.append(("3-path, middle apex: four triangles around the centre",
                tops == 4 and len(apexv) == 1 and cof == 4,
                f"{tops} triangles, {cof} cofacets"))
    return out


def _suite_star(max_n):
    out = []
    cases = []
    if max_n >= 3:
        cases.append(("3-sphere with the 4-star", simplex_sphere(3), star_graph(4)))
        cases.append(("3-sphere with the 4-path", simplex_sphere(3), path_graph(4)))
        cases.append(("3-sphere with the 4-cycle", simplex_sphere(3), cycle_graph(4)))
    if max_n >= 4:
        cases.append(("4-sphere with the 5-star", simplex_sphere(4), star_graph(5)))
        cases.append(("4-sphere with the 5-path", simplex_sphere(4), path_graph(5)))
    cases.append(("7-vertex torus with the 3-path", torus7(), path_graph(3)))
    for label, z, g in cases:
        y = subdivide_pseudomanifold(z, g)
        cert = condition_star_check(y, g)
        out.append((f"four-cofacet condition on {label}", cert.ok,
                    f"{cert.cells_checked} cells checked"))
    return out


def _suite_realization(max_n):
    out = []
    cert = realize(simplex_sphere(1), path_graph(2))
    ok = (cert.r == 6 and cert.s == 2 and cert.mode == "full"
          and all(cert.checks.values()))
    out.append(("circle with the 2-path: full certificate",
                ok, f"r={cert.r} s={cert.s} mode={cert.mode}"))
    if max_n >= 3:
        cert2 = realize(simplex_sphere(3), path_graph(4))
        ok2 = (cert2.mode in ("full", "sampled")
               and all(cert2.checks.values())
               and cert2.s == 2 ** (cert2.m - 1) * prod(cert2.i_sizes.values()))
        out.append(("3-sphere with the 4-path: certificate within budget",
                    ok2, f"r={cert2.r} s={cert2.s} mode={cert2.mode}"))
    if max_n >= 4:
        cert3 = realize(simplex_sphere(4), path_graph(5))
        ok3 = (all(cert3.checks.values())
               and cert3.s == 2 ** (cert3.m - 1) * prod(cert3.i_sizes.values()))
        out.append(("4-sphere with the 5-path: exact certificate",
                    ok3, f"r={cert3.r} s={cert3.s} m={cert3.m}"))
    if max_n >= 5:
        cert5 = realize(simplex_sphere(5), path_graph(6))
        ok5 = (all(cert5.checks.values())
               and cert5.s == 2 ** (cert5.m - 1) * prod(cert5.i_sizes.values()))
        out.append(("5-sphere with the 6-path: exact certificate",
                    ok5, f"r={cert5.r} s={cert5.s} m={cert5.m}"))
    return out


def _suite_formulas(max_n):
    out = []
    ok = all(fm.eulerian(m, k) == fm.eulerian_brute(m, k)
             for m in range(1, 9) for k in range(m))
    out.append(("ascent counts match enumeration through length 8", ok, ""))
    ok = all(fm.zigzag(m) == fm.zigzag_brute(m) for m in range(10))
    out.append(("alternating counts match enumeration through length 9", ok, ""))
    if max_n >= 3:
        # the middle total equals 4! here, so the chain is not strict yet
        totals = (fm.as_cover_total(3), fm.hessenberg_cover_total(3),
                  factorial(4))
        out.append(("total Betti chain at n=3 is 12 < 24 = 4!",
                    totals == (12, 24, 24) and not fm.check_inequality_chain(3),
                    str(totals)))
    for n in range(4, min(max_n, 10) + 1):
        ok = fm.check_inequality_chain(n)
        out.append((f"total Betti chain strict at n={n}", ok,
                    f"{fm.as_cover_total(n)} < {fm.hessenberg_cover_total(n)}"
                    f" < {factorial(n + 1)}"))
    return out


SUITES = {
    "facet-counts": _suite_facet_counts,
    "h-vectors": _suite_h_vectors,
    "h-dominance": _suite_h_dominance,
    "minkowski": _suite_minkowski,
    "projection-degree": _suite_degree,
    "h-vs-z2betti": _suite_h_vs_z2,
    "glued-homology": _suite_glued_homology,
    "orientability": _suite_orientability,
    "lemma-certificates": _suite_lemma,
    "star-condition": _suite_star,
    "realization": _suite_realization,
    "formulas": _suite_formulas,
}
