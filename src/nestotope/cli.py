"""Command-line entry point and the cross-module verification suites.

Subcommands build one artifact each (face report, glued manifold,
coloured subdivision, covering certificate, formula table) and emit
deterministic JSON or CSV.  ``verify`` runs named suites that replay
the package's checkable claims and prints one PASS/FAIL line per item.
Exit codes: 0 success, 1 failed verification, 2 invalid input, 3
budget refusal.
"""

import argparse
import csv
import json
import sys
from math import comb, factorial
from pathlib import Path

from .errors import BudgetExceeded, OMEGA_BUDGET, ValidationError
from .graphs import (
    Graph,
    complete_graph,
    connected_graph_representatives,
    graph_building_set,
    graph_from_spec,
    path_graph,
    path_order,
    star_graph,
)
from .nestohedron import (
    all_vertex_coordinates,
    check_simple_and_flag,
    face_poset,
    face_vectors,
    minkowski_vertex_oracle,
    pi_degree,
)
from .cellcomplex import (
    complex_to_json_dict,
    orient,
    pseudomanifold_from_spec,
    simplex_sphere,
    torus7,
)
from .smallcover import (
    betti_z2_matches_h,
    cover_betti_match,
    enumerate_characteristics,
    is_orientable_smallcover,
    lambda_can,
    lambda_from_spec,
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
from .realization import certificate_to_json_dict, realize
from . import formulas as fm

SCHEMA = "nestotope/1"


def _emit_path(text):
    if text is None:
        return None
    path = Path(text)
    if not path.parent.exists():
        raise ValidationError(f"emit directory does not exist: {path.parent}")
    return path


def _apex(text):
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise ValidationError(
            f"apex must be 'auto' or a vertex number, got {text!r}") from exc


def _budget(text):
    try:
        budget = int(float(text))
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"budget must be a finite number, got {text!r}") from exc
    if budget <= 0:
        raise ValidationError("budget must be positive")
    return budget


def _write_json(path, payload):
    text = json.dumps(payload, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


# ---------------------------------------------------------------------------
# Artifact subcommands.


def _cmd_poset(args):
    emit = _emit_path(args.emit)
    g = graph_from_spec(args.graph)
    p = face_poset(graph_building_set(g))
    if not check_simple_and_flag(p):
        raise ValidationError("face poset is not simple and flag")
    fv = face_vectors(p)
    coords = all_vertex_coordinates(p)
    report = {
        "schema": SCHEMA,
        "dims": [p.dim - k for k in range(p.dim + 1)],
        "f": list(fv.f),
        "h": list(fv.h),
        "gamma": list(fv.gamma),
        "vertices": [[str(x) for x in coords[v]] for v in p.vertices],
    }
    _write_json(emit, report)
    return 0


def _cmd_smallcover(args):
    emit = _emit_path(args.emit)
    g = graph_from_spec(args.graph)
    b = graph_building_set(g)
    p = face_poset(b)
    lam = lambda_from_spec(b, getattr(args, "lambda"))
    m = small_cover(p, lam)
    report = {
        "schema": SCHEMA,
        "rank": m.rank,
        "copies": m.n_copies(),
        "cells": list(m.complex.cell_counts()),
        "complex": complex_to_json_dict(m.complex),
    }
    if args.homology:
        prof = m.homology()
        report["homology"] = {
            "betti_q": list(prof.betti_q),
            "betti_z2": list(prof.betti_z2),
            "torsion": [list(t) for t in prof.torsion],
            "euler": prof.euler,
        }
    _write_json(emit, report)
    return 0


def _cmd_subdivide(args):
    emit = _emit_path(args.emit)
    z = pseudomanifold_from_spec(args.pseudomanifold)
    g = graph_from_spec(args.graph)
    apex = _apex(args.apex)
    y = subdivide_pseudomanifold(z, g, apex=apex)
    report = {
        "schema": SCHEMA,
        "mode": y.mode,
        "cells": list(y.complex.cell_counts()),
        "colours": list(y.colours),
        "complex": complex_to_json_dict(y.complex, orientation=y.orientation),
    }
    if args.certify:
        star = condition_star_check(y, g)
        report["certificate"] = {
            "star_ok": star.ok,
            "cells_checked": star.cells_checked,
            "failures": star.failures,
        }
        if y.mode == "substitution":
            k = lemma_subdivision(g, 0 if apex is None else apex)
            cert = verify_lemma_conditions(k, g, 0 if apex is None else apex)
            report["certificate"]["simplex_checks"] = cert.checks
            report["certificate"]["simplex_ok"] = cert.ok
    _write_json(emit, report)
    return 0


def _cmd_realize(args):
    emit = _emit_path(args.emit)
    budget = _budget(args.budget)
    z = pseudomanifold_from_spec(args.pseudomanifold)
    g = graph_from_spec(args.graph)
    apex = _apex(args.apex)
    cert = realize(z, g, budget=budget, apex=apex)
    _write_json(emit, certificate_to_json_dict(cert))
    return 0 if all(cert.checks.values()) else 1


def _cmd_formulas(args):
    emit = _emit_path(args.emit)
    table = fm.family_table(args.family, args.n)
    rows = table.csv_rows()
    if emit is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        with emit.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# Verification suites.  Each returns a list of (label, ok, detail).


def _suite_facet_counts(max_n):
    out = []
    for n in range(1, min(max_n, 8) + 1):
        paths = len(graph_building_set(path_graph(n + 1)).proper_tubes)
        full = len(graph_building_set(complete_graph(n + 1)).proper_tubes)
        ok = paths == n * (n + 3) // 2 and full == 2 ** (n + 1) - 2
        out.append((f"facet counts n={n}", ok, f"path {paths}, complete {full}"))
    return out


def _narayana(n):
    return tuple(comb(n + 1, i) * comb(n + 1, i + 1) // (n + 1)
                 for i in range(n + 1))


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


def _suite_minkowski(max_n):
    out = []
    for k in range(2, min(max_n, 3) + 2):
        ok = True
        detail = ""
        for g in connected_graph_representatives(k):
            p = face_poset(graph_building_set(g))
            mine = {tuple(v) for v in all_vertex_coordinates(p).values()}
            oracle = minkowski_vertex_oracle(p.b)
            if mine != oracle:
                ok = False
                detail = f"mismatch on {g!r}"
                break
        out.append((f"vertex oracle on {k} vertices", ok, detail))
    hexagon = face_poset(graph_building_set(complete_graph(3)))
    verts = {tuple(v) for v in all_vertex_coordinates(hexagon).values()}
    from itertools import permutations as _perms
    want = {p for p in _perms((1, 2, 4))}
    out.append(("hexagon vertices are the arrangements of 1,2,4",
                verts == want, str(sorted(verts))))
    return out


def _suite_degree(max_n):
    out = []
    for k in range(2, min(max_n, 4) + 2):
        degrees = set()
        for g in connected_graph_representatives(k):
            degrees.add(pi_degree(face_poset(graph_building_set(g))))
        out.append((f"projection degree on {k} vertices",
                    degrees == {1}, f"degrees {sorted(degrees)}"))
    return out


def _suite_h_vs_z2(max_n):
    out = []
    for k in range(2, min(max_n, 3) + 2):
        ok = True
        detail = ""
        for g in connected_graph_representatives(k):
            b = graph_building_set(g)
            p = face_poset(b)
            if not betti_z2_matches_h(p, lambda_can(b)):
                ok = False
                detail = f"canonical matrix fails on {g!r}"
                break
        out.append((f"mod-2 homology equals h, {k} vertices", ok, detail))
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
    ph = face_poset(graph_building_set(complete_graph(3)))
    m = small_cover(ph, lambda_tomei(2))
    prof = m.homology()
    out.append(("hexagon gluing is the orientable genus-2 surface",
                prof.betti_q == (1, 4, 1)
                and is_orientable_smallcover(lambda_tomei(2)),
                str(prof.betti_q)))
    mh = small_cover(ph, lambda_can(graph_building_set(complete_graph(3))))
    profh = mh.homology()
    coverh = orientation_cover_via_eta(
        ph, lambda_can(graph_building_set(complete_graph(3))))
    got = coverh.homology().betti_q
    out.append(("hexagon canonical gluing and its cover",
                profh.betti_q == (1, 3, 0)
                and profh.betti_q == fm.betti_hessenberg(2)
                and sum(got) == fm.hessenberg_cover_total(2)
                and cover_betti_match(profh.betti_q, got),
                f"{profh.betti_q} -> {got}"))
    bp = graph_building_set(path_graph(3))
    pp = face_poset(bp)
    mp = small_cover(pp, lambda_can(bp))
    profp = mp.homology()
    coverp = orientation_cover_via_eta(pp, lambda_can(bp))
    gotp = coverp.homology().betti_q
    out.append(("pentagon canonical gluing and its cover",
                profp.betti_q == (1, 2, 0)
                and profp.betti_q == fm.betti_as_can(2)
                and gotp == (1, 4, 1)
                and sum(gotp) == fm.as_cover_total(2) == 6
                and cover_betti_match(profp.betti_q, gotp),
                f"{profp.betti_q} -> {gotp}"))
    if max_n >= 3:
        pt = face_poset(graph_building_set(complete_graph(4)))
        mt = small_cover(pt, lambda_tomei(3))
        proft = mt.homology()
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
    ok = len(lams) == 30
    agree = True
    for lam in lams:
        m = small_cover(p, lam)
        geometric = orient(m.complex).orientation != "non-orientable"
        if geometric or is_orientable_smallcover(lam):
            agree = False
            break
    out.append(("all 30 pentagon matrices glue non-orientably",
                ok and agree, f"{len(lams)} matrices"))
    if max_n >= 3:
        lam = lambda_star_as3()
        p3 = face_poset(lam.b)
        m3 = small_cover(p3, lam)
        out.append(("hand-picked path matrix glues orientably",
                    is_orientable_smallcover(lam)
                    and orient(m3.complex).orientation != "non-orientable",
                    ""))
    checks = []
    for build in (lambda: (face_poset(graph_building_set(complete_graph(3))),
                           lambda_tomei(2)),
                  lambda: (face_poset(graph_building_set(path_graph(3))),
                           lambda_can(graph_building_set(path_graph(3))))):
        p4, lam4 = build()
        m4 = small_cover(p4, lam4)
        prof = m4.homology()
        n = m4.complex.n
        checks.append(is_orientable_smallcover(lam4)
                      == (prof.betti_q[n] == 1)
                      == (orient(m4.complex).orientation != "non-orientable"))
    out.append(("orientability criterion matches the homology oracle",
                all(checks), ""))
    return out


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


def _suite_lemma(max_n):
    out = []
    for k in range(1, min(max_n + 1, 4) + 1):
        ok = True
        detail = ""
        runs = 0
        for g in _labeled_connected(k):
            for a in range(k):
                cert = verify_lemma_conditions(lemma_subdivision(g, a), g, a)
                runs += 1
                if not cert.ok:
                    ok = False
                    detail = f"{g!r} apex {a}: {cert.failures[:1]}"
                    break
            if not ok:
                break
        out.append((f"simplex subdivision certificates, {k} vertices",
                    ok, detail or f"{runs} runs"))
    k = lemma_subdivision(path_graph(3), 1)
    tops = k.complex.n_cells(2)
    apexv = [v for v in range(k.complex.n_cells(0))
             if k.colours[v] == 1 and all(x != 0 for x in k.coords[v])]
    cof = sum(1 for verts in k.complex.vertices_of[2] if apexv[0] in verts)
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
        prod = 1
        for v in cert2.i_sizes.values():
            prod *= v
        ok2 = (all(cert2.checks.values())
               and cert2.s == 2 ** (cert2.m - 1) * prod)
        out.append(("3-sphere with the 4-path: certificate within budget",
                    ok2, f"r={cert2.r} s={cert2.s} mode={cert2.mode}"))
    return out


def _suite_formulas(max_n):
    out = []
    ok = all(fm.eulerian(m, k) == fm.eulerian_brute(m, k)
             for m in range(1, 9) for k in range(m))
    out.append(("ascent counts match enumeration through length 8", ok, ""))
    ok = all(fm.zigzag(m) == fm.zigzag_brute(m) for m in range(10))
    out.append(("alternating counts match enumeration through length 9", ok, ""))
    for n in range(3, min(max_n, 10) + 1):
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


def _cmd_verify(args):
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise ValidationError(
            f"unknown suite {args.suite!r}; pick one of "
            + ", ".join(sorted(SUITES) + ["all"]))
    failed = 0
    for name in names:
        for label, ok, detail in SUITES[name](args.max_n):
            mark = "PASS" if ok else "FAIL"
            line = f"{mark} [{name}] {label}"
            if detail:
                line += f" ({detail})"
            print(line)
            if not ok:
                failed += 1
    print(f"{'OK' if failed == 0 else 'FAILED'}: {failed} failing item(s)")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nestotope",
        description="Graph polytopes, glued manifolds, and covering certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("poset", help="face lattice and vertex report")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--emit")
    sp.set_defaults(func=_cmd_poset)

    sc = sub.add_parser("smallcover", help="glue copies through a matrix")
    sc.add_argument("--graph", required=True)
    sc.add_argument("--lambda", required=True,
                    help="can | tomei | star | matrix.json")
    sc.add_argument("--homology", action="store_true")
    sc.add_argument("--emit")
    sc.set_defaults(func=_cmd_smallcover)

    sd = sub.add_parser("subdivide", help="graph-colour a closed complex")
    sd.add_argument("--pseudomanifold", required=True)
    sd.add_argument("--graph", required=True)
    sd.add_argument("--apex", default="auto")
    sd.add_argument("--certify", action="store_true")
    sd.add_argument("--emit")
    sd.set_defaults(func=_cmd_subdivide)

    sr = sub.add_parser("realize", help="covering certificate pipeline")
    sr.add_argument("--pseudomanifold", required=True)
    sr.add_argument("--graph", required=True)
    sr.add_argument("--apex", default="auto")
    sr.add_argument("--budget", default=str(OMEGA_BUDGET))
    sr.add_argument("--emit")
    sr.set_defaults(func=_cmd_realize)

    sf = sub.add_parser("formulas", help="closed-form Betti tables")
    sf.add_argument("--family", required=True)
    sf.add_argument("--n", type=int, required=True)
    sf.add_argument("--emit")
    sf.set_defaults(func=_cmd_formulas)

    sv = sub.add_parser("verify", help="run verification suites")
    sv.add_argument("--suite", default="all")
    sv.add_argument("--max-n", type=int, default=3, dest="max_n")
    sv.set_defaults(func=_cmd_verify)
    return parser


def run(argv):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
