"""Command-line entry point: six subcommands.

Five build one artifact each (face report, glued manifold, coloured
subdivision, covering certificate, formula table) and emit deterministic
JSON or CSV.  ``verify`` runs the named suites of ``nestotope.verify``,
which replay the package's checkable claims, and prints one PASS/FAIL
line per item.  Exit codes: 0 success, 1 failed verification, 2 invalid
input, 3 budget refusal.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from .errors import BudgetExceeded, OMEGA_BUDGET, ValidationError
from .graphs import graph_building_set, graph_from_spec
from .nestohedron import (
    all_vertex_coordinates,
    check_simple_and_flag,
    face_poset,
    face_vectors,
)
from .cellcomplex import complex_to_json_dict, pseudomanifold_from_spec
from .smallcover import lambda_from_spec, small_cover
from .subdivision import (
    condition_star_check,
    lemma_subdivision,
    subdivide_pseudomanifold,
    verify_lemma_conditions,
)
from .realization import certificate_to_json_dict, realize
from .verify import SUITES
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
        budget = float(text)
    except ValueError as exc:
        raise ValidationError(f"budget must be a number, got {text!r}") from exc
    if not budget.is_integer():
        raise ValidationError(f"budget must be a whole number, got {text!r}")
    if budget <= 0:
        raise ValidationError("budget must be positive")
    return int(budget)


def _write_json(path, payload):
    text = json.dumps(payload, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


# ---------------------------------------------------------------------------
# Subcommands.


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
    y = subdivide_pseudomanifold(z, g, apex=_apex(args.apex))
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
            k = lemma_subdivision(g, y.apex)
            cert = verify_lemma_conditions(k, g, y.apex)
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
    rows = fm.family_table(args.family, args.n)
    if emit is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        with emit.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return 0


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
