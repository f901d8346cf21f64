"""Shared exception types, size budgets, the JSON-file reader and its
integer check.

ValidationError signals malformed or inconsistent input (CLI exit code 2),
BudgetExceeded signals a refusal to materialize something too large
(CLI exit code 3).  Both carry a plain human-readable message, and a
refusal also carries its numbers as attributes.
"""

import json


class ValidationError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """A job refused because it needs ``count`` of ``unit`` (a string such
    as "top simplices") for ``what``, over ``budget``."""

    def __init__(self, what, count, unit, budget):
        super().__init__(f"{what} needs {count} {unit}, over the {budget} budget")
        self.what = what
        self.count = count
        self.unit = unit
        self.budget = budget


# Default size limits.  Gluings, stock spheres and subdivisions refuse to
# materialize more cells than CELL_BUDGET, each counted in closed form before
# anything is built.  A covering certificate's mode is "full" when its label
# space r * 2^m fits in OMEGA_BUDGET and "sampled" otherwise; that is all it
# says, since the covering checks read the crossing involutions and are
# exact at any r.  Involution closures refuse before they store more than
# CLOSURE_BUDGET cell indexes (each permutation counts its length).  A face
# poset refuses before it stores more than FACE_BUDGET faces, each level
# counted before it is built, and the vertex points' check refuses before
# its table of sums over tube masks holds more than SUMS_BUDGET entries.
CELL_BUDGET = 200_000
OMEGA_BUDGET = 1_000_000
CLOSURE_BUDGET = 1_000_000
FACE_BUDGET = 2_000_000
SUMS_BUDGET = 20_000_000


def check_budget(what, count, unit="top simplices", budget=CELL_BUDGET):
    """Refuse a job that needs more than ``budget`` of the named unit, with
    both numbers; ``count`` comes before the job stores that many."""
    if count > budget:
        raise BudgetExceeded(what, count, unit, budget)


def read_json(text, what):
    """Parse the JSON file at path ``text``; ``what`` names its kind in the
    ValidationError raised for a file that cannot be read, is not UTF-8 or
    is not JSON."""
    try:
        with open(text, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {text!r}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"malformed {what} JSON in {text!r}: {exc}") from exc


def json_int(value, what):
    """``value`` if it is a JSON integer, else a ValidationError naming
    ``what``: a float or a boolean is refused, not truncated."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value
