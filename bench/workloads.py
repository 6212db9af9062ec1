"""The three workloads: generated problems, the calls made on them, checks.

A problem is one coefficient matrix A with its right-hand sides; a round
puts one problem through every public entry point (library workloads) or
every CLI subcommand in its own process (``cli-bigcoeff``).  Rounds walk
the seed's problem pool in order and wrap around, so the calls a run makes
depend only on the seed and on how many calls fit in the run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import checks
import inputs
from exact import bits, g_mul

# (n, core rank r, index k).  Rank about n/2, where C(n-1, r-1) peaks, and
# index 1 to 3, including index 3 with a nonzero core.
MINOR_PROFILES = [
    (6, 3, 1), (7, 3, 2), (6, 4, 2), (7, 4, 1),
    (6, 3, 3), (7, 3, 1), (6, 4, 1), (7, 3, 3),
]
# The edge profiles of small matrices: invertible (k = 0), nilpotent
# (r = 0), and index 1, 2 and 3.
SMALL_PROFILES = [
    (2, 2, 0), (2, 0, 2), (2, 1, 1), (3, 3, 0), (3, 0, 3), (3, 0, 2),
    (3, 1, 1), (3, 2, 1), (3, 1, 2), (4, 4, 0), (4, 0, 4), (4, 0, 2),
    (4, 2, 1), (4, 3, 1), (4, 1, 2), (4, 2, 2), (4, 1, 3),
]
CLI_PROFILES = [
    (4, 2, 1), (5, 2, 2), (4, 3, 1), (5, 2, 3),
    (5, 3, 1), (4, 2, 2), (5, 2, 1), (4, 1, 3),
]


@dataclass(frozen=True)
class Spec:
    """How one workload generates its problems and measures them."""

    profiles: list
    pool: int           # problems generated per seed
    scalar: object      # entry generator
    shears: object      # shear count for an n x n matrix
    axb_profile: tuple  # profile of the second coefficient matrix of AXB = D
    rhs_cols: int
    cli: bool
    prefix_rounds: int  # rounds covered by the digest and per-layer metrics
    scalar_rounds: int  # rounds of the scalar-counting pass
    tail_percentile: float


def _small(rng):
    return inputs.small_scalar(rng, 2)


SPECS = {
    "minor-sums": Spec(MINOR_PROFILES, 8, _small, lambda n: 3 * n, (4, 2, 2), 2,
                       cli=False, prefix_rounds=1, scalar_rounds=1, tail_percentile=80.0),
    "small-many": Spec(SMALL_PROFILES, 400, _small, lambda n: 3 * n, (2, 1, 1), 2,
                       cli=False, prefix_rounds=34, scalar_rounds=17, tail_percentile=99.0),
    "cli-bigcoeff": Spec(CLI_PROFILES, 16, inputs.big_scalar, lambda n: n, (3, 2, 1), 3,
                         cli=True, prefix_rounds=2, scalar_rounds=1, tail_percentile=80.0),
}


class Problem:
    """Generated inputs of one round, with lazily computed check facts."""

    def __init__(self, rng, spec, profile):
        n, r, k = profile
        self.a = inputs.profile_matrix(rng, n, r, k, spec.scalar, spec.shears(n))
        m = spec.rhs_cols
        self.b_ax = inputs.rand_matrix(rng, n, m, spec.scalar)
        self.b_xa = inputs.rand_matrix(rng, m, n, spec.scalar)
        nb, rb, kb = spec.axb_profile
        self.axb_b = inputs.profile_matrix(rng, nb, rb, kb, spec.scalar, spec.shears(nb))
        self.axb_d = inputs.rand_matrix(rng, n, nb, spec.scalar)
        self.ode_b = inputs.rand_matrix(rng, n, n, spec.scalar)

    def input_bits(self):
        """Widest numerator or denominator among the matrices handed over."""
        return max(
            bits(re, im)
            for m in (self.a.a, self.a.drazin, self.b_ax, self.b_xa, self.axb_b.a,
                      self.axb_d, self.ode_b)
            for row in m for re, im in row
        )

    @cached_property
    def facts_a(self):
        return checks.Facts(self.a)

    @cached_property
    def facts_b(self):
        return checks.Facts(self.axb_b)


def make_pool(workload, seed):
    spec = SPECS[workload]
    return [
        Problem(inputs.case_rng(seed, workload, i), spec, spec.profiles[i % len(spec.profiles)])
        for i in range(spec.pool)
    ]


# --- library workloads ---

def library_inputs(pkg, problem):
    """The problem converted with the library's own constructors."""
    c = pkg.CMatrix
    return {
        "a": c(problem.a.a), "x": c(problem.a.drazin),
        "b_ax": c(problem.b_ax), "b_xa": c(problem.b_xa),
        "axb_b": c(problem.axb_b.a), "axb_d": c(problem.axb_d), "ode_b": c(problem.ode_b),
    }


def library_calls(problem, m):
    """(entry point, arguments) of one round, in call order."""
    calls = [("drazin_col", (m["a"],)), ("drazin_row", (m["a"],))]
    if problem.a.k <= 1:
        calls.append(("group_inverse", (m["a"],)))
    calls += [
        ("projector_col", (m["a"],)),
        ("solve_ax", (m["a"], m["b_ax"])),
        ("solve_xa", (m["a"], m["b_xa"])),
        ("solve_axb", (m["a"], m["axb_b"], m["axb_d"])),
        ("ode_left_partial", (m["a"], m["ode_b"])),
        ("ode_right_partial", (m["a"], m["ode_b"])),
        ("verify_drazin", (m["a"], m["x"])),
    ]
    return calls


def _result_failures(f, out):
    return (checks.profile_failures(f, out.profile.k, out.profile.r)
            + checks.denominator_failures(f.denominator, checks.scalar_raw(out.denominator))
            + checks.inverse_failures(f, checks.raw(out.inverse)))


def check_library(name, problem, out, passed):
    """Failures of one library output; ``passed`` maps the entry points of
    this round whose outputs already passed their checks to the outputs."""
    f = problem.facts_a
    if name in ("drazin_col", "drazin_row", "group_inverse"):
        failures = _result_failures(f, out)
        column = passed.get("drazin_col")
        if name == "drazin_row" and column is not None and column.inverse != out.inverse:
            failures.append("column and row routes disagree")
        return failures
    if name == "projector_col":
        return checks.projector_failures(f, checks.raw(out))
    if name in ("solve_ax", "solve_xa"):
        rhs, fn = ((problem.b_ax, checks.solve_ax_failures) if name == "solve_ax"
                   else (problem.b_xa, checks.solve_xa_failures))
        return (checks.profile_failures(f, out.profile_a.k, out.profile_a.r)
                + checks.denominator_failures(f.denominator, checks.scalar_raw(out.denominator))
                + fn(f, rhs, checks.raw(out.x), out.restriction_satisfied))
    if name == "solve_axb":
        fb = problem.facts_b
        return (checks.profile_failures(f, out.profile_a.k, out.profile_a.r)
                + checks.profile_failures(fb, out.profile_b.k, out.profile_b.r, "profile_b")
                + checks.denominator_failures(
                    g_mul(f.denominator, fb.denominator), checks.scalar_raw(out.denominator))
                + checks.solve_axb_failures(f, fb, problem.axb_d, checks.raw(out.x),
                                            out.restriction_satisfied))
    if name in ("ode_left_partial", "ode_right_partial"):
        coeffs = [checks.raw(c) for c in out.coefficients]
        return checks.ode_failures(f, problem.ode_b, coeffs, left=name == "ode_left_partial")
    if name == "verify_drazin":
        flags = (out.power_left, out.outer, out.commute, out.power_right)
        if all(v is True for v in flags):
            return []
        return ["a true inverse failed verification: %r" % (flags,)]
    raise KeyError(name)


# --- the CLI workload ---

def write_cli_inputs(pkg, problem, directory, index):
    """Matrix files of one problem, written with the CLI's own serializer."""
    paths = {}
    for key, rows in (("A", problem.a.a), ("X", problem.a.drazin), ("B", problem.axb_b.a),
                      ("D", problem.axb_d), ("O", problem.ode_b)):
        path = os.path.join(directory, "p%d_%s.json" % (index, key))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(pkg.cli.matrix_to_json(pkg.CMatrix(rows)), handle)
        paths[key] = path
    return paths


def cli_calls(problem, paths):
    """(subcommand, argv) of one round, in call order."""
    calls = [("drazin", ["drazin", "--input", paths["A"]])]
    if problem.a.k <= 1:
        calls.append(("group", ["group", "--input", paths["A"]]))
    calls += [
        ("solve-axb", ["solve-axb", "--A", paths["A"], "--B", paths["B"], "--D", paths["D"]]),
        ("ode-left", ["ode-left", "--A", paths["A"], "--B", paths["O"]]),
        ("verify", ["verify", "--A", paths["A"], "--X", paths["X"]]),
    ]
    return calls


def _json_profile_failures(f, profile, what="profile"):
    return checks.profile_failures(f, profile["index"], profile["rank"], what)


def check_cli(name, problem, code, stdout):
    """Failures of one CLI report: exit status, then the parsed document."""
    if code != 0:
        return ["exit status %d: %s" % (code, stdout[-300:])]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return ["unreadable report: %s" % exc]
    if "error" in doc:
        return ["error report: %r" % (doc["error"],)]
    f = problem.facts_a
    if name in ("drazin", "group"):
        failures = (_json_profile_failures(f, doc["profile"])
                    + checks.denominator_failures(f.denominator, checks.json_scalar(doc["denominator"]))
                    + checks.inverse_failures(f, checks.json_matrix(doc["inverse"])))
        if name == "drazin":
            methods = doc["methods"]
            if not (doc.get("methods_agree") is True
                    and methods["row"] == methods["column"] == methods["oracle"]):
                failures.append("column, row and oracle routes disagree")
        return failures
    if name == "solve-axb":
        fb = problem.facts_b
        return (_json_profile_failures(f, doc["profile_a"])
                + _json_profile_failures(fb, doc["profile_b"], "profile_b")
                + checks.denominator_failures(g_mul(f.denominator, fb.denominator),
                                              checks.json_scalar(doc["denominator"]))
                + checks.solve_axb_failures(f, fb, problem.axb_d, checks.json_matrix(doc["x"]),
                                            doc["restriction_satisfied"]))
    if name == "ode-left":
        coeffs = [checks.json_matrix(c) for c in doc["solution"]["coefficients"]]
        return (_json_profile_failures(f, doc["profile"])
                + checks.denominator_failures(f.denominator, checks.json_scalar(doc["denominator"]))
                + checks.ode_failures(f, problem.ode_b, coeffs, left=True))
    if name == "verify":
        flags = tuple(doc["axioms"].values())
        if len(flags) == 4 and all(v is True for v in flags) and doc["all_hold"] is True:
            return []
        return ["a true inverse failed verification: %r" % (doc["axioms"],)]
    raise KeyError(name)
