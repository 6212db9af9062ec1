"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that the output checks catch deliberately wrong results and count
them as failed, that the generator meets its (n, r, k) targets, that a
short run of every workload prints exactly the metrics BENCHMARK.json
names (end to end untraced, per layer traced), and that the benchmark
exits non-zero without printing a result where the package source is
missing.  Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import exact
import run
import workloads

sys.path.insert(0, run.SRC)
import drazin.cli  # noqa: E402 - importable only once the source path is set


def wrong_matrix(m):
    """m with its (1, 1) entry increased by one."""
    rows = [list(row) for row in m.data]
    rows[0][0] = rows[0][0] + 1
    return drazin.CMatrix(rows)


def test_library_checks_count_wrong_results():
    problem = next(p for p in workloads.make_pool("small-many", 7) if p.a.k == 1 and p.a.r >= 1)
    m = workloads.library_inputs(drazin, problem)
    results = run.library_round(drazin, workloads.library_calls(problem, m))
    tally = run.Tally()
    run.check_library_round(problem, results, tally)
    assert tally.failed == 0 and tally.attempted == len(results), tally.examples

    corrupt = {
        "drazin_col": lambda out: dataclasses.replace(out, inverse=wrong_matrix(out.inverse)),
        "group_inverse": lambda out: dataclasses.replace(
            out, denominator=out.denominator + 1),
        "projector_col": wrong_matrix,
        "solve_ax": lambda out: dataclasses.replace(out, x=wrong_matrix(out.x)),
        "solve_xa": lambda out: dataclasses.replace(
            out, restriction_satisfied=not out.restriction_satisfied),
        "solve_axb": lambda out: dataclasses.replace(out, x=wrong_matrix(out.x)),
        "ode_left_partial": lambda out: drazin.MatrixPolynomial(
            [wrong_matrix(out.coefficients[0])] + list(out.coefficients[1:])),
        "verify_drazin": lambda out: dataclasses.replace(out, commute=False),
    }
    for name, spoil in corrupt.items():
        spoiled = [
            (n, ns, spoil(out) if n == name else out, error)
            for n, ns, out, error in results
        ]
        tally = run.Tally()
        run.check_library_round(problem, spoiled, tally)
        assert tally.failed == 1, (name, tally.failed, tally.examples)

    # a call that raises counts as failed too
    raised = [(n, ns, None, RuntimeError("boom")) if n == "drazin_row" else (n, ns, out, e)
              for n, ns, out, e in results]
    tally = run.Tally()
    run.check_library_round(problem, raised, tally)
    assert tally.failed == 1, tally.examples


def test_cli_checks_count_wrong_reports():
    pool = workloads.make_pool("cli-bigcoeff", 7)
    problem = pool[0]
    directory = os.path.join(run.OUT_DIR, "selftest-%d" % os.getpid())
    os.makedirs(directory)
    try:
        paths = workloads.write_cli_inputs(drazin, problem, directory, 0)
        for name, argv in workloads.cli_calls(problem, paths):
            _, code, text = run.run_in_process(drazin.cli.main, argv)
            assert workloads.check_cli(name, problem, code, text) == [], name
            doc = json.loads(text)
            key = {"drazin": "inverse", "group": "inverse", "solve-axb": "x"}.get(name)
            if key is not None:
                entry = doc[key]["entries"][0]
                entry[0] = str(Fraction(entry[0]) + 1)
            elif name == "ode-left":
                entry = doc["solution"]["coefficients"][0]["entries"][0]
                entry[1] = str(Fraction(entry[1]) - 1)
            else:
                doc["all_hold"] = False
            tally = run.Tally()
            run.check_cli_call(problem, name, code, json.dumps(doc), tally)
            assert tally.failed == 1, name
            tally = run.Tally()
            run.check_cli_call(problem, name, 1, text, tally)
            assert tally.failed == 1, name
    finally:
        shutil.rmtree(directory)


def test_generator_meets_profiles():
    for workload in workloads.SPECS:
        for problem in workloads.make_pool(workload, 3)[:8]:
            for gen in (problem.a, problem.axb_b):
                n = len(gen.a)
                ranks = [exact.rank(exact.power(gen.a, j)) for j in range(n + 2)]
                k = next(j for j in range(n + 1) if ranks[j] == ranks[j + 1])
                assert (k, ranks[k]) == (gen.k, gen.r), (workload, k, ranks, gen.k, gen.r)
                ak = exact.power(gen.a, gen.k)
                assert exact.equal(exact.matmul(exact.matmul(ak, gen.a), gen.drazin), ak)


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_runs_print_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    names = {
        "0": {m["name"]: m["unit"] for m in config["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    assert names["0"] == run.END_TO_END_UNITS and names["1"] == run.LAYER_UNITS
    assert [w["name"] for w in config["workloads"]] == list(workloads.SPECS)
    for workload in workloads.SPECS:
        for trace in ("0", "1"):
            code, out, err = bench("--workload", workload, "--seed", "11",
                                   "--seconds", "1", "--trace", trace)
            assert code == 0, (workload, trace, err[-2000:])
            last = json.loads(out.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] is True and last["failed"] == 0
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == names[trace], (workload, trace, sorted(set(got) ^ set(names[trace])))


def test_refuses_without_package_source():
    directory = os.path.join(run.OUT_DIR, "selftest-bare-%d" % os.getpid())
    shutil.copytree(run.HERE, os.path.join(directory, "bench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), directory)
    try:
        code, out, _ = bench("--workload", "small-many", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=directory)
        assert code != 0 and not out.strip(), (code, out)
    finally:
        shutil.rmtree(directory)


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print("ok", test.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
