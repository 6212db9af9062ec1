"""Fixed-seed benchmark of the drazin package, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload minor-sums --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, one thread; see workloads.py):

    minor-sums    library calls on n = 6, 7 Gaussian-integer matrices, where
                  the minor-sum kernel does almost all the work
    small-many    many n = 2..4 problems with the edge profiles, where the
                  per-call overhead does most of the work
    cli-bigcoeff  one ``python -m drazin.cli`` process at a time on JSON
                  files of n = 4, 5 matrices with large rational entries

Inputs come from the seed alone.  Set-up (importing the package and
converting the inputs with its own constructors) is timed nine times and
the median reported.  The timed phase runs rounds until the calls have
been busy for ``--seconds`` and one whole cycle of the workload's profile
list is done; the latency metrics cover the whole cycles completed, so
the mix of calls measured does not depend on how many rounds fitted.
Every output is checked between rounds, outside the timed region.  All
times are reported at a fixed reference machine speed (speed.py); the
unscaled figures are in the report line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
round untraced and then traced, prints the per-layer metrics of the first
rounds (a fixed set of calls per seed) and the tracing overhead, and
writes all spans to bench/_out/.  The tail latency is a fixed percentile
per workload (workloads.py), chosen so that at least ten calls of the
seed code lie beyond it; the report states it with the sample count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the environment, the output digest, the fail ratio and
the tail percentile.  The exit status is 0 only when every output was
correct.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")

SETUP_REPEATS = 9
PROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "minors.minor_evals": "count",
    "minors.replaced_sum_calls": "count",
    "minors.kernel_ms": "ms",
    "minors.minor_nonzero_ratio": "ratio",
    "matrices.det_calls": "count",
    "matrices.det_self_ms": "ms",
    "matrices.matmul_calls": "count",
    "matrices.matmul_self_ms": "ms",
    "matrices.rank_calls": "count",
    "matrices.rank_self_ms": "ms",
    "inverses.index_walks": "count",
    "inverses.index_walks_per_input": "ratio",
    "inverses.index_ms": "ms",
    "inverses.drazin_ms": "ms",
    "inverses.oracle_ms": "ms",
    "inverses.verify_ms": "ms",
    "solvers.solve_ms": "ms",
    "ode.partial_ms": "ms",
    "scalars.mul_calls": "count",
    "scalars.div_calls": "count",
    "scalars.addsub_calls": "count",
    "scalars.bits_in_max": "bits",
    "scalars.bits_out_max": "bits",
    "cli.load_ms": "ms",
    "cli.emit_ms": "ms",
    "cli.out_bytes": "bytes",
    "cli.main_ms": "ms",
    "cli.process_overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Every round hands two distinct square matrices to the package: A and the
# second coefficient matrix of AXB = D.
INPUTS_PER_ROUND = 2


class Tally:
    """Calls attempted, and the calls that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def add(self, label, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append("%s: %s" % (label, "; ".join(failures)))


def outcome_failures(check, error):
    """The failures of one call: its exception, or what its check found."""
    if error is not None:
        return ["raised %s: %s" % (type(error).__name__, str(error)[:200])]
    try:
        return check()
    except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
        return ["check raised %s: %s" % (type(exc).__name__, str(exc)[:200])]


def timed_call(fn, *args):
    start = time.perf_counter_ns()
    try:
        out, error = fn(*args), None
    except Exception as exc:  # noqa: BLE001 - a raising call is counted as failed
        out, error = None, exc
    return time.perf_counter_ns() - start, out, error


# --- set-up ---

def import_package():
    for name in [m for m in sys.modules if m == "drazin" or m.startswith("drazin.")]:
        del sys.modules[name]
    pkg = importlib.import_module("drazin")
    importlib.import_module("drazin.cli")
    return pkg


def setup(spec, pool, workdir, speed):
    """Import the package and convert the pool, SETUP_REPEATS times from a
    fresh import; return the median time (raw and at the reference speed)
    and the last conversion."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter_ns()
        pkg = import_package()
        if spec.cli:
            converted = [workloads.write_cli_inputs(pkg, p, workdir, i) for i, p in enumerate(pool)]
        else:
            converted = [workloads.library_inputs(pkg, p) for p in pool]
        elapsed = time.perf_counter_ns() - start
        raw.append(elapsed / 1e9)
        scaled.append(speed.scale(elapsed, speed.epoch) / 1e9)
    return statistics.median(scaled), statistics.median(raw), pkg, converted


# --- library workloads ---

def library_round(pkg, calls, wrap=None):
    """Each call of a round as (entry point, latency ns, output, exception);
    ``wrap(name, fn)`` may replace the function called."""
    results = []
    for name, call_args in calls:
        fn = getattr(pkg, name)
        if wrap is not None:
            fn = wrap(name, fn)
        results.append((name,) + timed_call(fn, *call_args))
    return results


def check_library_round(problem, results, tally, digest=None):
    """Check one round's outputs in call order."""
    passed = {}
    for name, ns, out, error in results:
        failures = outcome_failures(
            lambda: workloads.check_library(name, problem, out, passed), error)
        tally.add(name, failures)
        if digest is not None:
            digest.add(name, out if error is None else "raised %s" % type(error).__name__)
        if not failures:
            passed[name] = out


def compare_traced_round(plain, traced, tally):
    """A traced call must reproduce its untraced output exactly."""
    for (name, _, out, error), (_, ns, t_out, t_error) in zip(plain, traced):
        same = (error is None) == (t_error is None) and (
            error is not None or checks.canonical(out) == checks.canonical(t_out))
        tally.add(name + " traced", [] if same else ["traced output differs"])


def minimum_rounds(spec):
    return max(spec.prefix_rounds, len(spec.profiles))


def whole_cycles(rounds, spec):
    """(latency ns, speed epoch) of the calls of the completed rounds that
    form whole cycles of the profile list, so that the mix of calls
    measured does not depend on how many rounds fitted in the run."""
    cycle = len(spec.profiles)
    return [call for calls in rounds[:len(rounds) // cycle * cycle] for call in calls]


def run_library(pkg, spec, pool, converted, seconds, tally, digest, speed):
    limit = seconds * 1e9
    busy = 0
    rounds = []
    i = 0
    speed.sample()
    while busy < limit or i < minimum_rounds(spec):
        problem = pool[i % len(pool)]
        calls = workloads.library_calls(problem, converted[i % len(pool)])
        results, measured = [], []
        for name, call_args in calls:
            epoch = speed.epoch
            results.append((name,) + timed_call(getattr(pkg, name), *call_args))
            ns = results[-1][1]
            measured.append((ns, epoch))
            speed.after_call(ns)
            busy += ns
            if busy >= limit and i >= minimum_rounds(spec):
                break
        check_library_round(problem, results, tally, digest if i < spec.prefix_rounds else None)
        if len(results) == len(calls):
            rounds.append(measured)
        i += 1
    return whole_cycles(rounds, spec)


def trace_library(pkg, spec, pool, converted, seconds, tally, digest, tracer, speed):
    limit = seconds * 1e9
    plain_ns = traced_ns = 0
    prefix_cases = set()
    i = 0
    while plain_ns + traced_ns < limit or i < spec.prefix_rounds:
        speed.sample()
        problem = pool[i % len(pool)]
        calls = workloads.library_calls(problem, converted[i % len(pool)])
        plain = library_round(pkg, calls)
        first_case = tracer.cases
        tracer.install()
        try:
            traced = library_round(pkg, calls, wrap=tracer.root)
        finally:
            tracer.uninstall()
        if i < spec.prefix_rounds:
            prefix_cases.update(range(first_case, tracer.cases))
        plain_ns += sum(r[1] for r in plain)
        traced_ns += sum(r[1] for r in traced)
        check_library_round(problem, plain, tally, digest if i < spec.prefix_rounds else None)
        compare_traced_round(plain, traced, tally)
        i += 1
        if i == spec.prefix_rounds:
            tracer.snapshot_counters()
    return prefix_cases, traced_ns / plain_ns, {}


def count_library_scalars(pkg, spec, pool, converted, tally):
    counter = spans.ScalarCounter(pkg.GaussianRational)
    counter.install()
    try:
        rounds = [(pool[i], library_round(pkg, workloads.library_calls(pool[i], converted[i])))
                  for i in range(spec.scalar_rounds)]
    finally:
        counter.uninstall()
    for problem, results in rounds:
        check_library_round(problem, results, tally)
    return counter


# --- the CLI workload ---

def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, env):
    """One CLI process: (latency ns, exit status, stdout)."""
    start = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "drazin.cli"] + argv, cwd=ROOT, env=env,
            capture_output=True, timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter_ns() - start, -1, "timed out after %d s" % PROCESS_TIMEOUT_S
    elapsed = time.perf_counter_ns() - start
    text = proc.stdout.decode("utf-8", "replace")
    if proc.returncode != 0:
        text += proc.stderr.decode("utf-8", "replace")
    return elapsed, proc.returncode, text


def run_in_process(main, argv):
    """drazin.cli.main in this process with stdout captured."""
    buffer = io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - the CLI crashing is a failure
        code = -2
        buffer.write("raised %s: %s" % (type(exc).__name__, str(exc)[:200]))
    return time.perf_counter_ns() - start, code, buffer.getvalue()


def check_cli_call(problem, name, code, text, tally, digest=None):
    failures = outcome_failures(lambda: workloads.check_cli(name, problem, code, text), None)
    tally.add(name, failures)
    if digest is not None:
        digest.add(name, "%d:%s" % (code, text))
    return failures


def run_cli(pkg, spec, pool, converted, seconds, tally, digest, speed):
    env = cli_env()
    limit = seconds * 1e9
    busy = 0
    rounds = []
    i = 0
    speed.sample()
    while busy < limit or i < minimum_rounds(spec):
        problem = pool[i % len(pool)]
        calls = workloads.cli_calls(problem, converted[i % len(pool)])
        measured = []
        for name, argv in calls:
            epoch = speed.epoch
            ns, code, text = run_process(argv, env)
            measured.append((ns, epoch))
            speed.after_call(ns)
            busy += ns
            check_cli_call(problem, name, code, text, tally,
                           digest if i < spec.prefix_rounds else None)
            if busy >= limit and i >= minimum_rounds(spec):
                break
        if len(measured) == len(calls):
            rounds.append(measured)
        i += 1
    return whole_cycles(rounds, spec)


def trace_cli(pkg, spec, pool, converted, seconds, tally, digest, tracer, speed):
    """Per call: the process, then main in this process untraced, then
    traced.  The process latency minus the untraced main is the process
    start, import and interpreter exit the CLI costs."""
    env = cli_env()
    limit = seconds * 1e9
    wall = plain_ns = traced_ns = 0
    prefix_cases = set()
    overheads = []
    out_bytes = 0
    i = 0
    while wall < limit or i < spec.prefix_rounds:
        speed.sample()
        problem = pool[i % len(pool)]
        for name, argv in workloads.cli_calls(problem, converted[i % len(pool)]):
            p_ns, p_code, p_text = run_process(argv, env)
            u_ns, u_code, u_text = run_in_process(pkg.cli.main, argv)
            case = tracer.cases
            tracer.install()
            try:
                t_ns, t_code, t_text = run_in_process(tracer.root(name, pkg.cli.main), argv)
            finally:
                tracer.uninstall()
            failures = check_cli_call(problem, name, p_code, p_text, tally,
                                      digest if i < spec.prefix_rounds else None)
            same = (u_code, u_text) == (p_code, p_text) and (t_code, t_text) == (p_code, p_text)
            tally.add(name + " in process", [] if same else ["in-process report differs"])
            if i < spec.prefix_rounds:
                prefix_cases.add(case)
                if not failures:
                    overheads.append((p_ns - u_ns) / 1e6)
                out_bytes += len(u_text.encode("utf-8"))
            wall += p_ns + u_ns + t_ns
            plain_ns += u_ns
            traced_ns += t_ns
        i += 1
        if i == spec.prefix_rounds:
            tracer.snapshot_counters()
    extra = {
        "cli.out_bytes": out_bytes,
        "cli.process_overhead_ms": statistics.median(overheads) if overheads else 0.0,
    }
    return prefix_cases, traced_ns / plain_ns, extra


def count_cli_scalars(pkg, spec, pool, converted, tally):
    counter = spans.ScalarCounter(pkg.GaussianRational)
    counter.install()
    try:
        results = [(pool[i], name, run_in_process(pkg.cli.main, argv))
                   for i in range(spec.scalar_rounds)
                   for name, argv in workloads.cli_calls(pool[i], converted[i])]
    finally:
        counter.uninstall()
    for problem, name, (ns, code, text) in results:
        check_cli_call(problem, name, code, text, tally)
    return counter


# --- metrics ---

def tail(latencies_ns, percentile):
    """Nearest-rank percentile in ms, and how many calls lie beyond it."""
    ordered = sorted(latencies_ns)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1] / 1e6, len(ordered) - rank


def peak_rss_mib(cli):
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB


def latency_metrics(spec, latencies_ns):
    tail_ms, beyond = tail(latencies_ns, spec.tail_percentile)
    return {
        "calls_per_s": len(latencies_ns) / (sum(latencies_ns) / 1e9),
        "call_p50_ms": statistics.median(latencies_ns) / 1e6,
        "call_tail_ms": tail_ms,
    }, beyond


def end_to_end(spec, measured, setup, speed):
    """The end-to-end metrics at the reference speed, and a report with
    the unscaled figures."""
    setup_s, setup_raw_s = setup
    scaled, beyond = latency_metrics(spec, [speed.scale(ns, epoch) for ns, epoch in measured])
    raw, _ = latency_metrics(spec, [ns for ns, _ in measured])
    rss = peak_rss_mib(spec.cli)
    metrics = dict(scaled, setup_s=setup_s, peak_rss_mib=rss)
    info = {
        "tail_percentile": spec.tail_percentile,
        "calls_beyond_tail": beyond,
        "samples": len(measured),
        "unscaled": dict(raw, setup_s=setup_raw_s, peak_rss_mib=rss),
    }
    return {name: metrics[name] for name in END_TO_END_UNITS}, info


def per_layer(tracer, prefix_cases, overhead_ratio, extra, counter, spec, pool, speed):
    """Per-layer metrics of the prefix rounds; times at the reference speed
    of the run (``speed.run_factor``)."""
    agg = tracer.aggregate(prefix_cases)
    factor = speed.run_factor()

    def calls(name):
        return agg[name][0] if name in agg else 0

    def inclusive_ms(*names):
        return factor * sum(agg[n][1] for n in names if n in agg) / 1e6

    def self_ms(name):
        return factor * agg[name][2] / 1e6 if name in agg else 0.0

    evals, nonzero = tracer.counters_at_prefix
    metrics = {
        "minors.minor_evals": evals,
        "minors.replaced_sum_calls": calls("minors.replaced_sum"),
        "minors.kernel_ms": inclusive_ms("minors.principal_sum", "minors.replaced_sum"),
        "minors.minor_nonzero_ratio": nonzero / evals if evals else 0.0,
        "matrices.det_calls": calls("matrices.det"),
        "matrices.det_self_ms": self_ms("matrices.det"),
        "matrices.matmul_calls": calls("matrices.matmul"),
        "matrices.matmul_self_ms": self_ms("matrices.matmul"),
        "matrices.rank_calls": calls("matrices.rank"),
        "matrices.rank_self_ms": self_ms("matrices.rank"),
        "inverses.index_walks": calls("inverses.index"),
        "inverses.index_walks_per_input":
            calls("inverses.index") / (INPUTS_PER_ROUND * spec.prefix_rounds),
        "inverses.index_ms": inclusive_ms("inverses.index"),
        "inverses.drazin_ms": inclusive_ms("inverses.drazin"),
        "inverses.oracle_ms": inclusive_ms("inverses.oracle"),
        "inverses.verify_ms": inclusive_ms("inverses.verify"),
        "solvers.solve_ms": inclusive_ms("solvers.solve"),
        "ode.partial_ms": inclusive_ms("ode.partial"),
        "scalars.mul_calls": counter.calls["mul"],
        "scalars.div_calls": counter.calls["div"],
        "scalars.addsub_calls": counter.calls["addsub"],
        "scalars.bits_in_max": max(pool[i].input_bits() for i in range(spec.scalar_rounds)),
        "scalars.bits_out_max": counter.bits_out,
        "cli.load_ms": inclusive_ms("cli.load"),
        "cli.emit_ms": inclusive_ms("cli.emit"),
        "cli.out_bytes": extra.get("cli.out_bytes", 0),
        "cli.main_ms": inclusive_ms("cli.main"),
        "cli.process_overhead_ms": factor * extra.get("cli.process_overhead_ms", 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    return metrics


# --- environment ---

def git_commit():
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu or platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- entry point ---

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drazin", "__init__.py")):
        print("bench: no package source at %s; run from a checkout of the repository"
              % os.path.join(SRC, "drazin"), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("DRAZIN_MAX_DIM", None)
    spec = workloads.SPECS[args.workload]
    pool = workloads.make_pool(args.workload, args.seed)
    workdir = os.path.join(OUT_DIR, "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    if spec.cli:
        os.makedirs(workdir, exist_ok=True)
    try:
        speed = Speed()
        setup_times = setup(spec, pool, workdir, speed)
        pkg, converted = setup_times[2:]
        tally = Tally()
        digest = checks.Digest()
        if args.trace:
            tracer = spans.Tracer(pkg)
            trace_fn, count_fn = ((trace_cli, count_cli_scalars) if spec.cli
                                  else (trace_library, count_library_scalars))
            prefix_cases, ratio, extra = trace_fn(
                pkg, spec, pool, converted, args.seconds, tally, digest, tracer, speed)
            counter = count_fn(pkg, spec, pool, converted, tally)
            metrics = per_layer(tracer, prefix_cases, ratio, extra, counter, spec, pool, speed)
            units = LAYER_UNITS
            info = {"spans": len(tracer), "prefix_rounds": spec.prefix_rounds,
                    "span_file": os.path.relpath(tracer.write_out(OUT_DIR, args.workload), ROOT)}
        else:
            measured = (run_cli if spec.cli else run_library)(
                pkg, spec, pool, converted, args.seconds, tally, digest, speed)
            metrics, info = end_to_end(spec, measured, setup_times[:2], speed)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in metrics.items():
        print("%-34s %s %s" % (name, value, units[name]))
    report = dict(info, digest=digest.hexdigest(), digest_calls=digest.count,
                  fail_ratio=tally.failed / tally.attempted, failures=tally.examples,
                  speed=speed.report(), environment=environment(args))
    print("report " + json.dumps(report, sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
