"""Record one point of the benchmark trajectory.

    python3 bench/points.py --seeds 1-10 --out bench/points/BENCH_000_seed.json

Runs bench/run.py untraced on every workload for each seed, then once
traced per workload on the first seed, and writes every run's metrics and
report plus, per end-to-end metric, the median, the quartiles and the
spread (distance between the quartiles over the median).  Two points made
from the same seeds compare result digests as well as timings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run
import workloads



def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("report "):
        raise RuntimeError("%s seed %d printed no result: %s" % (workload, seed, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2][len("report "):])
    result["exit_status"] = proc.returncode
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(workloads.SPECS))
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    point = {"label": args.label, "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        started = time.time()
        runs = [one_run(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = one_run(workload, args.seeds[0], args.seconds, 1)
        names = runs[0]["metrics"]
        point["workloads"][workload] = {
            "end_to_end": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names},
            "all_correct": all(r["correct"] and r["exit_status"] == 0 for r in runs + [traced]),
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "digests": {str(r["report"]["environment"]["seed"]): r["report"]["digest"] for r in runs},
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
            "runs": runs,
            "traced_run": traced,
            "wall_s": time.time() - started,
        }
        print(workload, json.dumps(point["workloads"][workload]["end_to_end"]), flush=True)
    point["environment"] = {k: v for k, v in runs[0]["report"]["environment"].items()
                            if k not in ("workload", "seed", "trace")}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(point, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if all(w["all_correct"] for w in point["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
