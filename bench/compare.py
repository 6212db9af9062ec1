"""Compare two points written by points.py.

    python3 bench/compare.py bench/points/BENCH_000_seed.json other.json

For every workload and end-to-end metric, prints both medians, the change
of the second relative to the first in the metric's worse direction, the
bound from BENCHMARK.json, and both spreads; then whether the output
digests of the seeds the points share are identical.  Exits 1 when a
metric got worse by more than its bound or a shared seed's digest differs.
"""

from __future__ import annotations

import json
import os
import sys

import run


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (load(p) for p in argv)
    config = load(os.path.join(run.ROOT, "BENCHMARK.json"))
    ok = True
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            continue
        a, b = first["workloads"][workload], second["workloads"][workload]
        for metric in config["end_to_end"]:
            name = metric["name"]
            ma, mb = a["end_to_end"][name]["median"], b["end_to_end"][name]["median"]
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            within = worse <= metric["bound"]
            ok &= within
            print("%-13s %-13s %12.6g %12.6g  worse by %+7.3f  bound %.3f  spreads %.3f %.3f  %s" % (
                workload, name, ma, mb, worse, metric["bound"],
                a["end_to_end"][name]["spread"], b["end_to_end"][name]["spread"],
                "ok" if within else "REGRESSED"))
        shared = sorted(set(a["digests"]) & set(b["digests"]), key=int)
        same = all(a["digests"][s] == b["digests"][s] for s in shared)
        ok &= same
        print("%-13s digests of %d shared seeds %s" % (
            workload, len(shared), "identical" if same else "DIFFER"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
