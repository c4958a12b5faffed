"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads homology assemble compare \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/out/sweep.json

Runs ``run.py`` once per (workload, seed) in a child process, one at a
time, with the seconds from ``BENCHMARK.json``.  For each metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound.  Add ``--trace`` for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", help="write the summary as JSON to this path")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            *notes, last = proc.stdout.splitlines()
            result = json.loads(last)
            result["notes"] = notes
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
            runs.append(result)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()
                                               if k in bounds}), flush=True)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        summary[workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "notes": [note for r in runs for note in r["notes"]],
        }
        for name, s in metrics.items():
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"{workload:9s} {name:46s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{note}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
