"""Run one workload of the opres benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload homology --seed 1 --seconds 20 --trace 0

The workload runs in this one process and thread as a closed loop with one
client: each pass issues the workload's jobs back to back in an order drawn
from the seed, and checks each job's output before the next job starts.
The first pass runs on freshly imported modules (``cold_pass_s``); warm
passes follow until the next one would end past ``--seconds``, and
``pass_s`` is their median.  Every time is divided by the slowdown of the
core while it was measured (see ``speed.py``); the wall times and the
slowdowns are on the line before the result.  With ``--trace 1`` one more
pass runs with every traced opres function wrapped (see ``tracing.py``),
and the per-layer metrics replace the end-to-end ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402
from tracing import LAYERS, Tracer, opres_modules  # noqa: E402
from workloads import WORKLOADS, all_job_ids, load_reference  # noqa: E402

SETUP_REPEATS = 15

END_TO_END = [
    ("setup_s", "s"),
    ("cold_pass_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
]

_BUSY = [
    "chain_core.smith_normal_form", "chain_core.rank_over_field", "chain_core.homology",
    "chain_core.verify_d_squared", "chain_core.verify_chain_map", "chain_core.SparseMat.mul",
    "chain_core.complex_json", "chain_core.SparseMat.column",
    "chain_operads.enumerate_w_basis", "chain_operads.assemble", "chain_operads.w_boundary",
    "chain_operads.signed_canon", "chain_operads.w_compose_basis", "chain_operads.w_act_basis",
    "chain_operads.augmentation", "chain_operads.checks",
    "bar_cobar.bar", "bar_cobar.cobar", "bar_cobar.cobar_bar_counit",
    "bar_cobar.compare_w_barcobar", "bar_cobar.check_twisting",
    "set_operads.compare_godement_w", "set_operads.godement_simplicial_check",
    "set_operads.w_diamond_compare", "set_operads.enumerate_w_elements",
    "set_operads.confluence_experiment",
    "trees.iso_classes", "trees.enumerate_planar", "segments", "cli.main",
]
_COUNTS = [
    "chain_core.smith_normal_form.cells", "chain_core.rank_over_field.cells",
    "chain_core.SparseMat.mul.calls", "chain_core.SparseMat.mul.nnz_in",
    "chain_core.SparseMat.column.calls",
    "chain_operads.basis_elements", "chain_operads.nnz",
    "chain_operads.w_boundary.calls", "chain_operads.signed_canon.calls",
    "bar_cobar.cobar_cells", "set_operads.elements", "set_operads.canon_node.calls",
    "set_operads.rewrite_instances", "trees.trees_enumerated",
]
PER_LAYER = (
    [(key + ".busy_s", "s") for key in _BUSY]
    + [("other.busy_s", "s")]
    + [(key, "count") for key in _COUNTS]
    + [
        ("chain_operads.aut_cache_entries", "count"),
        ("chain_operads.min_leaves_cache_entries", "count"),
        ("chain_core.dense_fill", "ratio"),
        ("chain_core.SparseMat.column.scan_yield", "ratio"),
        ("chain_operads.signed_canon.distinct_ratio", "ratio"),
        ("cli.report_bytes", "bytes"),
    ]
    + [(layer + ".errors", "count") for layer in LAYERS]
    + [("traced_pass_s", "s"), ("trace_overhead", "ratio"), ("fail_ratio", "ratio")]
    + [("wall.pass_s", "s"), ("probe.slowdown", "ratio")]
    + [(f"job.{job_id}.s", "s") for job_id in all_job_ids()]
)


@dataclass
class Context:
    """What the jobs of one run share: seed, reference digests, report file."""

    seed: int
    reference: dict
    report_path: str
    report_bytes: int = 0


@dataclass
class Pass:
    """One pass: each job's wall seconds, the pass's wall time including the
    output checks, and the core's slowdown while it ran."""

    times: dict
    wall: float
    slowdown: float

    @property
    def raw(self) -> float:
        """The jobs' total wall time."""
        return sum(self.times.values())

    @property
    def seconds(self) -> float:
        """The jobs' total time, corrected for the slowdown."""
        return self.raw / self.slowdown


def import_opres() -> tuple[float, dict]:
    """Import opres afresh from the checkout's source tree and construct the
    builtin operads; return the time taken and the modules."""
    for name in [m for m in sys.modules if m == "opres" or m.startswith("opres.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    importlib.import_module("opres.cli")
    mods = opres_modules()
    for name in ("as_ns", "ass_sym", "com"):
        mods["chain_operads"].builtin_chain_operad(name)
    for name in ("ass", "com"):
        mods["set_operads"].get_builtin_operad(name)
    return perf_counter() - t0, mods


def run_pass(jobs, mods, ctx, tracer=None) -> tuple[dict, list]:
    """Run the jobs once in the given order; return each job's seconds and
    the (job id, problems) of every job that failed.  Each job starts on a
    collected heap, as it would in a fresh CLI process, so the previous
    job's garbage neither costs it time nor raises its memory peak."""
    times, failures = {}, []
    for job in jobs:
        gc.collect()
        if tracer is not None:
            tracer.set_job(job.id)
        error = None
        t0 = perf_counter()
        try:
            result = job.run(mods, ctx)
        except Exception as exc:  # a raising job is a failed job, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        times[job.id] = perf_counter() - t0
        problems = [error] if error else job.check(result, ctx)
        if problems:
            failures.append((job.id, problems))
    return times, failures


def traced_metrics(tracer, mods, traced, warm, jobs, pass_s, report_bytes) -> dict:
    """Per-layer metrics of the traced pass; times are corrected for the
    slowdown like the end-to-end ones."""
    busy = tracer.busy()
    counts = tracer.counts
    values = {f"{key}.busy_s": busy.get(key, 0.0) / traced.slowdown for key in _BUSY}
    values["other.busy_s"] = traced.seconds - sum(busy.values()) / traced.slowdown
    values.update({key: counts.get(key, 0) for key in _COUNTS})
    co = mods["chain_operads"]
    values["chain_operads.aut_cache_entries"] = len(co._AUT_CACHE)
    values["chain_operads.min_leaves_cache_entries"] = len(co._MIN_LEAVES_CACHE)

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    values["chain_core.dense_fill"] = ratio("chain_core.dense_nnz", "chain_core.dense_cells")
    values["chain_core.SparseMat.column.scan_yield"] = ratio(
        "chain_core.SparseMat.column.returned", "chain_core.SparseMat.column.scanned")
    calls = counts.get("chain_operads.signed_canon.calls", 0)
    values["chain_operads.signed_canon.distinct_ratio"] = (
        len(tracer.distinct) / calls if calls else 0.0)
    values["cli.report_bytes"] = report_bytes
    values.update({f"{layer}.errors": counts.get(f"{layer}.errors", 0) for layer in LAYERS})
    values["traced_pass_s"] = traced.seconds
    values["trace_overhead"] = traced.seconds / pass_s - 1
    values["wall.pass_s"] = statistics.median(p.raw for p in warm)
    values["probe.slowdown"] = statistics.median(p.slowdown for p in warm)
    ran = {job.id for job in jobs}
    for job_id in all_job_ids():
        values[f"job.{job_id}.s"] = (
            statistics.median(p.times[job_id] / p.slowdown for p in warm)
            if job_id in ran else 0.0)
    return values


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="warm passes continue until the next would end past this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "opres", "cli.py")):
        print(f"error: no opres source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    reference = load_reference()
    with SpeedProbe() as probe:
        return measure(args, reference, probe)


def measure(args, reference, probe) -> int:
    """Set up, run the passes, and print the result line."""
    mark = probe.mark()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, mods = import_opres()
        setup_times.append(seconds)
    setup_slowdown = probe.slowdown(mark)
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        print(f"error: opres imported from {mods['cli'].__file__}, not {SRC}", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    ctx = Context(args.seed, reference, os.path.join(OUT, f"report-{os.getpid()}.json"))
    failures = []
    attempted = 0

    def one_pass(tracer=None) -> Pass:
        nonlocal attempted
        order = rng.sample(jobs, len(jobs))
        mark = probe.mark()
        t0 = perf_counter()
        times, failed = run_pass(order, mods, ctx, tracer)
        wall = perf_counter() - t0
        attempted += len(order)
        failures.extend(failed)
        return Pass(times, wall, probe.slowdown(mark))

    cold = one_pass()
    warm = []
    t_start = perf_counter()
    while True:
        warm.append(one_pass())
        if perf_counter() - t_start + statistics.median(p.wall for p in warm) > args.seconds:
            break
    pass_s = statistics.median(p.seconds for p in warm)

    if args.trace:
        tracer = Tracer(mods)
        ctx.report_bytes = 0
        tracer.install()
        try:
            traced = one_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv.gz"))
        values = traced_metrics(tracer, mods, traced, warm, jobs, pass_s, ctx.report_bytes)
        values["fail_ratio"] = len(failures) / attempted
        metrics = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times) / setup_slowdown,
            "cold_pass_s": cold.seconds,
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = END_TO_END
    if os.path.exists(ctx.report_path):
        os.remove(ctx.report_path)

    for job_id, problems in failures:
        for msg in problems:
            print(f"FAIL {job_id}: {msg}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"setup: {len(setup_times)} samples, median wall {statistics.median(setup_times):.4f} s, "
          f"slowdown {setup_slowdown:.3f}; cold pass: wall {cold.raw:.3f} s, "
          f"slowdown {cold.slowdown:.3f}; warm passes: {len(warm)}, wall "
          + " ".join(f"{p.raw:.3f}" for p in warm) + " s, slowdown "
          + " ".join(f"{p.slowdown:.3f}" for p in warm))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
