"""The benchmark's workloads: fixed job lists and the checks on each job's output.

A job is one user-visible computation.  CLI jobs run ``opres.cli.main`` in
process with ``--json`` pointing into the benchmark's output directory; the
report's sha256 must equal the digest recorded at the seed commit
(``reference.json``) and its content must pass a semantic check that names
what differs.  Library jobs call the public function directly, because the
CLI has no command for them, and get the semantic check only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Confluence instances per pass: sized so the job takes about one second.
CONFLUENCE_COUNT = 12000


@dataclass(frozen=True)
class Job:
    """One job: ``run(mods, ctx)`` does the work that is timed, and
    ``check(result, ctx)`` returns the list of problems (empty when good)."""

    id: str
    run: Callable
    check: Callable


def _cli_job(job_id: str, command: str, semantic: Callable) -> Job:
    argv = command.split()

    def run(mods, ctx):
        path = ctx.report_path
        if os.path.exists(path):
            os.remove(path)
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = mods["cli"].main(argv + ["--json", path])
            except SystemExit as exc:
                code = exc.code
        return code

    def check(code, ctx):
        if code != 0:
            return [f"exit code {code}"]
        try:
            with open(ctx.report_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            return [f"no report: {exc}"]
        ctx.report_bytes += len(raw)
        problems = []
        want = ctx.reference[job_id]["sha256"]
        got = hashlib.sha256(raw).hexdigest()
        if got != want:
            problems.append(f"report sha256 {got} differs from the reference {want}")
        report = json.loads(raw)
        if report.get("status") != "verified":
            problems.append(f"status is {report.get('status')!r}, not 'verified'")
        problems += semantic(report["payload"])
        return problems

    return Job(job_id, run, check)


def _homology_is(rank0: int, ring: str) -> Callable:
    """Free of rank ``rank0`` in degree 0, zero elsewhere, no torsion."""

    def semantic(payload):
        problems = []
        if payload.get("ring") != ring:
            problems.append(f"ring {payload.get('ring')!r}, expected {ring!r}")
        rows = payload.get("by_degree", {})
        if "0" not in rows:
            problems.append("no degree 0 in the homology table")
        for deg, row in sorted(rows.items()):
            want = rank0 if deg == "0" else 0
            if row["free"] != want:
                problems.append(f"H_{deg} has free rank {row['free']}, expected {want}")
            if row["torsion"]:
                problems.append(f"H_{deg} has torsion {row['torsion']}")
        return problems

    return semantic


def _dims_are(dims: dict) -> Callable:
    def semantic(payload):
        got = payload.get("dims")
        return [] if got == dims else [f"dims {got}, expected {dims}"]

    return semantic


def _empty(key: str) -> Callable:
    def semantic(payload):
        got = payload.get(key)
        return [] if got == [] else [f"{key} is {got!r}, expected []"]

    return semantic


def _comparison_is_iso(payload):
    problems = []
    if payload.get("status") != "iso":
        problems.append(f"comparison status {payload.get('status')!r}: {payload.get('witness')}")
    if payload.get("witness") is not None:
        problems.append(f"comparison witness {payload.get('witness')!r}")
    return problems


def _godement_ok(payload):
    return _comparison_is_iso(payload["comparison"]) + _empty("simplicial_identities")(payload)


def _graft_job(job_id: str, operad: str, n: int, m: int) -> Job:
    def run(mods, ctx):
        P = mods["chain_operads"].builtin_chain_operad(operad)
        return mods["chain_operads"].check_composition_maps(P, n, m)

    def check(msgs, ctx):
        return [] if msgs == [] else [f"composition check messages: {msgs[:3]}"]

    return Job(job_id, run, check)


def _confluence_job(job_id: str) -> Job:
    def run(mods, ctx):
        so = mods["set_operads"]
        H = mods["segments"].chain_segment(3)
        return so.confluence_experiment(
            so.get_builtin_operad("com"), H, CONFLUENCE_COUNT, ctx.seed, max_arity=5
        )

    def check(rep, ctx):
        problems = []
        if rep["instances"] != CONFLUENCE_COUNT:
            problems.append(f"{rep['instances']} instances, expected {CONFLUENCE_COUNT}")
        if rep["failures"]:
            problems.append(f"{len(rep['failures'])} confluence failures, first {rep['failures'][0]}")
        if rep["status"] != "confluent":
            problems.append(f"status {rep['status']!r}")
        return problems

    return Job(job_id, run, check)


WORKLOADS: dict[str, list[Job]] = {
    "homology": [
        _cli_job("hom-ass_sym-4-Z", "chainw homology --operad ass_sym --arity 4",
                 _homology_is(math.factorial(4), "Z")),
        _cli_job("hom-com-4-Z", "chainw homology --operad com --arity 4",
                 _homology_is(1, "Z")),
        _cli_job("hom-as_ns-5-Z", "chainw homology --operad as_ns --arity 5",
                 _homology_is(1, "Z")),
        _cli_job("hom-ass_sym-4-Q", "chainw homology --operad ass_sym --arity 4 --ring Q",
                 _homology_is(math.factorial(4), "Q")),
        _cli_job("hom-as_ns-6-F2", "chainw homology --operad as_ns --arity 6 --ring F2",
                 _homology_is(1, "F2")),
    ],
    "assemble": [
        _cli_job("build-ass_sym-5", "chainw build --operad ass_sym --arity 5",
                 _dims_are({"0": 5400, "1": 11160, "2": 7560, "3": 1680})),
        _cli_job("build-as_ns-7", "chainw build --operad as_ns --arity 7",
                 _dims_are({"0": 903, "1": 3140, "2": 4320, "3": 2940, "4": 990, "5": 132})),
        _cli_job("verify-com-5", "chainw verify --check all --operad com --arity 5",
                 _empty("problems")),
        _graft_job("graft-com-3-3", "com", 3, 3),
        _graft_job("graft-as_ns-3-4", "as_ns", 3, 4),
    ],
    "compare": [
        _cli_job("cmp-ass_sym-4", "barcobar compare-w --operad ass_sym --arity 4",
                 _comparison_is_iso),
        _cli_job("cmp-com-4", "barcobar compare-w --operad com --arity 4", _comparison_is_iso),
        _cli_job("cmp-as_ns-5", "barcobar compare-w --operad as_ns --arity 5",
                 _comparison_is_iso),
        _cli_job("twist-ass_sym-5", "barcobar verify-twisting --operad ass_sym --arity 5",
                 _empty("problems")),
        _cli_job("godement-ass-1-4", "godement compare-w --operad ass --level 1 --arity 4",
                 _godement_ok),
        _cli_job("diamond-ass-4-4", "setw diamond-compare --operad ass --arity 4 --cap 4",
                 _comparison_is_iso),
        _confluence_job("confluence-com"),
    ],
}


def all_job_ids() -> list[str]:
    return [job.id for jobs in WORKLOADS.values() for job in jobs]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
