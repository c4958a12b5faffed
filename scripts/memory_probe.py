#!/usr/bin/env python3
"""Traced memory of each stage of one cylinder build.

Usage: python3 scripts/memory_probe.py --operad as_ns --arity 5

Runs the stages of ``chainw build`` in this process under tracemalloc,
with opres imported from the checkout holding this script, and prints
one line per stage: the traced memory held after it and the stage's
own peak, in MB.  The stages are

- assemble: w_reduced, which derives the enumeration blocks once, keys
  the basis by integers without building an element, and assembles the
  differentials with the d^2 check;
- complex_to_json: the report payload, with the basis labels rendered
  from the blocks the complex was built from;
- report: the report string, serialized as ``--json`` writes it.

Each stage keeps what the ones before it built, as the CLI does; no
stage builds a basis element.  The held figure is read after
``gc.collect()``, which empties CPython's free lists: freed tuples parked
there are still traced, so without it a stage that only makes more
short-lived tuples would read as memory held.  tracemalloc counts
Python's own allocations only, and it slows the build several times
over.  Standard library only.
"""

import argparse
import gc
import json
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--operad", required=True, help="as_ns, ass_sym or com")
    parser.add_argument("--arity", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from opres.chain_core import complex_to_json
    from opres.chain_operads import builtin_chain_operad, w_basis_labels, w_reduced

    P = builtin_chain_operad(args.operad)
    print(f"{args.operad} arity {args.arity}, traced MB")
    print(f"{'stage':<16} {'current':>8} {'peak':>8}")
    tracemalloc.start()

    def report(stage: str) -> None:
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        print(f"{stage:<16} {current / 1e6:>8.1f} {peak / 1e6:>8.1f}", flush=True)
        tracemalloc.reset_peak()

    C = w_reduced(P, args.arity)
    report("assemble")
    data = complex_to_json(C, labels=w_basis_labels(C))
    report("complex_to_json")
    text = json.dumps({"complex": data}, sort_keys=True, separators=(",", ":"))
    report("report")
    tracemalloc.stop()
    print(f"{sum(C.dim(k) for k in C.degrees())} basis elements, {len(text)} report bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
