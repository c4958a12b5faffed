#!/usr/bin/env python3
"""Digests of the --json reports of a fixed list of opres commands.

Usage: python3 scripts/report_digests.py [CHECKOUT]

Each command runs in process through ``opres.cli.main(argv + ["--json",
path])`` with opres imported from CHECKOUT/src (default: the checkout
holding this script) and CHECKOUT as the working directory, so that the
graded tables under scripts/data/ resolve there.  One line
"sha256  command" is printed per report.  The exit code is 1 if any
command exits nonzero, raises, or writes no report.  Running the script
once on each of two checkouts and diffing the output shows whether a
change kept every report byte-identical; scripts/report_digests.txt
holds the expected output, and CI diffs a fresh run against it.  A
command is split into arguments as a POSIX shell would (shlex).
Standard library only.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

COMMANDS = (
    "chainw build --operad ass_sym --arity 5",
    "chainw build --operad com --arity 6",
    "chainw build --operad as_ns --arity 7",
    "chainw build --operad ass_sym --arity 4 --ring F2",
    "chainw homology --operad ass_sym --arity 5",
    "chainw homology --operad as_ns --arity 6 --ring Q",
    "chainw homology --operad com --arity 5 --ring F3",
    "chainw verify --check all --operad com --arity 5",
    "chainw verify --check d2 --operad ass_sym --arity 4",
    "barcobar build --operad ass_sym --arity 4 --which both",
    "barcobar compare-w --operad ass_sym --arity 4",
    "barcobar compare-w --operad com --arity 4",
    "barcobar verify-twisting --operad ass_sym --arity 4",
    "barcobar build --operad com --arity 4 --which cobar",
    "setw build --operad ass --arity 4 --segment chain:2",
    "setw build --operad com --arity 4 --segment delta1:1",
    "setw compare-free --operad ass --arity 4",
    "setw diamond-compare --operad ass --arity 3 --cap 3",
    "godement build --operad ass --level 2 --arity 3",
    "godement compare-w --operad ass --level 1 --arity 3",
    "godement compare-w --operad ass --level 2 --arity 3",
    "godement build --operad ass --level 1 --arity 4",
    "setw diamond-compare --operad com --arity 4 --cap 4",
    "setw build --operad ass --arity 4 --segment diamond:interval --cap 3",
    "setw build --operad com --arity 5 --segment chain:3 --cap 4",
    "setw compare-free --operad com --arity 5",
    "barcobar verify-twisting --operad com --arity 5",
    "chainw verify --check all --operad ass_sym --arity 4",
    # endv(3): labels of both parities, label boundaries, unary labels and
    # an edge cap, which no builtin reaches
    "chainw build --operad scripts/data/endv3_ns.json --arity 3 --cap 1",
    "chainw build --operad scripts/data/endv3_sym.json --arity 3 --cap 1",
    "chainw homology --operad scripts/data/endv3_ns.json --arity 2 --cap 2",
    "chainw homology --operad scripts/data/endv3_sym.json --arity 2 --cap 2",
    # the unit summand, alone (arity 0) and under a unary table whose
    # edge cap reaches 11-vertex trees, past every builtin's
    "chainw build --operad scripts/data/unary_ns.json --arity 1 --cap 10 --unsafe",
    "chainw build --operad as_ns --arity 0",
    # homology with five or more nonzero differentials, where clearing
    # drops columns from every differential below the top one
    "chainw homology --operad as_ns --arity 7",
    "chainw homology --operad com --arity 6 --ring F2",
    # a capped symmetric build, and a ring change over a keyed basis
    "chainw build --operad com --arity 5 --cap 2",
    "chainw homology --operad ass_sym --arity 5 --ring Q",
    # rational entries rendered in a build report
    "chainw build --operad com --arity 4 --ring Q",
    # entries 2 and 1 over F3, the one build whose entry text over a
    # finite field is not +-1
    "chainw build --operad com --arity 5 --ring F3",
    # the tree census and one automorphism group
    "trees classes --arity 5 --min-valence 2",
    'trees aut --tree "((| |) (| |))"',
    # the templated bar and cobar differentials: labels of odd parity
    # under an edge cap, and the arity-5 comparisons and twisting check
    "barcobar compare-w --operad scripts/data/endv3_sym.json --arity 3 --cap 1",
    "barcobar compare-w --operad scripts/data/endv3_ns.json --arity 3 --cap 1",
    "barcobar compare-w --operad com --arity 5",
    "barcobar verify-twisting --operad ass_sym --arity 5",
    "barcobar compare-w --operad ass_sym --arity 5",
    # cobar complexes printed in full from graded and unary labels
    "barcobar build --operad scripts/data/endv3_sym.json --arity 3 --cap 2 --which cobar",
    "barcobar build --operad scripts/data/endv3_ns.json --arity 3 --cap 2 --which both",
    "barcobar build --operad scripts/data/unary_ns.json --arity 2 --cap 3 --which cobar",
    # a capped free comparison, a com tower level against W over delta1:1,
    # and the diamond of a three-element chain
    "setw compare-free --operad com --arity 5 --cap 3",
    "godement compare-w --operad com --level 1 --arity 4",
    "setw diamond-compare --operad com --arity 4 --cap 4 --segment chain:2",
    # graded cylinders at edge cap 2, whose blocks share vertex skeletons
    # across labelings of different parities
    "chainw build --operad scripts/data/endv3_ns.json --arity 3 --cap 2",
    "chainw build --operad scripts/data/endv3_sym.json --arity 3 --cap 2",
    # a planar and a capped unary comparison, both with mixed signs in
    # the rescaling
    "barcobar compare-w --operad as_ns --arity 6",
    "barcobar compare-w --operad scripts/data/unary_ns.json --arity 2 --cap 3",
    # the free complex on graded labels, whose columns take the label
    # boundary with no marked edge
    "chainw verify --check all --operad scripts/data/endv3_sym.json --arity 3 --cap 1",
    "chainw verify --check all --operad scripts/data/endv3_ns.json --arity 3 --cap 1",
    # a set-level table read from a file (com up to arity 3, with names of
    # its own), built and compared as a tower level, and com's level 2
    "setw build --operad scripts/data/com3_set.json --arity 3",
    "godement compare-w --operad scripts/data/com3_set.json --level 1 --arity 3",
    "godement compare-w --operad com --level 2 --arity 3",
    # a segment serialized, and the same segment read back from a file
    "segment make --name delta1:2",
    "segment check --file scripts/data/delta1_2_segment.json",
    # the planar tree census
    "trees enum --arity 4 --min-valence 2",
    # homology of a complex file (the cellular chains of the real
    # projective plane), over Z and over the ring that overrides the file's
    "homology --file scripts/data/rp2_complex.json",
    "homology --file scripts/data/rp2_complex.json --ring F2",
)


def run(main, command: str, path: str) -> str | None:
    """The sha256 of the report of one command, or None if it failed."""
    if os.path.exists(path):
        os.remove(path)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(shlex.split(command) + ["--json", path])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed command, reported below
        print(f"{command}: raised {exc!r}", file=sys.stderr)
        return None
    if code != 0:
        print(f"{command}: exit code {code}", file=sys.stderr)
        return None
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        print(f"{command}: no report ({exc})", file=sys.stderr)
        return None


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path.insert(0, os.path.join(root, "src"))
    os.chdir(root)
    from opres.cli import main as cli_main

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        for command in COMMANDS:
            digest = run(cli_main, command, path)
            if digest is None:
                failed += 1
                digest = "FAILED"
            print(f"{digest}  {command}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
