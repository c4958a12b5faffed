"""Acceptance suite.

Eleven numbered criteria, one test and one printed PASS/FAIL line each.
Everything runs in exact arithmetic; each criterion carries a wall-clock
budget that is part of the acceptance condition.  Run with -s to see the
lines as they complete:

    python3 -m pytest tests/test_acceptance.py -s -v
"""

import json
import math
import time

from opres.bar_cobar import bar, bar_counit, check_twisting, compare_w_barcobar
from opres.chain_core import (
    ZZ,
    ChainComplex,
    SparseMat,
    homology,
    smith_normal_form,
    verify_d_squared,
)
from opres.chain_operads import builtin_chain_operad, chain_interval, w_pseudo, w_reduced
from opres.cli import main
from opres.segments import chain_segment
from opres.set_operads import (
    GodementTower,
    compare_free,
    compare_godement_w,
    confluence_experiment,
    get_builtin_operad,
    godement_simplicial_check,
    w_diamond_compare,
)


def report(num: int, ok: bool, seconds: float, text: str) -> str:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'} ({seconds:6.1f}s)  {text}"
    print(line)
    return line


def test_criterion_01_differential_squares_to_zero():
    t0 = time.perf_counter()
    problems = []
    for name, arities in (("as_ns", range(2, 6)), ("ass_sym", range(2, 5)),
                          ("com", range(2, 5))):
        P = builtin_chain_operad(name)
        for n in arities:
            try:
                C = w_reduced(P, n)
            except ValueError as exc:
                problems.append(f"{name} arity {n}: {exc}")
                continue
            problems.extend(f"{name} arity {n}: {m}" for m in verify_d_squared(C))
    dt = time.perf_counter() - t0
    ok = not problems and dt < 30
    line = report(1, ok, dt, "d^2 = 0 for the reduced cylinder, three operads"
                  + (f"; {problems[:1]}" if problems else ""))
    assert ok, line


def test_criterion_02_resolution_homology():
    t0 = time.perf_counter()
    bad = []
    for name, arities, rank in (("as_ns", range(2, 6), lambda n: 1),
                                ("ass_sym", range(2, 5), math.factorial)):
        P = builtin_chain_operad(name)
        for n in arities:
            rep = homology(w_reduced(P, n))
            if rep.nonzero_degrees() != [0] or rep.free_rank(0) != rank(n) \
                    or any(rep.torsion(k) for k in rep.by_degree):
                bad.append(f"{name} arity {n}: {rep.by_degree}")
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60
    line = report(2, ok, dt,
                  "cylinder homology free of rank 1 (planar) and n! (symmetric) "
                  "in degree 0" + (f"; {bad[:1]}" if bad else ""))
    assert ok, line


def test_criterion_03_rank_table():
    t0 = time.perf_counter()
    P = builtin_chain_operad("as_ns")
    C4 = w_pseudo(P, 4)
    C3 = w_pseudo(P, 3)
    dims4 = tuple(C4.dim(k) for k in (0, 1, 2))
    dims3 = tuple(C3.dim(k) for k in (0, 1))
    euler = sum((-1) ** k * C4.dim(k) for k in C4.degrees())
    dt = time.perf_counter() - t0
    ok = dims4 == (11, 15, 5) and euler == 1 and dims3 == (3, 2) and dt < 5
    line = report(3, ok, dt,
                  f"planar rank table arity 4 {dims4} euler {euler}, arity 3 {dims3}")
    assert ok, line


def test_criterion_04_cobar_bar_comparison(tmp_path):
    t0 = time.perf_counter()
    codes = {}
    for name in ("as_ns", "ass_sym"):
        for n in (2, 3, 4):
            rc = main(["barcobar", "compare-w", "--operad", name, "--arity", str(n),
                       "--json", str(tmp_path / f"{name}{n}.json")])
            codes[(name, n)] = rc
    dt = time.perf_counter() - t0
    ok = all(rc == 0 for rc in codes.values()) and dt < 60
    line = report(4, ok, dt,
                  "cylinder matches cobar of bar with a diagonal sign rescaling, "
                  f"exit codes {sorted(set(codes.values()))}")
    assert ok, line


def test_criterion_05_twisting_cochain():
    t0 = time.perf_counter()
    problems = []
    for name in ("as_ns", "ass_sym"):
        P = builtin_chain_operad(name)
        problems.extend(check_twisting(bar_counit(bar(P, 4))))
    dt = time.perf_counter() - t0
    ok = not problems and dt < 10
    line = report(5, ok, dt, "bar counit satisfies the twisting identity, arities <= 4"
                  + (f"; {problems[:1]}" if problems else ""))
    assert ok, line


def test_criterion_06_free_pointed_comparison():
    P = get_builtin_operad("ass")
    # Over the two-point chain {0 < 1} zero-length edges are contracted and
    # unit vertices deleted (Ass(1) is the unit alone), so arity 3 holds the
    # corollas, labeled by P(3),
    # and the trees of two binary vertices: 3 choices of the leaf pair on
    # the upper vertex times |P(2)|^2 labelings.  (30 = 18 + 3*|FAss(2)|^2
    # is the level-1 count, the cylinder over the three-point chain.)
    expected3 = len(P.elements(3)) + 3 * len(P.elements(2)) ** 2
    t0 = time.perf_counter()
    rep = compare_free(P, 3)
    dt = time.perf_counter() - t0
    size3 = rep["sizes"].get(3)
    ok = rep["status"] == "iso" and size3 == expected3 and dt < 10
    line = report(6, ok, dt,
                  f"two-point cylinder vs free pointed operad: bijection "
                  f"{rep['status']}, arity-3 count {size3} (required "
                  f"|P(3)| + 3|P(2)|^2 = {expected3})")
    assert ok, line


def test_criterion_07_godement_tower():
    t0 = time.perf_counter()
    tower = GodementTower(get_builtin_operad("ass"))
    bad = []
    for k in (0, 1, 2):
        rep = compare_godement_w(tower, k, 3)
        if rep["status"] != "iso":
            bad.append(f"level {k}: {rep['witness']}")
    bad.extend(godement_simplicial_check(tower, 2, 3))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 120
    line = report(7, ok, dt,
                  "cotriple levels match the simplex cylinders, simplicial "
                  "identities hold" + (f"; {bad[:1]}" if bad else ""))
    assert ok, line


def test_criterion_08_diamond_comparison():
    t0 = time.perf_counter()
    rep = w_diamond_compare(chain_segment(1), get_builtin_operad("ass"), 3, 4)
    dt = time.perf_counter() - t0
    ok = rep["status"] == "iso" and dt < 60
    line = report(8, ok, dt, f"doubled segment comparison at cap 4: {rep['status']}")
    assert ok, line


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_criterion_09_homology_engine():
    t0 = time.perf_counter()
    ok = True
    notes = []
    samples = [
        [[2]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[0, 0], [0, 0]],
        [[1, 2, 3], [4, 5, 6]],
    ]
    for A in samples:
        U, D, V = smith_normal_form(A)
        if _matmul(_matmul(U, A), V) != D:
            ok = False
            notes.append(f"factorization mismatch on {A}")
    doubling = ChainComplex(ZZ, {0: ("a",), 1: ("b",)},
                            {1: SparseMat(1, 1, [{0: 2}])})
    rep = homology(doubling)
    if rep.by_degree.get(0) != (0, (2,)) or rep.free_rank(1) or rep.torsion(1):
        ok = False
        notes.append(f"doubling complex gave {rep.by_degree}")
    rep = homology(chain_interval().complex())
    if rep.nonzero_degrees() != [0] or rep.by_degree[0] != (1, ()):
        ok = False
        notes.append(f"interval complex gave {rep.by_degree}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 1
    line = report(9, ok, dt, "normal form re-multiplies; torsion and interval "
                  "homology correct" + (f"; {notes[:1]}" if notes else ""))
    assert ok, line


def test_criterion_10_rewriting_confluence():
    t0 = time.perf_counter()
    configs = [
        ("ass", chain_segment(1), 11),
        ("ass", chain_segment(3), 22),
        ("com", chain_segment(2), 33),
        ("com", chain_segment(3), 44),
    ]
    total = 0
    failures = []
    for name, H, seed in configs:
        rep = confluence_experiment(get_builtin_operad(name), H, 300, seed)
        total += rep["instances"]
        failures.extend(rep["failures"])
    dt = time.perf_counter() - t0
    ok = total >= 1000 and not failures and dt < 120
    line = report(10, ok, dt,
                  f"{total} random instances confluent under all rewrite orders"
                  + (f"; first failure {failures[:1]}" if failures else ""))
    assert ok, line


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    commands = [
        ["trees", "enum", "--arity", "4", "--min-valence", "2"],
        ["chainw", "verify", "--check", "d2", "--operad", "as_ns", "--arity", "4"],
        ["chainw", "build", "--operad", "com", "--arity", "3"],
        ["chainw", "homology", "--operad", "ass_sym", "--arity", "3"],
        ["barcobar", "compare-w", "--operad", "as_ns", "--arity", "3"],
        ["setw", "compare-free", "--operad", "ass", "--arity", "3"],
        ["setw", "diamond-compare", "--operad", "ass", "--arity", "3", "--cap", "4"],
        ["godement", "compare-w", "--operad", "ass", "--level", "1", "--arity", "3"],
    ]
    stable = True
    culprit = None
    for i, argv in enumerate(commands):
        p1 = tmp_path / f"{i}a.json"
        p2 = tmp_path / f"{i}b.json"
        rc1 = main(argv + ["--json", str(p1)])
        rc2 = main(argv + ["--json", str(p2)])
        if rc1 != 0 or rc2 != 0 or p1.read_bytes() != p2.read_bytes():
            stable = False
            culprit = " ".join(argv)
            break
        json.loads(p1.read_text())
    dt = time.perf_counter() - t0
    ok = stable and dt < 120
    line = report(11, ok, dt, "repeated runs byte-identical across the command set"
                  + (f"; diverged on {culprit}" if culprit else ""))
    assert ok, line
