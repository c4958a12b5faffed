"""Command line front end.

Loads operads and segments (builtin names or JSON files), runs the
constructions and verifications, prints small human tables, and writes a
machine report via --json.  Exit codes: 0 success or verified, 1 a
verification failed (the report carries the witness), or a complex
built from an operad fails d^2 = 0 or an exact self-check fails (the
witness goes to stderr), 2 usage or input errors, 3 an internal fault
(any other exception, reported on stderr without a traceback).
Reports are byte-stable for a fixed invocation and version.  The arity
ceiling HARD_ARITY, lifted by --unsafe, is the only bound on arity: the
builtin operads are defined in every arity.
"""

import argparse
import functools
import json
import os
import sys

from . import __version__
from .bar_cobar import (
    _bar_key,
    _cobar_key,
    bar,
    bar_counit,
    check_twisting,
    cobar,
    compare_w_barcobar,
)
from .chain_core import (
    SelfCheckError,
    VerificationError,
    change_ring,
    complex_from_json,
    complex_to_json,
    homology,
    ring_from_name,
)
from .chain_operads import (
    builtin_chain_operad,
    load_chain_operad,
    verify_w_construction,
    w_basis_labels,
    w_reduced,
)
from .segments import (
    chain_segment,
    delta1_level,
    diamond,
    segment_check,
    segment_from_json,
    segment_to_json,
)
from .set_operads import (
    GodementTower,
    WSetOperad,
    check_godement_level,
    compare_free,
    element_to_json,
    get_builtin_operad,
    operad_from_json,
    w_diamond_compare,
)
from .trees import aut_generators, aut_order, build_tree, enumerate_planar, iso_classes

HARD_ARITY = 8
HARD_CAP = 8

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# -- input loading -----------------------------------------------------------


def _looks_like_path(text: str) -> bool:
    return text.endswith(".json") or os.path.sep in text


def _load_segment(text: str, is_file: bool = False):
    """A builtin segment name, or a JSON file when text looks like a
    path or is_file is set.

    Names: "interval" (two-element chain), "chain:m", "delta1:k", and
    "diamond:NAME" wrapping any of these."""
    if is_file or _looks_like_path(text):
        with open(text) as fh:
            return segment_from_json(json.load(fh))
    if text == "interval":
        return chain_segment(1)
    if text.startswith("chain:"):
        return chain_segment(int(text.split(":", 1)[1]))
    if text.startswith("delta1:"):
        return delta1_level(int(text.split(":", 1)[1]))
    if text.startswith("diamond:"):
        return diamond(_load_segment(text.split(":", 1)[1]))
    raise ValueError(f"unknown segment {text!r}")


def _load_set_operad(text: str):
    if _looks_like_path(text):
        with open(text) as fh:
            return operad_from_json(json.load(fh))
    return get_builtin_operad(text)


def _load_chain_operad(text: str):
    if _looks_like_path(text):
        with open(text) as fh:
            return load_chain_operad(json.load(fh))
    return builtin_chain_operad(text)


def _ring_arg(text: str) -> str:
    if text in ("Z", "Q") or (text[:1] == "F" and text[1:].isdigit()):
        try:
            ring_from_name(text)
            return text
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"ring must be Z, Q, or Fp with p prime (got {text!r})")


def _nonneg(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


def _homology_payload(C) -> dict:
    rep = homology(C)
    rows = {
        str(k): {"free": r, "torsion": list(t)} for k, (r, t) in sorted(rep.by_degree.items())
    }
    return {"ring": rep.ring_name, "by_degree": rows}


def _print_homology(payload: dict) -> None:
    print(f"homology over {payload['ring']}")
    print("degree  free  torsion")
    for k, row in sorted(payload["by_degree"].items(), key=lambda kv: int(kv[0])):
        tor = ",".join(map(str, row["torsion"])) or "-"
        print(f"{k:>6}  {row['free']:>4}  {tor}")


# -- handlers ----------------------------------------------------------------


def _h_trees_enum(a):
    ts = enumerate_planar(a.arity, a.max_edges, a.min_valence)
    for t in ts:
        print(t.notation())
    print(f"{len(ts)} planar trees")
    return "verified", {"count": len(ts), "trees": [t.notation() for t in ts]}


def _h_trees_classes(a):
    classes = iso_classes(a.arity, a.max_edges, a.min_valence)
    rows = []
    for c in classes:
        rows.append(
            {
                "tree": c.tree.notation(),
                "aut_order": c.aut_order,
                "planar_count": c.planar_count,
            }
        )
        print(f"{c.tree.notation()}  aut={c.aut_order}  planar={c.planar_count}")
    print(f"{len(classes)} isomorphism classes")
    return "verified", {"count": len(classes), "classes": rows}


def _h_trees_aut(a):
    t = build_tree(a.tree)
    gens = aut_generators(t)
    payload = {
        "tree": t.notation(),
        "order": aut_order(t),
        "generators": [
            {"kind": g.kind, "description": g.description, "leaf_perm": list(g.leaf_perm)}
            for g in gens
        ],
    }
    print(f"{t.notation()}  aut order {payload['order']}, {len(gens)} generators")
    return "verified", payload


def _h_segment_make(a):
    H = _load_segment(a.name)
    problems = segment_check(H)
    print(f"segment with elements {', '.join(H.elements)}")
    payload = {"segment": segment_to_json(H), "problems": problems}
    return ("verified" if not problems else "failed"), payload


def _h_segment_check(a):
    H = _load_segment(a.file, True) if a.file else _load_segment(a.name)
    problems = segment_check(H)
    for msg in problems:
        print(msg)
    payload = {"size": H.size, "problems": problems}
    return ("verified" if not problems else "failed"), payload


def _h_setw_build(a):
    P = _load_set_operad(a.operad)
    H = _load_segment(a.segment)
    W = WSetOperad(H, P, a.cap)
    els = W.elements(a.arity)
    print(f"{len(els)} elements in arity {a.arity}")
    payload = {
        "arity": a.arity,
        "count": len(els),
        "elements": [element_to_json(P, e) for e in els],
    }
    return "verified", payload


def _comparison(rep: dict):
    """A comparator's report as (status, payload), its witness printed."""
    if rep["witness"]:
        print(rep["witness"])
    return ("verified" if rep["status"] == "iso" else "failed"), rep


def _h_setw_compare_free(a):
    return _comparison(compare_free(_load_set_operad(a.operad), a.arity, a.cap))


def _h_setw_diamond(a):
    P = _load_set_operad(a.operad)
    return _comparison(w_diamond_compare(_load_segment(a.segment), P, a.arity, a.cap))


def _h_godement_build(a):
    P = _load_set_operad(a.operad)
    tower = GodementTower(P)
    els = tower.elements(a.level, a.arity)
    flats = [tower.flatten(a.level, x) for x in els]
    print(f"{len(els)} elements at level {a.level}, arity {a.arity}")
    payload = {
        "level": a.level,
        "arity": a.arity,
        "count": len(els),
        "flattened": [element_to_json(P, e) for e in flats],
    }
    return "verified", payload


def _h_godement_compare(a):
    tower = GodementTower(_load_set_operad(a.operad))
    rep, identities = check_godement_level(tower, a.level, a.arity)
    ok = rep["status"] == "iso" and not identities
    if rep["witness"]:
        print(rep["witness"])
    for msg in identities:
        print(msg)
    payload = {"comparison": rep, "simplicial_identities": identities}
    return ("verified" if ok else "failed"), payload


def _h_chainw_build(a):
    P = _load_chain_operad(a.operad)
    C = change_ring(w_reduced(P, a.arity, a.cap), ring_from_name(a.ring))
    data = complex_to_json(C, labels=w_basis_labels(C))
    dims = {str(k): C.dim(k) for k in sorted(C.degrees())}
    print("dims " + " ".join(f"{k}:{v}" for k, v in dims.items()))
    return "verified", {"arity": a.arity, "dims": dims, "complex": data}


def _h_chainw_verify(a):
    P = _load_chain_operad(a.operad)
    if a.check == "d2":
        try:
            w_reduced(P, a.arity, a.cap)
            problems = []
        except VerificationError as exc:
            problems = [str(exc)]
    else:
        problems = verify_w_construction(P, a.arity, a.cap)
    for msg in problems:
        print(msg)
    return ("verified" if not problems else "failed"), {
        "check": a.check,
        "problems": problems,
    }


def _h_chainw_homology(a):
    P = _load_chain_operad(a.operad)
    C = change_ring(w_reduced(P, a.arity, a.cap), ring_from_name(a.ring))
    payload = _homology_payload(C)
    _print_homology(payload)
    return "verified", payload


def _h_barcobar_build(a):
    P = _load_chain_operad(a.operad)
    Co = bar(P, a.arity, a.cap)
    payload: dict = {"arity": a.arity}
    if a.which in ("bar", "both"):
        piece = Co.piece(a.arity)
        payload["bar"] = complex_to_json(piece, label_str=_bar_key)
        print("bar dims " + " ".join(f"{k}:{piece.dim(k)}" for k in sorted(piece.degrees())))
    if a.which in ("cobar", "both"):
        X = cobar(Co, a.arity, a.cap)
        payload["cobar"] = complex_to_json(X, label_str=_cobar_key)
        print("cobar dims " + " ".join(f"{k}:{X.dim(k)}" for k in sorted(X.degrees())))
    return "verified", payload


def _h_barcobar_twisting(a):
    P = _load_chain_operad(a.operad)
    for n in range(1, a.arity + 1):
        P.complex(n)  # the twisting identity presumes d^2 = 0 in P
    problems = check_twisting(bar_counit(bar(P, a.arity, a.cap)))
    for msg in problems:
        print(msg)
    return ("verified" if not problems else "failed"), {"problems": problems}


def _h_barcobar_compare(a):
    return _comparison(compare_w_barcobar(_load_chain_operad(a.operad), a.arity, a.cap))


def _h_homology_file(a):
    with open(a.file) as fh:
        data = json.load(fh)
    if a.ring is not None and isinstance(data, dict):
        data["ring"] = a.ring
    try:
        C = complex_from_json(data)
    except VerificationError as exc:
        raise ValueError(str(exc)) from None  # a file failing d^2 is bad input
    payload = _homology_payload(C)
    _print_homology(payload)
    return "verified", payload


# -- parser ------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser; it is constant, so one process builds it
    once."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the machine report to PATH")
    common.add_argument("--unsafe", action="store_true",
                        help="lift the hard parameter ceilings")

    parser = argparse.ArgumentParser(
        prog="opres",
        description="Operadic resolutions on labeled trees.",
    )
    parser.add_argument("--version", action="version", version=f"opres {__version__}")
    groups = parser.add_subparsers(dest="group", required=True, metavar="COMMAND")

    def leaf(sub, name, handler, help_, **extra):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.set_defaults(handler=handler, **extra)
        return p

    p_trees = groups.add_parser("trees", help="planar trees and their symmetries")
    tsub = p_trees.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = leaf(tsub, "enum", _h_trees_enum, "enumerate planar trees")
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--max-edges", type=_nonneg, default=None)
    p.add_argument("--min-valence", type=_nonneg, default=0)
    p = leaf(tsub, "classes", _h_trees_classes, "isomorphism classes with automorphisms")
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--max-edges", type=_nonneg, default=None)
    p.add_argument("--min-valence", type=_nonneg, default=0)
    p = leaf(tsub, "aut", _h_trees_aut, "automorphism group of one tree")
    p.add_argument("--tree", required=True, help="nested notation, e.g. '(| (| |))'")

    p_seg = groups.add_parser("segment", help="composition segments")
    ssub = p_seg.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = leaf(ssub, "make", _h_segment_make, "build a named segment and serialize it")
    p.add_argument("--name", required=True,
                   help="interval, chain:m, delta1:k, diamond:NAME, or a JSON file")
    p = leaf(ssub, "check", _h_segment_check, "validate the segment axioms")
    p.add_argument("--name", default=None, help="builtin segment name")
    p.add_argument("--file", default=None, help="segment JSON file")

    p_setw = groups.add_parser("setw", help="set-level cylinder constructions")
    wsub = p_setw.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = leaf(wsub, "build", _h_setw_build, "enumerate cylinder elements of one arity")
    p.add_argument("--operad", required=True, help="ass, com, or a JSON file")
    p.add_argument("--segment", default="interval")
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, default=None, help="vertex cap")
    p = leaf(wsub, "compare-free", _h_setw_compare_free,
             "match the interval cylinder with the pointed free operad")
    p.add_argument("--operad", required=True)
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, default=None, help="vertex cap")
    p = leaf(wsub, "diamond-compare", _h_setw_diamond,
             "match the doubled segment with free pointed on the cylinder")
    p.add_argument("--operad", required=True)
    p.add_argument("--segment", default="interval")
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, required=True, help="vertex cap (required)")

    p_god = groups.add_parser("godement", help="the cotriple tower")
    gsub = p_god.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = leaf(gsub, "build", _h_godement_build, "enumerate one tower level")
    p.add_argument("--operad", required=True)
    p.add_argument("--level", type=_nonneg, required=True)
    p.add_argument("--arity", type=_nonneg, required=True)
    p = leaf(gsub, "compare-w", _h_godement_compare,
             "match a tower level with the cylinder over its segment")
    p.add_argument("--operad", required=True)
    p.add_argument("--level", type=_nonneg, required=True)
    p.add_argument("--arity", type=_nonneg, required=True)

    p_chw = groups.add_parser("chainw", help="chain-level cylinder over the interval")
    csub = p_chw.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = leaf(csub, "build", _h_chainw_build, "build and serialize the complex")
    p.add_argument("--operad", required=True, help="as_ns, ass_sym, com, or a JSON file")
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, default=None, help="edge cap")
    p.add_argument("--ring", type=_ring_arg, default="Z")
    p = leaf(csub, "verify", _h_chainw_verify, "run the structural checks")
    p.add_argument("--operad", required=True)
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, default=None, help="edge cap")
    p.add_argument("--check", choices=("d2", "all"), default="all")
    p = leaf(csub, "homology", _h_chainw_homology, "integer or field homology table")
    p.add_argument("--operad", required=True)
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, default=None, help="edge cap")
    p.add_argument("--ring", type=_ring_arg, default="Z")

    p_bc = groups.add_parser("barcobar", help="bar and cobar expansions")
    bsub = p_bc.add_subparsers(dest="action", required=True, metavar="ACTION")
    p = leaf(bsub, "build", _h_barcobar_build, "build and serialize the complexes")
    p.add_argument("--operad", required=True)
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, default=None, help="total vertex cap")
    p.add_argument("--which", choices=("bar", "cobar", "both"), default="both")
    p = leaf(bsub, "verify-twisting", _h_barcobar_twisting,
             "check the counit twisting identity")
    p.add_argument("--operad", required=True)
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, default=None, help="total vertex cap")
    p = leaf(bsub, "compare-w", _h_barcobar_compare,
             "match the cylinder with the cobar-of-bar complex")
    p.add_argument("--operad", required=True)
    p.add_argument("--arity", type=_nonneg, required=True)
    p.add_argument("--cap", type=_nonneg, default=None,
                   help="cylinder edge cap; the tree side caps correspondingly")

    p = leaf(groups, "homology", _h_homology_file, "homology of a complex JSON file",
             action=None)
    p.add_argument("--file", required=True)
    p.add_argument("--ring", type=_ring_arg, default=None,
                   help="override the ring recorded in the file")

    return parser


def _enforce_limits(parser, args) -> None:
    if getattr(args, "unsafe", False):
        return
    for flag, cap in (("arity", HARD_ARITY), ("cap", HARD_CAP),
                      ("level", HARD_CAP), ("max_edges", HARD_CAP)):
        v = getattr(args, flag, None)
        if v is not None and v > cap:
            parser.error(
                f"--{flag.replace('_', '-')} {v} exceeds the ceiling {cap}; "
                "pass --unsafe to override"
            )


def _truncated(args) -> bool:
    return any(
        getattr(args, flag, None) is not None for flag in ("cap", "max_edges")
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _enforce_limits(parser, args)
    if args.group == "segment" and args.action == "check":
        if not (args.name or args.file):
            parser.error("segment check needs --name or --file")
    try:
        status, payload = args.handler(args)
    except (SelfCheckError, VerificationError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report = {
        "status": status,
        "payload": payload,
        "truncated": _truncated(args),
        "provenance": {
            "tool": "opres",
            "version": __version__,
            "command": " ".join(
                part for part in (args.group, getattr(args, "action", None)) if part
            ),
            "parameters": {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("handler", "json_path", "group", "action")
                and not callable(v)
            },
        },
    }
    if args.json_path:
        with open(args.json_path, "w") as fh:
            # two writes: appending the newline would copy a multi-MB report
            fh.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    print(f"status: {status}")
    return EXIT_OK if status == "verified" else EXIT_FAILED
