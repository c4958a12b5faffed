#!/usr/bin/env python3
"""Homology tables for the cylinder resolutions of the builtin operads.

Prints one table per arity: degreewise dimensions of the reduced
complex, free rank, and torsion.  A field ring gives Betti numbers
instead."""

import argparse
from dataclasses import dataclass

from opres.chain_core import change_ring, homology, ring_from_name
from opres.chain_operads import builtin_chain_operad, w_reduced


@dataclass
class Config:
    operad: str = "as_ns"
    max_arity: int = 4
    ring: str = "Z"
    edge_cap: int | None = None


def run(cfg: Config) -> None:
    P = builtin_chain_operad(cfg.operad)
    ring = ring_from_name(cfg.ring)
    for n in range(2, cfg.max_arity + 1):
        C = change_ring(w_reduced(P, n, cfg.edge_cap), ring)
        rep = homology(C)
        print(f"\n{cfg.operad} arity {n} over {cfg.ring}"
              + (f" (edge cap {cfg.edge_cap})" if cfg.edge_cap is not None else ""))
        print("degree  dim  free  torsion")
        for k in sorted(C.degrees()):
            free, tors = rep.by_degree.get(k, (0, ()))
            t = ",".join(map(str, tors)) or "-"
            print(f"{k:>6}  {C.dim(k):>3}  {free:>4}  {t}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--operad", default="as_ns", choices=("as_ns", "ass_sym", "com"))
    ap.add_argument("--max-arity", type=int, default=4)
    ap.add_argument("--ring", default="Z")
    ap.add_argument("--edge-cap", type=int, default=None)
    a = ap.parse_args()
    run(Config(a.operad, a.max_arity, a.ring, a.edge_cap))


if __name__ == "__main__":
    main()
