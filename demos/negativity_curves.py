#!/usr/bin/env python3
"""Negativity volume against the ordering parameter for two Kerr states.

Prints N(t) tables for S(0.2) U(pi/3) |alpha=1> and U(pi/3) S(1) |0>, then
locates the ordering threshold of a squeezed vacuum (closed-form boundary)
and, with --full, of the interference states themselves (seconds each:
the search has to certify N <= 1e-9 all the way down to t = -1).

Run:  python demos/negativity_curves.py [--full] [--workers N]
"""

import argparse
import math
import time
from dataclasses import replace

from kerrpqd.negativity import QuadratureSpec, find_threshold, negativity_curve
from kerrpqd.states import (
    Branch,
    SqueezeParam,
    SuperpositionState,
    kerr_squeezed_vacuum,
    squeeze_then_kerr_state,
)


def show_curve(label, state, t_min, t_max, workers):
    spec = replace(QuadratureSpec.for_state(state), tol=1e-5)
    t0 = time.perf_counter()
    curve = negativity_curve(state, t_min, t_max, 9, spec, workers=workers)
    dt = time.perf_counter() - t0
    print(f"\n{label}  ({dt:.1f}s, window +-{spec.window:.1f})")
    print(f"  {'t':>8}  {'N(t)':>12}  {'err':>9}")
    for t, n, e in curve:
        print(f"  {t:8.3f}  {n:12.6f}  {e:9.1e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="also run the interference-state threshold searches")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    coherent_seed = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    vacuum_seed = kerr_squeezed_vacuum(3, 1.0)

    show_curve("S(0.2) U(pi/3) |alpha=1>", coherent_seed, -1.0, -0.2, args.workers)
    show_curve("U(pi/3) S(1) |0>", vacuum_seed, -1.0, -0.5, args.workers)

    print("\nordering thresholds (largest t with N(t) <= eps_neg):")
    sq = SuperpositionState((Branch(1.0, 0.0, SqueezeParam(0.5)),))
    tbar = find_threshold(sq, workers=args.workers)
    print(f"  squeezed vacuum r=0.5      t_bar = {tbar:+.6f}   (= e^-1 boundary, instant)")
    print(f"                             e^-2r = {math.exp(-1.0):+.6f}")

    if args.full:
        for label, state in (
            ("S(0.2) U(pi/2) |alpha=1>", squeeze_then_kerr_state(2, 1.0, SqueezeParam(0.2))),
            ("U(pi/3) S(0.5) |0>", kerr_squeezed_vacuum(3, 0.5)),
        ):
            t0 = time.perf_counter()
            tbar = find_threshold(state, eps_neg=1e-9, workers=args.workers)
            print(f"  {label:26s} t_bar = {tbar:+.6f}   ({time.perf_counter()-t0:.0f}s)")
        print("  (negativity survives to the Husimi end t = -1 for both)")
    else:
        print("  (pass --full for the interference states; each search takes seconds)")


if __name__ == "__main__":
    main()
