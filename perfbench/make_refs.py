"""Recompute the stored oracle references of the `curve` workload.

    python3 perfbench/make_refs.py        # writes perfbench/curve_refs.json

For each of the workload's 17 orderings it integrates 2 max(-W, 0) of the
truncated-Fock oracle PQD on a 4096 x 4096 midpoint grid over
[-10, 10]^2 (N_ref), and records the change from the 2048 x 2048 grid
(d_ref).  The state is built from its description by the exact operator
path, not from the program's branch decomposition.  Takes about three
minutes on one core; the benchmark only reads the file.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workload import CURVE  # noqa: E402

REF_N = 4096
REFS_PATH = os.path.join(HERE, "curve_refs.json")


def main() -> int:
    vec = checks.oracle_state(
        "squeeze_kerr_coherent", m=CURVE["m"], alpha=CURVE["alpha"], r=CURVE["r"]
    )
    orderings = [float(t) for t in np.linspace(CURVE["t_min"], CURVE["t_max"], CURVE["points"])]
    n_ref, d_ref = [], []
    for t in orderings:
        t0 = time.perf_counter()
        value, diff = checks.oracle_negativity_ref(vec, t, REF_N)
        n_ref.append(value)
        d_ref.append(diff)
        print(f"t={t:+.3f} N_ref={value:.10e} d_ref={diff:.3e} ({time.perf_counter() - t0:.1f} s)")
    refs = {
        "state": CURVE["state"],
        "n_max": checks.ORACLE_N_MAX,
        "window": checks.ORACLE_WINDOW,
        "grid": REF_N,
        "orderings": orderings,
        "n_ref": n_ref,
        "d_ref": d_ref,
    }
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
