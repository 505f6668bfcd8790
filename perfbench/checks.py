"""Correctness checks on the benchmark's outputs.

Every check compares a program output with a value computed apart from the
program -- the truncated-Fock oracle or a closed form -- or with a property
the method must have.  Each checker is a pure function that returns a list
of problems; an empty list means the output is accepted.  The oracle
helpers are kept separate from the checkers so that the tests can feed the
checkers perturbed outputs without re-running the program.
"""

from __future__ import annotations

import math

import numpy as np

# Half-width of the square the oracle integrates max(-W, 0) over.  The
# program's own window for the benchmark states is below 9.8; the oracle
# covers a little more so that it never inherits the program's choice.
ORACLE_WINDOW = 10.0
ORACLE_BLOCK = 1024  # grid rows per oracle call, to bound memory
# Fock cutoff for the oracle states; the truncation budget check in
# build_state refuses it if it is too small for a state.
ORACLE_N_MAX = 60

NORM_TOL = 1e-8  # |analytic_integral - 1| of a normalized state's PQD
SINGLE_BRANCH_MARGIN = 1e-6  # the program's safety margin below e^{-2r}
STDERR_SIGMAS = 4.0
# A refused estimate is put down to the known sampler fault only if it is
# the recorded biased output: p_hat within this many of its stderr, and the
# stderr within this share of the recorded one.
KNOWN_FAULT_BAND = 0.25
KNOWN_STDERR_SHARE = 0.01


# ---------------------------------------------------------------------------
# oracle references
# ---------------------------------------------------------------------------


def oracle_negativity(vec, t: float, n: int, window: float = ORACLE_WINDOW) -> float:
    """2 sum max(-W, 0) h^2 of the oracle PQD on an n x n midpoint grid."""
    from kerrpqd.fock_oracle import oracle_pqd_grid

    h = 2.0 * window / n
    axis = -window + (np.arange(n) + 0.5) * h
    total = 0.0
    for lo in range(0, n, ORACLE_BLOCK):
        grid = oracle_pqd_grid(vec, t, axis[lo : lo + ORACLE_BLOCK], axis)
        total += float(np.maximum(-grid, 0.0).sum())
    return 2.0 * total * h * h


def oracle_negativity_ref(vec, t: float, n: int):
    """(N_ref, d_ref): N_ref on n points per axis, d_ref its change from n/2."""
    fine = oracle_negativity(vec, t, n)
    coarse = oracle_negativity(vec, t, n // 2)
    return fine, abs(fine - coarse)


def oracle_state(kind: str, m: int = 1, alpha: complex = 0.0, r: float = 0.0):
    """Fock vector of a described state, built by the exact operator path."""
    from kerrpqd.fock_oracle import build_state
    from kerrpqd.states import StateDescription

    desc = StateDescription(kind=kind, m=m, alpha=complex(alpha), r=r, phi=0.0)
    return build_state(desc, ORACLE_N_MAX)


def oracle_off_probability(vec, noise) -> float:
    """No-click probability after network loss eta_L, from the Fock oracle."""
    from kerrpqd.fock_oracle import oracle_loss, oracle_off_probability as off

    return off(oracle_loss(vec, noise.eta_L), noise)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_curve(points, refs: dict, norms, tol: float) -> list:
    """Problems with one (t, N, err) curve against the stored oracle references.

    At every ordering |N - N_ref| <= err + d_ref and err <= tol; at the
    Husimi point t = -1 the distribution is non-negative, so N <= err; and
    the PQD integrates to one at every ordering.
    """
    problems = []
    if len(points) != len(refs["orderings"]):
        return [f"curve has {len(points)} points, expected {len(refs['orderings'])}"]
    for (t, n, err), t_ref, n_ref, d_ref, norm in zip(
        points, refs["orderings"], refs["n_ref"], refs["d_ref"], norms
    ):
        if abs(t - t_ref) > 1e-12:
            problems.append(f"ordering {t!r} differs from the reference {t_ref!r}")
            continue
        if not abs(n - n_ref) <= err + d_ref:
            problems.append(
                f"t={t:+.3f}: |N - N_ref| = {abs(n - n_ref):.3e} > err + d_ref = {err + d_ref:.3e}"
            )
        if not err <= tol:
            problems.append(f"t={t:+.3f}: err {err:.3e} above the requested tol {tol:.1e}")
        if t == -1.0 and not n <= err:
            problems.append(f"t=-1: N = {n:.3e} above err {err:.3e}, but the Husimi function is >= 0")
        if not abs(norm - 1.0) <= NORM_TOL:
            problems.append(f"t={t:+.3f}: PQD integral {norm!r} is not 1")
    return problems


def check_threshold(case: dict, t_bar: float, bracket=None) -> list:
    """Problems with one t_bar against the case's expectation.

    `case["expect"]` is "husimi" for multi-branch states (two or more
    distinct coherent branches leave Husimi zeros, so negativity survives
    for every t > -1 and t_bar = -1), "gaussian" for single-branch or
    collapsed states (t_bar = e^{-2r} - 1e-6), and "floor" for a case whose
    t_bar lies strictly inside (-1, t_sup).  For "floor", `bracket` is
    ((N_ref(t_bar), d_ref), (N_ref(t_bar + tol_t), d_ref)) from the oracle.
    """
    tol_t = case["tol_t"]
    eps = case["eps_neg"]
    kind = case["expect"]
    if kind == "husimi":
        want = -1.0
    elif kind == "gaussian":
        want = math.exp(-2.0 * case["r"]) - SINGLE_BRANCH_MARGIN
    elif kind == "floor":
        if not t_bar > -1.0 + tol_t:
            return [f"{case['state']}: t_bar {t_bar!r} not inside (-1, t_sup)"]
        (lo_n, lo_d), (hi_n, hi_d) = bracket
        problems = []
        if not lo_n <= eps + lo_d:
            problems.append(
                f"{case['state']}: N_ref(t_bar) = {lo_n:.4e} above eps_neg {eps:.1e} + d_ref {lo_d:.1e}"
            )
        if not hi_n >= eps - hi_d:
            problems.append(
                f"{case['state']}: N_ref(t_bar + tol_t) = {hi_n:.4e} below eps_neg {eps:.1e} - d_ref {hi_d:.1e}"
            )
        return problems
    else:
        raise ValueError(f"unknown expectation {kind!r}")
    if not abs(t_bar - want) <= tol_t:
        return [f"{case['state']}: t_bar {t_bar!r}, expected {want!r} within {tol_t}"]
    return []


def check_sample(p_hat: float, stderr: float, p_ref: float) -> list:
    """Problems with one estimate: it must lie within 4 stderr of the oracle."""
    if not stderr > 0.0:
        return [f"stderr {stderr!r} is not positive"]
    if not abs(p_hat - p_ref) <= STDERR_SIGMAS * stderr:
        return [
            f"p_hat {p_hat!r} is {abs(p_hat - p_ref) / stderr:.2f} stderr from the oracle {p_ref!r}"
        ]
    return []


def check_sample_known_fault(p_hat: float, stderr: float, p_ref: float, known=None):
    """(problems, faults) of one estimate, given the recorded faulty output.

    `known` is the (p_hat, stderr) that a known program fault makes for
    this estimator seed, or None.  An estimate that passes `check_sample`
    gives neither.  A refused estimate is a fault only if it matches
    `known`; any other refusal is a problem.
    """
    refused = check_sample(p_hat, stderr, p_ref)
    if not refused:
        return [], []
    if known is not None:
        known_p, known_stderr = known
        if (
            abs(p_hat - known_p) <= KNOWN_FAULT_BAND * known_stderr
            and abs(stderr - known_stderr) <= KNOWN_STDERR_SHARE * known_stderr
        ):
            return [], refused
    return refused, []
