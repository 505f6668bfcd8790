"""End-to-end acceptance gate.

One test per criterion, each printing a single PASS/FAIL line with the
measured numbers (visible with -s, or in the captured output on failure).
The threshold table in criterion 3 dominates the runtime; the whole module
takes about 15 s on two cores.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.signal import fftconvolve

from kerrpqd.fock_oracle import (
    build_state,
    displacement_matrix,
    oracle_char,
    oracle_loss,
    oracle_off_probability,
    oracle_pqd_grid,
)
from kerrpqd.negativity import (
    QuadratureSpec,
    find_threshold,
    negativity_curve,
)
from kerrpqd.phase_space import (
    dyadic_char,
    superposition_pqd,
)
from kerrpqd.simulability import (
    NoiseParams,
    detector_order_threshold,
    estimate_click_probability,
    thermal_threshold_verdict,
    uniform_threshold_verdict,
)
from kerrpqd.states import (
    Branch,
    SqueezeParam,
    SuperpositionState,
    compose_squeezing,
    kerr_coherent_state,
    kerr_squeezed_vacuum,
    squeeze_then_kerr_state,
    su11_matrix,
)

CURVE_STATE = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
VACUUM_CURVE_STATE = kerr_squeezed_vacuum(3, 1.0)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _single_branch(r: float, phi: float = 0.0, alpha: complex = 0.0) -> SuperpositionState:
    return SuperpositionState((Branch(1.0, alpha, SqueezeParam(r, phi)),))


# ---------------------------------------------------------------------------
# 1-2: negativity curves
# ---------------------------------------------------------------------------


def test_criterion_1_squeeze_kerr_coherent_curve():
    spec = replace(QuadratureSpec.for_state(CURVE_STATE), tol=1e-5)
    t0 = time.perf_counter()
    curve = negativity_curve(CURVE_STATE, -1.0, -0.2, 17, spec, workers=1)
    runtime = time.perf_counter() - t0
    pts = curve.points
    monotone = all(
        n0 <= n1 + 2.0 * max(e0, e1)
        for (_, n0, e0), (_, n1, e1) in zip(pts, pts[1:])
    )
    n_husimi = pts[0][1]
    ok = monotone and n_husimi <= 1e-4 and runtime <= 60.0 and len(pts) == 17
    _report(
        1,
        ok,
        f"curve monotone={monotone}, N(-1)={n_husimi:.2e} (<=1e-4), "
        f"runtime {runtime:.1f}s (<=60s)",
    )


def test_criterion_2_kerr_squeezed_vacuum_curve():
    spec = replace(QuadratureSpec.for_state(VACUUM_CURVE_STATE), tol=1e-5)
    curve = negativity_curve(VACUUM_CURVE_STATE, -1.0, -0.5, 17, spec, workers=1)
    pts = curve.points
    monotone = all(
        n0 <= n1 + 2.0 * max(e0, e1)
        for (_, n0, e0), (_, n1, e1) in zip(pts, pts[1:])
    )
    n_husimi = pts[0][1]
    ok = monotone and n_husimi <= 1e-4
    _report(2, ok, f"curve monotone={monotone}, N(-1)={n_husimi:.2e} (<=1e-4)")


# ---------------------------------------------------------------------------
# 3: ordering-threshold table
# ---------------------------------------------------------------------------


def test_criterion_3_threshold_table():
    cases = []
    for r in (0.2, 0.5, 1.0):
        cases.append((f"squeezed_vacuum r={r}", _single_branch(r), math.exp(-2 * r)))
    for m, r, alpha in ((2, 0.2, 1.0), (3, 0.2, 1.0), (5, 0.3, 0.8)):
        state = squeeze_then_kerr_state(m, alpha, SqueezeParam(r))
        cases.append((f"squeeze_kerr_coherent m={m} r={r} a={alpha}", state, -1.0))
    for m in (3, 5):
        for r in (0.5, 1.0):
            cases.append(
                (f"kerr_squeezed_vacuum m={m} r={r}", kerr_squeezed_vacuum(m, r), -1.0)
            )
    # collapse anomaly: chi = pi/2 and pi/4 leave a single Gaussian branch
    for m in (2, 4):
        for r in (0.5, 1.0):
            cases.append(
                (
                    f"kerr_squeezed_vacuum m={m} r={r}",
                    kerr_squeezed_vacuum(m, r),
                    math.exp(-2 * r),
                )
            )

    worst = 0.0
    failures = []
    for label, state, expected in cases:
        tbar = find_threshold(state, eps_neg=1e-9, tol_t=1e-3, workers=4)
        dev = abs(tbar - expected)
        worst = max(worst, dev)
        if dev > 1e-3:
            failures.append(f"{label}: got {tbar:.6f}, want {expected:.6f}")
    _report(
        3,
        not failures,
        f"{len(cases)} threshold cases, worst |t_bar - expected| = {worst:.2e} "
        f"(<=1e-3){'; ' + '; '.join(failures) if failures else ''}",
    )


# ---------------------------------------------------------------------------
# 4-5: inequality suites
# ---------------------------------------------------------------------------


def test_criterion_4_uniform_inequality_boundaries():
    etas = np.linspace(0.05, 1.0, 20)
    eta_ds = np.linspace(0.05, 1.0, 20)
    p_ds = np.linspace(0.0, 0.5, 20)
    boundaries = (
        ("coherent", 1.0, lambda eta_l: 0.0),
        ("squeezed r=0.5", math.exp(-1.0), lambda eta_l: 0.5 * eta_l * (1 - math.exp(-1.0))),
        ("interference", -1.0, lambda eta_l: eta_l),
    )
    checked = ties = mismatches = 0
    for _, tbar, q_boundary in boundaries:
        for eta_l in etas:
            for eta_d in eta_ds:
                for p_d in p_ds:
                    verdict = uniform_threshold_verdict(NoiseParams(eta_l, eta_d, p_d), tbar)
                    slack = p_d / eta_d - q_boundary(eta_l)
                    if abs(slack) < 1e-9:
                        ties += 1  # on the boundary; settled by the margin clip
                        continue
                    checked += 1
                    if (slack > 0) != verdict.simulable:
                        mismatches += 1
    ok = mismatches == 0 and checked + ties == 3 * 20**3 and ties < 500
    _report(
        4,
        ok,
        f"3 boundaries x 20^3 grid: {checked} off-boundary points, {ties} exact "
        f"boundary ties, {mismatches} sign mismatches (need 0)",
    )


def test_criterion_5_thermal_reduction_and_always_flag():
    etas = np.linspace(0.0, 1.0, 10)
    p_ds = np.linspace(0.0, 0.45, 10)
    nbars = np.linspace(0.0, 3.0, 10)
    reduction_bad = flag_bad = 0
    for eta_l in etas:
        for p_d in p_ds:
            noise0 = NoiseParams(eta_l, 0.8, p_d, 0.0)
            cold = thermal_threshold_verdict(noise0)
            uniform = uniform_threshold_verdict(noise0, -1.0)
            # the verdicts must agree exactly; the margins are the same
            # expression up to a factor 2, so rounding may differ by ulps
            if cold.simulable != uniform.simulable or abs(cold.margin - uniform.margin / 2.0) > 1e-12:
                reduction_bad += 1
            for nbar in nbars:
                verdict = thermal_threshold_verdict(NoiseParams(eta_l, 0.8, p_d, nbar))
                expected = eta_l < 1.0 and nbar >= eta_l / (1.0 - eta_l)
                if verdict.always_simulable != expected:
                    flag_bad += 1
    ok = reduction_bad == 0 and flag_bad == 0
    _report(
        5,
        ok,
        f"nbar=0 reduction exact on 100 points ({reduction_bad} bad); "
        f"always-simulable flag exact on 1000 points ({flag_bad} bad)",
    )


# ---------------------------------------------------------------------------
# 6: analytic characteristic functions vs the truncated-Fock oracle
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(2026)
    worst_sc = 0.0
    for _ in range(10):
        xi = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 2 / math.sqrt(2)
        r = rng.uniform(0.05, 1.0)
        phi = rng.uniform(0, 2 * math.pi)
        alpha = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 2 / math.sqrt(2)
        t = rng.uniform(-1.0, 0.3)
        b = Branch(1.0, alpha, SqueezeParam(r, phi))
        val = dyadic_char(b, b, t).evaluate(np.array([xi.real, xi.imag]))
        psi = build_state(SuperpositionState((b,)), n_max=80)
        worst_sc = max(worst_sc, abs(val - oracle_char(psi, xi, t)))

    worst_sv = 0.0
    for _ in range(10):
        r = rng.uniform(0.1, 1.0)
        phi, psi_angle = rng.uniform(0, 2 * math.pi, size=2)
        t = rng.uniform(-1.0, 0.0)
        xi = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        form = dyadic_char(
            Branch(1.0, 0.0, SqueezeParam(r, phi)), Branch(1.0, 0.0, SqueezeParam(r, psi_angle)), t
        )
        val = form.evaluate(np.array([xi.real, xi.imag]))
        ket = build_state(_single_branch(r, phi), n_max=80)
        bra = build_state(_single_branch(r, psi_angle), n_max=80)
        ref = oracle_char(np.outer(ket, bra.conj()), xi, t)
        worst_sv = max(worst_sv, abs(val - ref))

    axis = np.linspace(-4.0, 4.0, 81)
    w = superposition_pqd(CURVE_STATE, 0.0).evaluate_grid(axis, axis)
    wo = oracle_pqd_grid(build_state(CURVE_STATE, n_max=60), 0.0, axis, axis)
    worst_grid = float(np.abs(w - wo).max())

    ok = worst_sc <= 1e-7 and worst_sv <= 1e-7 and worst_grid <= 5e-6
    _report(
        6,
        ok,
        f"char probes: squeezed-coherent {worst_sc:.2e}, two-squeezed-vacua "
        f"{worst_sv:.2e} (<=1e-7); Wigner grid {worst_grid:.2e} (<=5e-6)",
    )


# ---------------------------------------------------------------------------
# 7: operator-identity suite
# ---------------------------------------------------------------------------


def test_criterion_7_identity_suite():
    from kerrpqd.fock_oracle import verify_kerr_bch, verify_u2_squeeze

    bch = max(verify_kerr_bch(chi, 60) for chi in (0.0, math.pi / 5, math.pi / 3, math.pi))
    u2 = max(abs(verify_u2_squeeze(r, 140) - 1.0) for r in (0.1, 0.5, 1.0))
    rng = np.random.default_rng(7041)
    comp = 0.0
    for _ in range(100):
        r1, r2 = rng.uniform(0.0, 1.5, size=2)
        p1, p2 = rng.uniform(0.0, 2 * math.pi, size=2)
        xi3, phase = compose_squeezing(SqueezeParam(r1, p1), SqueezeParam(r2, p2))
        lhs = su11_matrix(SqueezeParam(r1, p1)) @ su11_matrix(SqueezeParam(r2, p2))
        rhs = su11_matrix(xi3) @ np.diag([np.exp(0.5j * phase), np.exp(-0.5j * phase)])
        comp = max(comp, float(np.max(np.abs(lhs - rhs))))
    ok = bch <= 1e-10 and u2 <= 1e-10 and comp <= 1e-10
    _report(
        7,
        ok,
        f"kerr decomposition {bch:.2e}, squeeze conjugation {u2:.2e}, "
        f"su(1,1) composition {comp:.2e} (all <=1e-10)",
    )


# ---------------------------------------------------------------------------
# 8: normalization / positivity / smoothing properties
# ---------------------------------------------------------------------------

CORPUS = (
    ("vacuum", SuperpositionState((Branch(1.0, 0.0, SqueezeParam(0.0)),))),
    ("coherent", SuperpositionState((Branch(1.0, 1.2 - 0.7j, SqueezeParam(0.0)),))),
    ("squeezed_vacuum r=0.5", _single_branch(0.5)),
    ("squeezed_vacuum r=1", _single_branch(1.0, 1.1)),
    ("squeezed_coherent", SuperpositionState((Branch(1.0, 0.8 + 0.3j, SqueezeParam(0.4, 2.0)),))),
    ("kerr_coherent m=2 a=1", kerr_coherent_state(2, 1.0)),
    ("kerr_coherent m=2 a=1.5", kerr_coherent_state(2, 1.5)),
    ("kerr_coherent m=3", kerr_coherent_state(3, 1.0)),
    ("kerr_coherent m=5", kerr_coherent_state(5, 0.8)),
    ("squeeze_kerr_coherent m=2", squeeze_then_kerr_state(2, 1.0, SqueezeParam(0.2))),
    ("squeeze_kerr_coherent m=3", CURVE_STATE),
    ("kerr_squeezed_vacuum m=3", VACUUM_CURVE_STATE),
)

ORDERINGS = (-1.0, -0.75, -0.5, -0.25, 0.0)


def test_criterion_8_property_suite():
    worst_norm = 0.0
    worst_floor = 0.0
    for _, state in CORPUS:
        for t in ORDERINGS:
            pqd = superposition_pqd(state, t)
            worst_norm = max(worst_norm, abs(pqd.analytic_integral() - 1.0))
        spec = QuadratureSpec.for_state(state)
        ax = np.linspace(-spec.window, spec.window, 201)
        husimi = superposition_pqd(state, -1.0).evaluate_grid(ax, ax)
        worst_floor = min(worst_floor, float(husimi.min()))

    # smoothing: the lower-ordering PQD is the higher one blurred by a
    # Gaussian of variance (t_hi - t_lo)/4 per beta axis
    t_hi, t_lo = -0.4, -1.0
    var = (t_hi - t_lo) / 4.0
    h = 0.05
    ax = np.arange(-6.0, 6.0 + h / 2, h)
    w_hi = superposition_pqd(CURVE_STATE, t_hi).evaluate_grid(ax, ax)
    w_lo = superposition_pqd(CURVE_STATE, t_lo).evaluate_grid(ax, ax)
    kernel = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2 * var)) / (2 * math.pi * var)
    conv = fftconvolve(w_hi, kernel, mode="same") * h * h
    mask = (np.abs(ax[:, None]) <= 3.0) & (np.abs(ax[None, :]) <= 3.0)
    smooth_dev = float(np.abs(conv - w_lo)[mask].max())

    ok = worst_norm <= 1e-8 and worst_floor >= -1e-9 and smooth_dev <= 1e-6
    _report(
        8,
        ok,
        f"{len(CORPUS)} states x {len(ORDERINGS)} orderings: |norm-1| {worst_norm:.2e} "
        f"(<=1e-8), Husimi floor {worst_floor:.2e} (>=-1e-9), smoothing {smooth_dev:.2e} (<=1e-6)",
    )


# ---------------------------------------------------------------------------
# 9: Monte-Carlo estimator
# ---------------------------------------------------------------------------


def test_criterion_9_monte_carlo_estimator():
    noise = NoiseParams(eta_L=0.5, eta_D=0.8, p_D=0.45)
    alpha = 0.9 + 0.4j
    from kerrpqd.phase_space import GaussianState

    coh = GaussianState.coherent(alpha)
    p, se = estimate_click_probability(coh, noise, t=-1.0, n_samples=100_000, seed=12)
    ref = 0.55 * math.exp(-0.8 * 0.5 * abs(alpha) ** 2)
    coh_sigma = abs(p - ref) / se

    # interference state against the truncated-Fock ground truth; the dark
    # counts are set just above the sampling floor p_D/eta_D = eta_L
    noise2 = NoiseParams(eta_L=0.8, eta_D=0.6, p_D=1.05 * 0.8 * 0.6)
    p2, se2 = estimate_click_probability(
        CURVE_STATE, noise2, t=-1.0, n_samples=100_000, seed=13
    )
    rho = oracle_loss(build_state(CURVE_STATE, n_max=60), noise2.eta_L)
    ref2 = oracle_off_probability(rho, noise2)
    kerr_sigma = abs(p2 - ref2) / se2

    repeat = estimate_click_probability(coh, noise, t=-1.0, n_samples=100_000, seed=12)
    reproducible = repeat == (p, se)

    sizes = (1_000, 10_000, 100_000)
    errs = [
        estimate_click_probability(coh, noise, t=-1.0, n_samples=n, seed=40 + i)[1]
        for i, n in enumerate(sizes)
    ]
    slope = float(np.polyfit(np.log(sizes), np.log(errs), 1)[0])

    ok = (
        coh_sigma <= 3.0
        and kerr_sigma <= 3.0
        and reproducible
        and abs(slope + 0.5) <= 0.1
    )
    _report(
        9,
        ok,
        f"coherent {coh_sigma:.2f} sigma, interference-vs-oracle {kerr_sigma:.2f} sigma "
        f"(<=3), reproducible={reproducible}, stderr slope {slope:.3f} (-0.5 +-20%)",
    )
