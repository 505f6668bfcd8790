import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from kerrpqd import simulability
from kerrpqd.errors import OrderingTooLow, PreconditionViolated
from kerrpqd.fock_oracle import (
    build_state,
    oracle_loss,
    oracle_off_probability,
)
from kerrpqd.phase_space import GaussianState, PqdFunction, gaussian_pqd, superposition_pqd
from kerrpqd.simulability import (
    NoiseParams,
    TransferMatrix,
    detector_order_threshold,
    detector_pqd_off,
    detector_pqd_on,
    estimate_click_probability,
    gbs_qi_verdict,
    thermal_lambda,
    thermal_threshold_verdict,
    thermal_transition_condition,
    transition_condition,
    uniform_threshold_verdict,
)
from kerrpqd.states import SqueezeParam, SuperpositionState, Branch, squeeze_then_kerr_state


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


def test_noise_params_validation():
    for bad in (
        dict(eta_L=-0.1),
        dict(eta_L=1.1),
        dict(eta_D=0.0),
        dict(eta_D=1.2),
        dict(p_D=-0.2),
        dict(p_D=1.01),
        dict(nbar=-1.0),
        dict(nbar=math.inf),
        dict(nbar=math.nan),
    ):
        with pytest.raises(ValueError):
            NoiseParams(**bad)
    noise = NoiseParams(eta_L=0.5, eta_D=0.8, p_D=0.2, nbar=0.75)
    assert noise.k == 2.5
    assert noise.q_D == pytest.approx(0.25)


def test_transfer_matrix_validation():
    with pytest.raises(ValueError):
        TransferMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        TransferMatrix(1.2 * np.eye(2))
    tm = TransferMatrix.uniform_loss(0.36, 2)
    assert tm.num_modes == 2
    assert np.allclose(tm.matrix, 0.6 * np.eye(2))


# ---------------------------------------------------------------------------
# detector PQDs
# ---------------------------------------------------------------------------


def test_detector_order_threshold_values():
    assert detector_order_threshold(NoiseParams(eta_D=1.0, p_D=0.0)) == 1.0
    assert detector_order_threshold(NoiseParams(eta_D=1.0, p_D=0.5)) == 0.0
    assert detector_order_threshold(NoiseParams(eta_D=0.8, p_D=0.1)) == 0.75


def test_ideal_detector_off_pqd_at_origin():
    off = detector_pqd_off(NoiseParams(eta_D=1.0, p_D=0.0), 0.0)
    assert off(0.0) == pytest.approx(2.0 / math.pi)


def test_povm_completeness_pointwise():
    noise = NoiseParams(eta_D=0.7, p_D=0.2)
    off = detector_pqd_off(noise, -0.3)
    on = detector_pqd_on(noise, -0.3)
    for beta in (0.0, 0.5, 1.3 - 0.8j, 3.0j):
        assert off(beta) + on(beta) == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_on_pqd_minimum_vanishes_at_threshold():
    noise = NoiseParams(eta_D=0.8, p_D=0.1)
    sbar = detector_order_threshold(noise)
    assert abs(detector_pqd_on(noise, sbar).min_value()) < 1e-10
    # just below the threshold the on-PQD dips negative at the origin
    assert detector_pqd_on(noise, sbar - 0.05).min_value() < 0.0


def test_saturated_dark_counts_kill_off_pqd():
    off = detector_pqd_off(NoiseParams(eta_D=0.9, p_D=1.0), 0.0)
    assert off(0.0) == 0.0 and off(2.0) == 0.0


def test_detector_pqd_ordering_floor():
    noise = NoiseParams(eta_D=1.0)
    with pytest.raises(OrderingTooLow):
        detector_pqd_off(noise, -1.0)
    with pytest.raises(OrderingTooLow):
        detector_pqd_on(noise, -1.3)
    assert detector_pqd_off(noise, -0.99)(0.0) > 0.0


# ---------------------------------------------------------------------------
# transition-kernel positivity
# ---------------------------------------------------------------------------


def test_transition_all_loss_margin():
    s = [0.3, -0.5, 0.9]
    verdict = transition_condition(np.zeros((3, 3)), s, [0.0, 0.0, 0.0])
    assert verdict.margin == pytest.approx(1.0 - 0.9)
    assert verdict.simulable


def test_transition_reduces_to_uniform_formula():
    rng = np.random.default_rng(7)
    for _ in range(5):
        # random unitary via QR
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        eta_l, sbar, tbar = rng.uniform(0.1, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
        tm = TransferMatrix.uniform_loss(eta_l, 3, unitary=q)
        verdict = transition_condition(tm, [sbar] * 3, [tbar] * 3)
        ref = tbar * eta_l - sbar + 1.0 - eta_l
        assert verdict.margin == pytest.approx(ref, abs=1e-10)


def test_transition_margin_is_a_psd_certificate():
    # margin m means H - m I is PSD and H - (m + d) I is not
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat /= 1.1 * np.linalg.svd(mat, compute_uv=False)[0]
    s_vec, t_vec = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
    margin = transition_condition(mat, s_vec, t_vec).margin
    herm = (
        np.eye(4)
        - mat.conj().T @ mat
        - np.diag(s_vec)
        + mat.conj().T @ np.diag(t_vec) @ mat
    )
    herm = 0.5 * (herm + herm.conj().T)
    np.linalg.cholesky(herm - (margin - 1e-9) * np.eye(4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(herm - (margin + 1e-6) * np.eye(4))


def test_transition_vector_length_mismatch():
    with pytest.raises(ValueError):
        transition_condition(np.zeros((2, 2)), [0.0, 0.0, 0.0], [0.0, 0.0])


def test_transition_checks_a_raw_matrix_as_a_transfer_matrix():
    """A plain array gets TransferMatrix's singular-value check, so a gain is
    refused rather than given a margin."""
    with pytest.raises(ValueError, match="singular value"):
        transition_condition(3.0 * np.eye(2), [0.0, 0.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# uniform-loss threshold inequality
# ---------------------------------------------------------------------------


def test_uniform_threshold_spec_point():
    verdict = uniform_threshold_verdict(NoiseParams(0.9, 0.8, 0.05), -1.0)
    assert verdict.margin == pytest.approx(-1.675)
    assert not verdict.simulable


def test_uniform_threshold_boundaries():
    for tbar in (-1.0, -0.3, 0.5):
        eta_l, eta_d = 0.8, 0.9
        p_crit = eta_d * eta_l * (1.0 - tbar) / 2.0
        at = uniform_threshold_verdict(NoiseParams(eta_l, eta_d, p_crit), tbar)
        assert at.margin == 0.0 and at.simulable
        below = uniform_threshold_verdict(NoiseParams(eta_l, eta_d, p_crit - 1e-3), tbar)
        assert below.margin < 0.0 and not below.simulable


@pytest.mark.parametrize("tbar", [math.nan, math.inf, -math.inf])
def test_uniform_threshold_rejects_a_non_finite_tbar(tbar):
    with pytest.raises(ValueError, match="tbar"):
        uniform_threshold_verdict(NoiseParams(0.9, 0.8, 0.05), tbar)


def test_coherent_class_always_simulable():
    # t_bar = 1 (coherent inputs): margin = 2 p_D / eta_D >= 0 for any noise
    for noise in (NoiseParams(), NoiseParams(1.0, 0.5, 0.0), NoiseParams(0.3, 0.9, 0.2)):
        assert uniform_threshold_verdict(noise, 1.0).simulable


# ---------------------------------------------------------------------------
# squeezed-input (GBS) bound
# ---------------------------------------------------------------------------


def test_gbs_frozen_point_recomputed_inline():
    noise = NoiseParams(eta_L=0.9, eta_D=0.8, p_D=0.008)  # q_D = 0.01
    verdict = gbs_qi_verdict(noise, r=1.0, num_modes=100, eps=0.1)
    denom = 0.9 * math.exp(-2.0) + 0.1
    lhs = 1.0 / math.cosh(0.5 * math.log(0.98 / denom))
    rhs = math.exp(-0.01 / 400.0)
    assert verdict.margin == pytest.approx(lhs - rhs, abs=1e-12)
    assert not verdict.simulable
    assert verdict.margin == pytest.approx(-0.2241, abs=5e-4)


def test_gbs_dark_count_washout():
    noise = NoiseParams(eta_L=1.0, eta_D=0.6, p_D=0.3)  # q_D = 0.5
    verdict = gbs_qi_verdict(noise, r=2.0, num_modes=10, eps=0.2)
    assert verdict.simulable and verdict.margin > 0.0


def test_gbs_ramp_clamped_at_zero():
    # all light lost: the ratio is below 1, the ramp clamps, lhs = 1
    verdict = gbs_qi_verdict(NoiseParams(eta_L=0.0), r=1.5, num_modes=4, eps=0.3)
    assert verdict.simulable


def test_gbs_margin_monotone_in_squeezing():
    noise = NoiseParams(eta_L=0.95, eta_D=1.0, p_D=0.001)
    margins = [gbs_qi_verdict(noise, r, 50, 0.1).margin for r in (0.2, 0.6, 1.0, 1.5)]
    assert all(a >= b for a, b in zip(margins, margins[1:]))


def test_gbs_validation():
    with pytest.raises(ValueError):
        gbs_qi_verdict(NoiseParams(), 1.0, 10, 0.0)
    with pytest.raises(ValueError):
        gbs_qi_verdict(NoiseParams(), 1.0, 0, 0.1)


# ---------------------------------------------------------------------------
# thermal environment
# ---------------------------------------------------------------------------


def test_thermal_lambda_values():
    assert thermal_lambda(NoiseParams(eta_L=0.4, nbar=0.0)) == 1.0
    assert thermal_lambda(NoiseParams(eta_L=1.0, nbar=3.0)) == 1.0
    assert thermal_lambda(NoiseParams(eta_L=0.5, nbar=0.5)) == pytest.approx(1.5)


def test_thermal_transition_frozen_point():
    # lambda = 0.7 + 1.4 * 0.3 = 1.12, margin = -0.7 + 0.4 + 1.12 - 0.7
    verdict = thermal_transition_condition(
        NoiseParams(eta_L=0.7, nbar=0.2), s=-0.4, t=-1.0
    )
    assert verdict.margin == pytest.approx(0.12, abs=1e-12)
    assert verdict.simulable


def test_thermal_transition_no_loss_reduction():
    # eta_L = 0: margin = lambda - s >= 1 - s
    verdict = thermal_transition_condition(NoiseParams(eta_L=0.0, nbar=0.3), 0.5, -1.0)
    assert verdict.margin == pytest.approx(thermal_lambda(NoiseParams(eta_L=0.0, nbar=0.3)) - 0.5)


def test_thermal_transition_cold_limit_matches_uniform():
    for eta_l in (0.2, 0.6, 1.0):
        for p_d in (0.0, 0.1, 0.3):
            noise = NoiseParams(eta_L=eta_l, eta_D=0.8, p_D=p_d, nbar=0.0)
            sbar = detector_order_threshold(noise)
            for tbar in (-1.0, -0.25, 0.4):
                cold = thermal_transition_condition(noise, sbar, tbar).margin
                uniform = uniform_threshold_verdict(noise, tbar).margin
                assert cold == pytest.approx(uniform, abs=1e-12)


def test_thermal_threshold_frozen_point():
    verdict = thermal_threshold_verdict(NoiseParams(eta_L=0.5, eta_D=1.0, p_D=0.3, nbar=0.5))
    assert verdict.margin == pytest.approx(0.05, abs=1e-12)
    assert verdict.simulable
    assert verdict.always_simulable is False


def test_thermal_threshold_always_flag_boundary():
    # heating alone suffices once nbar >= eta_L / (1 - eta_L)
    assert thermal_threshold_verdict(NoiseParams(eta_L=0.5, nbar=1.0)).always_simulable
    assert not thermal_threshold_verdict(NoiseParams(eta_L=0.5, nbar=0.999)).always_simulable
    assert thermal_threshold_verdict(NoiseParams(eta_L=1.0, nbar=50.0)).always_simulable is False


def test_thermal_threshold_cold_sign_matches_uniform():
    for eta_l in np.linspace(0.05, 1.0, 8):
        for q_d in np.linspace(0.0, 0.5, 8):
            noise = NoiseParams(eta_L=eta_l, eta_D=0.5, p_D=0.5 * q_d, nbar=0.0)
            cold = thermal_threshold_verdict(noise)
            uniform = uniform_threshold_verdict(noise, -1.0)
            assert cold.simulable == uniform.simulable
            assert cold.margin == pytest.approx(uniform.margin / 2.0, abs=1e-12)


def test_margins_monotone_in_noise():
    etas = np.linspace(0.1, 1.0, 5)
    pds = np.linspace(0.0, 0.4, 5)
    nbars = np.linspace(0.0, 1.5, 4)
    for eta_d in (0.5, 1.0):
        for nbar in nbars:
            for eta_l in etas:
                margins = [
                    thermal_threshold_verdict(NoiseParams(eta_l, eta_d, p, nbar)).margin
                    for p in pds
                ]
                assert all(a <= b for a, b in zip(margins, margins[1:]))
            for p_d in pds:
                margins = [
                    thermal_threshold_verdict(NoiseParams(e, eta_d, p_d, nbar)).margin
                    for e in etas
                ]
                assert all(a >= b for a, b in zip(margins, margins[1:]))


# ---------------------------------------------------------------------------
# Monte-Carlo click estimator
# ---------------------------------------------------------------------------

MC_NOISE = NoiseParams(eta_L=0.5, eta_D=0.8, p_D=0.45)  # samplable at t = -1


def test_mc_vacuum_matches_dark_count_complement():
    p, se = estimate_click_probability(
        GaussianState.vacuum(), MC_NOISE, t=-1.0, n_samples=100_000, seed=11
    )
    assert abs(p - 0.55) < 3.0 * se
    assert se < 2e-3


def test_mc_coherent_matches_closed_form():
    alpha = 0.9 + 0.4j
    ref = 0.55 * math.exp(-0.8 * 0.5 * abs(alpha) ** 2)
    p, se = estimate_click_probability(
        GaussianState.coherent(alpha), MC_NOISE, t=-1.0, n_samples=100_000, seed=12
    )
    assert abs(p - ref) < 3.0 * se


def test_mc_squeezed_vacuum_matches_fock_oracle():
    state = SuperpositionState((Branch(1.0, 0.0, SqueezeParam(0.3)),))
    p, se = estimate_click_probability(state, MC_NOISE, t=-1.0, n_samples=100_000, seed=21)
    rho = oracle_loss(build_state(state, n_max=60), MC_NOISE.eta_L)
    ref = oracle_off_probability(rho, MC_NOISE)
    assert abs(p - ref) < 3.0 * se


def test_mc_seed_reproducibility():
    coh = GaussianState.coherent(0.5)
    first = estimate_click_probability(coh, MC_NOISE, t=-1.0, n_samples=20_000, seed=5)
    again = estimate_click_probability(coh, MC_NOISE, t=-1.0, n_samples=20_000, seed=5)
    other = estimate_click_probability(coh, MC_NOISE, t=-1.0, n_samples=20_000, seed=6)
    assert first == again
    assert first != other


def test_mc_rejects_detector_ordering_below_threshold():
    sbar = detector_order_threshold(MC_NOISE)
    with pytest.raises(PreconditionViolated):
        estimate_click_probability(
            GaussianState.vacuum(), MC_NOISE, t=-1.0, s=sbar - 0.1, n_samples=1000
        )


def test_mc_rejects_unsamplable_kernel():
    # 2 p_D / eta_D - eta_L (1 - t) < 0 at these settings
    noise = NoiseParams(eta_L=0.9, eta_D=0.7, p_D=0.05)
    with pytest.raises(PreconditionViolated):
        estimate_click_probability(GaussianState.vacuum(), noise, t=-1.0, n_samples=1000)


def test_mc_rejects_negative_pqd_state():
    state = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    with pytest.raises(PreconditionViolated):
        estimate_click_probability(state, MC_NOISE, t=0.0, n_samples=1000)


def test_mc_checks_negativity_only_above_the_husimi_ordering():
    """At t = -1 the PQD is the Husimi function, non-negative for every
    state, so only t > -1 pays for the negativity volume."""
    state = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    noise = NoiseParams(eta_L=0.5, eta_D=0.8, p_D=0.6)  # samplable down to t = -0.5
    with mock.patch.object(simulability, "negativity_volume", return_value=(0.0, 0.0)) as volume:
        estimate_click_probability(state, noise, t=-1.0, n_samples=1000)
        volume.assert_not_called()
        estimate_click_probability(state, noise, t=-0.5, n_samples=1000)
        volume.assert_called_once_with(state, -0.5)


def test_mc_validation():
    with pytest.raises(ValueError):
        estimate_click_probability(GaussianState.vacuum(), MC_NOISE, t=-1.0, n_samples=1)
    with pytest.raises(ValueError):
        estimate_click_probability(
            GaussianState(np.eye(4), np.zeros(4)), MC_NOISE, t=-1.0, n_samples=100
        )


def test_mc_interference_state_unbiased_at_a_million_samples():
    """The accepted points are cut to n_samples at random, not by mixture
    component, so the estimate stays on the oracle at 10^6 samples."""
    state = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    noise = NoiseParams(eta_L=0.8, eta_D=0.6, p_D=1.05 * 0.48)
    p, se = estimate_click_probability(state, noise, t=-1.0, n_samples=1_000_000, seed=13)
    ref = oracle_off_probability(oracle_loss(build_state(state, n_max=60), noise.eta_L), noise)
    assert abs(p - ref) < 3.0 * se


@pytest.mark.parametrize("nbar", [0.3, 1.0])
def test_mc_thermal_bath_matches_the_fock_oracle(nbar):
    """The kernel's thermal noise against the oracle's loss into a bath at nbar."""
    state = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    noise = NoiseParams(eta_L=0.8, eta_D=0.6, p_D=1.05 * 0.48, nbar=nbar)
    p, se = estimate_click_probability(state, noise, t=-1.0, n_samples=200_000, seed=13)
    ref = oracle_off_probability(oracle_loss(build_state(state, n_max=60), noise.eta_L, nbar), noise)
    assert abs(p - ref) < 4.0 * se


def per_term_envelope(pqd, beta):
    """sum_k peak_k e^{-(y-c_k)^T S_k (y-c_k)/2}, term by term from envelopes()."""
    peaks, centers, precs = pqd.envelopes()
    b = np.asarray(beta, dtype=complex)
    out = np.zeros(b.shape)
    for peak, (c1, c2), prec in zip(peaks, centers, precs):
        d1 = b.real - c1
        d2 = b.imag - c2
        out += peak * np.exp(-0.5 * (prec[0, 0] * d1 * d1 + prec[1, 1] * d2 * d2) - prec[0, 1] * d1 * d2)
    return out


def test_mc_sampler_envelope_is_the_per_term_gaussian_sum():
    """The kernel's envelope accepts exactly the points the per-term
    Gaussians accept, so the estimate does not move."""
    state = squeeze_then_kerr_state(2, 1.2, SqueezeParam(0.0))
    kernel = estimate_click_probability(state, MC_NOISE, t=-1.0, n_samples=100_000, seed=7)
    original = PqdFunction.__call__
    replaced = []

    def gaussian_envelope(pqd, beta, envelope=None):
        values = original(pqd, beta)
        if envelope is not None:
            envelope[...] = per_term_envelope(pqd, beta)
            replaced.append(envelope.size)
        return values

    with mock.patch.object(PqdFunction, "__call__", gaussian_envelope):
        gaussians = estimate_click_probability(state, MC_NOISE, t=-1.0, n_samples=100_000, seed=7)
    assert sum(replaced) >= 100_000  # every proposal got the per-term envelope
    assert kernel == gaussians


def two_pass_draw(pqd, rng, size, batches=None):
    """The full-batch sampler that the streamed one replaced: per-component
    normals, W and then the envelope over the whole batch, one uniform draw
    per batch, and a permutation of the accepted rows.  The first batch
    proposes max(size, 4096) points, a later one (m + 4 sqrt(m) + 16) sum(masses)
    for m missing points, at least 4096; `batches` collects the sizes."""
    peaks, centers, precs = pqd.envelopes()
    covs = np.linalg.inv(precs)
    chols = np.linalg.cholesky(0.5 * (covs + np.swapaxes(covs, 1, 2)))
    masses = peaks * 2.0 * math.pi / np.sqrt(np.linalg.det(precs))
    weights = masses / math.fsum(masses)
    accept = 1.0 / math.fsum(masses)
    got = []
    have = 0
    while have < size:
        batch = max(size, 4096)
        if got:
            missing = size - have
            batch = max(math.ceil((missing + 4.0 * math.sqrt(missing) + 16.0) / accept), 4096)
        if batches is not None:
            batches.append(batch)
        counts = rng.multinomial(batch, weights)
        ys = np.empty((batch, 2))
        off = 0
        for idx, cnt in enumerate(counts):
            z = rng.standard_normal((cnt, 2))
            ys[off : off + cnt] = centers[idx] + z @ chols[idx].T
            off += cnt
        beta = ys[:, 0] + 1j * ys[:, 1]
        w_vals = np.maximum(np.asarray(pqd(beta)), 0.0)
        env = np.empty(batch)
        pqd(beta, envelope=env)
        keep = rng.random(batch) * env <= w_vals
        got.append(ys[keep])
        have += int(keep.sum())
    return rng.permutation(np.concatenate(got))[:size]


class CountingPqd:
    """A PQD that counts the points the sampler proposes."""

    def __init__(self, pqd):
        self.pqd = pqd
        self.points = 0

    def envelopes(self):
        return self.pqd.envelopes()

    def __call__(self, beta, envelope=None):
        self.points += np.size(beta)
        return self.pqd(beta, envelope=envelope)


class ThinnedPqd(CountingPqd):
    """W / 3 under the same envelope: a third of the acceptance that the
    masses promise, so every batch after the first falls short."""

    def __call__(self, beta, envelope=None):
        return super().__call__(beta, envelope=envelope) / 3.0


CURVE_STATE = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
STREAM_PQDS = {
    "two-branch cat": superposition_pqd(squeeze_then_kerr_state(2, 1.2, SqueezeParam(0.0)), -1.0),
    "curve state": superposition_pqd(CURVE_STATE, -1.0),
    "paired, t=-0.5": superposition_pqd(squeeze_then_kerr_state(4, 1.1, SqueezeParam(0.1)), -0.5),
    "one term": gaussian_pqd(GaussianState.squeezed_coherent(0.4 - 0.3j, SqueezeParam(0.3, 1.0)), -0.5),
    "thinned curve state": ThinnedPqd(superposition_pqd(CURVE_STATE, -1.0)),
}


@pytest.mark.parametrize("name", STREAM_PQDS)
@pytest.mark.parametrize("size", [1, 3000, 4095, 4096, 50_000])
def test_streamed_sampler_repeats_the_two_pass_stream(name, size):
    pqd = STREAM_PQDS[name]
    for seed in (0, 1, 2):
        batches = []
        ref = two_pass_draw(pqd, np.random.default_rng(seed), size, batches)
        counting = CountingPqd(pqd)
        got = simulability._rejection_sampler(counting)(np.random.default_rng(seed), size)
        assert got.shape == (size, 2)
        assert np.array_equal(got, ref)
        assert counting.points == sum(batches)
    if name == "thinned curve state" and size == 50_000:
        assert len(batches) >= 3


def test_later_batches_propose_only_the_missing_points():
    """At t = -1 with acceptance 0.998, 10^6 samples need the first batch
    of 10^6 and one more of 4096, not a second batch of 10^6."""
    pqd = CountingPqd(superposition_pqd(squeeze_then_kerr_state(2, 2.5, SqueezeParam(0.0)), -1.0))
    ys = simulability._rejection_sampler(pqd)(np.random.default_rng(0), 1_000_000)
    assert ys.shape == (1_000_000, 2)
    assert pqd.points == 1_000_000 + 4096


@pytest.mark.parametrize("seed", range(4))
def test_sampler_mean_matches_the_closed_form(seed):
    """At t = -1 the PQD is non-negative, so the samples' mean is
    sum_k Re[mass_k A_k^-1 b_k] over the terms f_k = e^{c_k - y^T A_k y/2 + b_k^T y}.
    det(A_k)^{1/2} is the product of the eigenvalues' principal roots: each
    eigenvalue of a complex symmetric A with Re A > 0 has a positive real part."""
    gen = np.random.default_rng(seed)
    state = squeeze_then_kerr_state(
        2 + seed % 2,
        cmath.rect(gen.uniform(0.8, 1.5), gen.uniform(0.0, 2.0 * math.pi)),
        SqueezeParam(gen.uniform(0.0, 0.4), gen.uniform(0.0, 2.0 * math.pi)),
    )
    pqd = superposition_pqd(state, -1.0)
    total = 0.0
    mean = np.zeros(2)
    for lp, a, b in zip(pqd.log_pref, pqd.quad, pqd.lin):
        a_inv_b = np.linalg.solve(a, b)
        sqrt_det = complex(np.prod(np.sqrt(np.linalg.eigvals(a))))
        mass = cmath.exp(lp + math.log(2.0 * math.pi) - cmath.log(sqrt_det) + 0.5 * complex(b @ a_inv_b))
        total += mass.real
        mean += (mass * a_inv_b).real
    n = 200_000
    ys = simulability._rejection_sampler(pqd)(np.random.default_rng(100 + seed), n)
    stderr = ys.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(ys.mean(axis=0) - mean / total) < 4.0 * stderr)


def test_mc_million_sample_estimate_memory():
    """The sampler streams its proposals, so a 10^6-sample estimate keeps
    the accepted points and a few chunks, not full-batch copies of W, the
    envelope and the uniforms (about 100 MB)."""
    noise = NoiseParams(eta_L=0.8, eta_D=0.6, p_D=1.05 * 0.48)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        estimate_click_probability(CURVE_STATE, noise, t=-1.0, n_samples=1_000_000, seed=13)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 60e6
