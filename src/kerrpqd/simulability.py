"""Noise thresholds for classical simulability of lossy boson sampling.

A sampling experiment is efficiently simulable once three phase-space
objects are simultaneously non-negative: the input PQD at some ordering t,
the detector PQDs at ordering -s with s >= s_bar = 1 - 2 p_D / eta_D, and
the transition kernel connecting them, which is Gaussian precisely when

    I - L^dag L - diag(s) + L^dag diag(t) L >= 0

for the network transfer matrix L.  For uniform loss L = sqrt(eta_L) U this
collapses to the scalar margin 2 p_D/eta_D - eta_L + eta_L t_bar, and a
thermal environment with mean occupation nbar relaxes it further.  This
module evaluates every such inequality as a signed margin, and implements
the single-mode Monte-Carlo estimator that realizes the simulation
certificate constructively: sample the input PQD, push through the Gaussian
kernel, and average the detector PQD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderingTooLow, PreconditionViolated
from .negativity import EPS_NEG_DEFAULT, negativity_volume
from .phase_space import GaussianState, PqdFunction, gaussian_pqd, superposition_pqd

__all__ = [
    "NoiseParams",
    "TransferMatrix",
    "Verdict",
    "DetectorPqd",
    "detector_order_threshold",
    "detector_pqd_off",
    "detector_pqd_on",
    "transition_condition",
    "uniform_threshold_verdict",
    "gbs_qi_verdict",
    "thermal_lambda",
    "thermal_transition_condition",
    "thermal_threshold_verdict",
    "estimate_click_probability",
]

# Margins this close to zero are treated as exactly zero, so that two
# algebraically identical inequalities cannot disagree in sign at rounding.
MARGIN_TOL = 1e-10


@dataclass(frozen=True)
class NoiseParams:
    """Uniform network loss plus on/off detector noise and environment heat."""

    eta_L: float = 1.0
    eta_D: float = 1.0
    p_D: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta_L <= 1.0:
            raise ValueError("network transmissivity eta_L must lie in [0, 1]")
        if not 0.0 < self.eta_D <= 1.0:
            raise ValueError("detector efficiency eta_D must lie in (0, 1]")
        if not 0.0 <= self.p_D <= 1.0:
            raise ValueError("dark-count probability p_D must lie in [0, 1]")
        if not (math.isfinite(self.nbar) and self.nbar >= 0.0):
            raise ValueError("environment occupation nbar must be finite and >= 0")

    @property
    def k(self) -> float:
        """Thermal variance parameter 2 nbar + 1."""
        return 2.0 * self.nbar + 1.0

    @property
    def q_D(self) -> float:
        """Effective dark-count rate p_D / eta_D."""
        return self.p_D / self.eta_D


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """M x M network matrix with L^dag L <= I (sub-unitary)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("transfer matrix must be square")
        top = float(np.linalg.svd(mat, compute_uv=False)[0])
        if top > 1.0 + 1e-12:
            raise ValueError(f"largest singular value {top!r} exceeds 1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def num_modes(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def uniform_loss(cls, eta_L: float, num_modes: int = 1, unitary=None) -> "TransferMatrix":
        if unitary is None:
            unitary = np.eye(num_modes)
        return cls(math.sqrt(eta_L) * np.asarray(unitary, dtype=complex))


@dataclass(frozen=True)
class Verdict:
    """Signed slack of one inequality; simulable iff the margin is >= 0."""

    inequality: str
    margin: float
    simulable: bool
    always_simulable: bool | None = None


def _verdict(inequality: str, margin: float, always_simulable=None) -> Verdict:
    if abs(margin) <= MARGIN_TOL:
        margin = 0.0
    return Verdict(inequality, margin, margin >= 0.0, always_simulable)


# ---------------------------------------------------------------------------
# detector PQDs
# ---------------------------------------------------------------------------


def detector_order_threshold(noise: NoiseParams) -> float:
    """s_bar = 1 - 2 p_D / eta_D; the no-click PQD is non-negative for s >= s_bar."""
    return 1.0 - 2.0 * noise.p_D / noise.eta_D


@dataclass(frozen=True)
class DetectorPqd:
    """Radial form constant + amplitude * exp(-decay |beta|^2)."""

    constant: float
    amplitude: float
    decay: float

    def __call__(self, beta) -> np.ndarray:
        b = np.asarray(beta, dtype=complex)
        out = self.constant + self.amplitude * np.exp(-self.decay * np.abs(b) ** 2)
        return out if out.shape else float(out)

    def min_value(self) -> float:
        """Infimum over the plane (attained at 0 or in the |beta| -> inf limit)."""
        return min(self.constant, self.constant + self.amplitude)


def _detector_denominator(noise: NoiseParams, s: float) -> float:
    denom = 1.0 - noise.eta_D * (1.0 - s) / 2.0
    if denom <= 0.0:
        raise OrderingTooLow(
            f"detector PQD undefined at s={s!r}; needs s > 1 - 2/eta_D = "
            f"{1.0 - 2.0 / noise.eta_D!r}"
        )
    return denom


def detector_pqd_off(noise: NoiseParams, s: float) -> DetectorPqd:
    """(-s)-ordered PQD of the no-click POVM element."""
    denom = _detector_denominator(noise, s)
    return DetectorPqd(0.0, (1.0 - noise.p_D) / (math.pi * denom), noise.eta_D / denom)


def detector_pqd_on(noise: NoiseParams, s: float) -> DetectorPqd:
    """Complement 1/pi - off; non-negative everywhere iff s >= s_bar."""
    off = detector_pqd_off(noise, s)
    return DetectorPqd(1.0 / math.pi, -off.amplitude, off.decay)


# ---------------------------------------------------------------------------
# transition-kernel positivity
# ---------------------------------------------------------------------------


def _as_diag(values, num_modes: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 1:
        arr = np.repeat(arr, num_modes)
    if arr.size != num_modes:
        raise ValueError("ordering vector length must match the mode count")
    return np.diag(arr)


def transition_condition(transfer, s_vec, t_vec) -> Verdict:
    """Smallest eigenvalue of I - L^dag L - diag(s) + L^dag diag(t) L."""
    mat = (transfer if isinstance(transfer, TransferMatrix) else TransferMatrix(transfer)).matrix
    m = mat.shape[0]
    s_mat = _as_diag(s_vec, m)
    t_mat = _as_diag(t_vec, m)
    herm = np.eye(m) - mat.conj().T @ mat - s_mat + mat.conj().T @ t_mat @ mat
    herm = 0.5 * (herm + herm.conj().T)
    margin = float(np.linalg.eigvalsh(herm)[0])
    return _verdict("transition", margin)


def uniform_threshold_verdict(noise: NoiseParams, tbar: float) -> Verdict:
    """Uniform-loss sufficient condition 2 p_D/eta_D - eta_L + eta_L t_bar >= 0."""
    if not math.isfinite(tbar):
        raise ValueError(f"ordering threshold tbar must be finite, got {tbar!r}")
    margin = 2.0 * noise.p_D / noise.eta_D - noise.eta_L + noise.eta_L * tbar
    return _verdict("uniform_threshold", margin)


def gbs_qi_verdict(noise: NoiseParams, r: float, num_modes: int, eps: float) -> Verdict:
    """Squeezed-input (GBS) bound sech(ramp/2) > exp(-eps^2 / 4M).

    The ramp argument is ln[(1 - 2 q_D)/(eta_L e^{-2r} + 1 - eta_L)] clamped
    below at zero; once q_D >= 1/2 the log diverges negative and the left
    side is sech(0) = 1, i.e. dark counts alone wash the statistics out.
    """
    if eps <= 0:
        raise ValueError("total-variation budget eps must be positive")
    if num_modes < 1:
        raise ValueError("mode count must be >= 1")
    q_d = noise.q_D
    if q_d >= 0.5:
        lhs = 1.0
    else:
        denom = noise.eta_L * math.exp(-2.0 * r) + 1.0 - noise.eta_L
        ramp = max(math.log((1.0 - 2.0 * q_d) / denom), 0.0)
        lhs = 1.0 / math.cosh(0.5 * ramp)
    rhs = math.exp(-eps * eps / (4.0 * num_modes))
    return _verdict("gbs_qi", lhs - rhs)


# ---------------------------------------------------------------------------
# thermal environment corrections
# ---------------------------------------------------------------------------


def thermal_lambda(noise: NoiseParams) -> float:
    """lambda = eta_L + (2 nbar + 1)(1 - eta_L) >= 1; the lost-mode variance."""
    return noise.eta_L + noise.k * (1.0 - noise.eta_L)


def thermal_transition_condition(noise: NoiseParams, s: float, t: float) -> Verdict:
    """Single-mode kernel positivity with heat: t eta_L - s + lambda - eta_L >= 0."""
    margin = t * noise.eta_L - s + thermal_lambda(noise) - noise.eta_L
    return _verdict("thermal_transition", margin)


def thermal_threshold_verdict(noise: NoiseParams) -> Verdict:
    """Kerr-class inputs (t_bar = -1): p_D/eta_D >= eta_L - nbar (1 - eta_L).

    Heating helps the classical side; once nbar >= eta_L/(1 - eta_L) the
    experiment is simulable even with ideal detectors, which is reported on
    the always_simulable flag.
    """
    margin = noise.p_D / noise.eta_D - noise.eta_L + noise.nbar * (1.0 - noise.eta_L)
    always = noise.eta_L < 1.0 and noise.nbar >= noise.eta_L / (1.0 - noise.eta_L)
    return _verdict("thermal_threshold", margin, always)


# ---------------------------------------------------------------------------
# Monte-Carlo click-probability estimator (single mode)
# ---------------------------------------------------------------------------


# Proposals per evaluation chunk of the sampler and of the estimator's tail:
# a chunk's W, envelope, uniforms and mask take 1 MB, so no full-batch
# temporary is built.
_SAMPLE_CHUNK = 1 << 15


def _rejection_sampler(pqd: PqdFunction):
    """Sample the (non-negative) PQD under its term-envelope mixture.

    env(y) = sum_k |f_k(y)| >= |W(y)| pointwise, so acceptance with
    probability max(W, 0)/env is exact; the envelope is a Gaussian mixture
    with weights given by the term masses.  A one-term (Gaussian) PQD equals
    its envelope, so every draw is accepted.

    Each batch draws its component counts, then all its normals in one
    call into a buffer that later batches reuse, and each component's rows
    are turned into its Gaussian in place.  The
    proposals then go through the PQD chunk by chunk: one kernel pass
    (pqd(beta, envelope=...)) gives W and the envelope, the chunk's
    uniforms are drawn, and its accepted rows move to the front of the
    batch.  Random numbers are drawn in the order multinomial, normals,
    uniforms per batch, then the permutation that cuts the accepted rows to
    `size`; this is the stream of one full-batch pass.  The first batch
    proposes max(size, 4096) points, each later one enough for the missing
    points at the envelope's acceptance.
    """
    peaks, centers, precs = pqd.envelopes()
    covs = np.linalg.inv(precs)
    chols = np.linalg.cholesky(0.5 * (covs + np.swapaxes(covs, 1, 2)))
    masses = peaks * 2.0 * math.pi / np.sqrt(np.linalg.det(precs))
    weights = masses / math.fsum(masses)
    # a proposal is accepted with probability int max(W, 0) / sum(masses),
    # exactly 1 / sum(masses) where W >= 0 (t = -1) and at least that above
    accept = 1.0 / math.fsum(masses)

    def propose(rng: np.random.Generator, ys: np.ndarray) -> np.ndarray:
        counts = rng.multinomial(len(ys), weights)
        rng.standard_normal(out=ys)
        off = 0
        for idx, cnt in enumerate(counts):
            z = ys[off : off + cnt]
            z[...] = z @ chols[idx].T
            z += centers[idx]
            off += cnt
        return ys

    def accepted(rng: np.random.Generator, ys: np.ndarray) -> np.ndarray:
        env = np.empty(_SAMPLE_CHUNK)
        kept = 0
        for lo in range(0, len(ys), _SAMPLE_CHUNK):
            rows = ys[lo : lo + _SAMPLE_CHUNK]
            m = len(rows)
            w_vals = pqd(rows.view(complex)[:, 0], envelope=env[:m])
            np.maximum(w_vals, 0.0, out=w_vals)
            u = rng.random(m)
            u *= env[:m]
            # compress and take move whole rows; a 2-column fancy index
            # copies them element by element and runs several times slower
            hits = np.compress(u <= w_vals, rows, axis=0)
            ys[kept : kept + len(hits)] = hits
            kept += len(hits)
        # a copy, so that the next batch can reuse the buffer
        return ys[:kept].copy()

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        buf = np.empty((max(size, 4096), 2))
        got = [accepted(rng, propose(rng, buf))]
        have = len(got[0])
        while have < size:
            # enough proposals that the missing points come in with four
            # standard deviations to spare: (m + 4 sqrt(m) + 16) / accept
            missing = size - have
            batch = max(math.ceil((missing + 4.0 * math.sqrt(missing) + 16.0) / accept), 4096)
            if batch > len(buf):
                buf = np.empty((batch, 2))
            got.append(accepted(rng, propose(rng, buf[:batch])))
            have += len(got[-1])
        del buf
        # each batch is laid out component by component, so cut a random
        # subset, not the tail, or the last components lose their points
        cat = np.concatenate(got) if len(got) > 1 else got[0]
        del got  # the pieces go before the permutation and the gather
        return np.take(cat, rng.permutation(len(cat))[:size], axis=0)

    return draw


def estimate_click_probability(
    state,
    noise: NoiseParams,
    t: float,
    s: float | None = None,
    n_samples: int = 100_000,
    seed: int = 0,
    *,
    eps_neg: float = EPS_NEG_DEFAULT,
):
    """(p_hat, stderr) for the no-click probability of the noisy single mode.

    Draws beta from the input t-PQD, applies the loss contraction
    sqrt(eta_L) plus the Gaussian kernel noise of variance c/4 per axis
    with c = t eta_L - s + lambda - eta_L, and averages pi times the
    no-click detector PQD at ordering -s.  `s` defaults to the detector
    threshold s_bar.

    The input is sampled from its PQD's term mixture, a Gaussian state's
    (gaussian_pqd) or a superposition's (superposition_pqd).

    Raises PreconditionViolated when any of the three positivity
    certificates fails: s below s_bar, non-positive kernel margin, or input
    negativity above eps_neg.  The negativity is computed only for t > -1
    and a PQD with interference terms.  The diagonal terms are positive
    Gaussians; at t = -1 the PQD is the Husimi function, non-negative for
    every state, and below it that function smoothed by a positive Gaussian.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    s_bar = detector_order_threshold(noise)
    s = s_bar if s is None else float(s)
    if s < s_bar - 1e-12:
        raise PreconditionViolated(
            f"detector PQD is negative at s={s!r} (threshold s_bar={s_bar!r})"
        )
    c = t * noise.eta_L - s + thermal_lambda(noise) - noise.eta_L
    if c < 1e-9:
        raise PreconditionViolated(
            f"transition kernel margin {c:.3e} below 1e-09; not samplable"
        )

    if isinstance(state, GaussianState):
        pqd = gaussian_pqd(state, t)
    else:
        pqd = superposition_pqd(state, t)
    if t > -1.0 and pqd.pair.any():
        value, err = negativity_volume(state, t)
        if value > eps_neg:
            raise PreconditionViolated(
                f"input PQD negativity {value:.3e} exceeds eps_neg={eps_neg!r} at t={t!r}"
            )
    draw = _rejection_sampler(pqd)

    off = detector_pqd_off(noise, s)
    amp = math.pi * off.amplitude
    decay = off.decay

    rng = np.random.default_rng(seed)
    ys = draw(rng, n_samples)
    # beta = sqrt(eta_L) y + sqrt(c/4) z, then pi times the no-click PQD,
    # chunk by chunk; the kernel noise is one stream in row order
    gain = math.sqrt(noise.eta_L)
    spread = math.sqrt(0.25 * c)
    vals = np.empty(n_samples)
    for lo in range(0, n_samples, _SAMPLE_CHUNK):
        betas = ys[lo : lo + _SAMPLE_CHUNK]
        betas *= gain
        kick = rng.standard_normal(betas.shape)
        kick *= spread
        betas += kick
        chunk = np.einsum("ni,ni->n", betas, betas, out=vals[lo : lo + len(betas)])
        chunk *= -decay
        np.exp(chunk, out=chunk)
        chunk *= amp
    p_hat = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    return p_hat, stderr
