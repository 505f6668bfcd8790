"""Truncated Fock-space reference implementations.

Everything here is deliberately independent of the closed-form machinery in
`phase_space`: operators are dense matrices on Fock levels 0..n_max built
with `scipy.linalg.expm`, characteristic functions come from associated
Laguerre series, and PQD grids from a plain midpoint Fourier sum.  The
truncation error of a vector is tracked as

    budget = |1 - ||psi||^2| + sum_{n > 0.9 n_max} |psi_n|^2

and anything above the requested tolerance raises CutoffTooSmall rather
than silently renormalizing garbage.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from .errors import CutoffTooSmall, TailBoundExceeded
from .simulability import NoiseParams
from .states import KerrOrder, SqueezeParam, StateDescription, SuperpositionState

__all__ = [
    "annihilation",
    "displacement_matrix",
    "squeeze_matrix",
    "kerr_matrix",
    "coherent_vector",
    "truncation_budget",
    "build_state",
    "density_matrix",
    "mean_photon",
    "oracle_char",
    "oracle_pqd_grid",
    "oracle_husimi",
    "oracle_loss",
    "oracle_off_probability",
    "verify_kerr_bch",
    "verify_u2_squeeze",
]

BUDGET_TOL = 1e-8

# Fourier-window growth for oracle_pqd_grid: enlarge until the boundary of
# the characteristic-function grid is below this, or give up at the cap.
_CHAR_EDGE_TOL = 1e-9
_CHAR_WINDOW_CAP = 64.0


def annihilation(n_max: int) -> np.ndarray:
    """Lowering operator on Fock levels 0..n_max."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)


def displacement_matrix(alpha: complex, n_max: int) -> np.ndarray:
    a = annihilation(n_max)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeeze_matrix(param: SqueezeParam, n_max: int) -> np.ndarray:
    a = annihilation(n_max)
    xi = param.xi
    return expm(0.5 * (xi * (a.conj().T @ a.conj().T) - np.conj(xi) * (a @ a)))


def kerr_matrix(chi: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    return np.diag(np.exp(-1j * chi * n * (n - 1)))


def coherent_vector(alpha: complex, n_max: int) -> np.ndarray:
    """|alpha> truncated at level n_max (not renormalized)."""
    vec = np.empty(n_max + 1, dtype=complex)
    vec[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        vec[n] = vec[n - 1] * alpha / math.sqrt(n)
    return vec


def truncation_budget(vec: np.ndarray) -> float:
    n_max = vec.size - 1
    guard = int(0.9 * n_max)
    tail = float(np.sum(np.abs(vec[guard + 1 :]) ** 2))
    return abs(1.0 - float(np.vdot(vec, vec).real)) + tail


def _branch_vector(coeff: complex, alpha: complex, squeeze: SqueezeParam, n_max: int):
    vec = coherent_vector(alpha, n_max)
    if squeeze.r != 0.0:
        vec = squeeze_matrix(squeeze, n_max) @ vec
    return coeff * vec


def build_state(desc, n_max: int = 60, *, budget_tol: float = BUDGET_TOL) -> np.ndarray:
    """Fock vector for a state description or explicit branch superposition.

    Descriptions go through the exact operator path (Kerr unitary applied as
    a diagonal phase matrix), so the result is independent of any branch
    decomposition and can arbitrate it.
    """
    if isinstance(desc, SuperpositionState):
        vec = np.zeros(n_max + 1, dtype=complex)
        for branch in desc.branches:
            vec += _branch_vector(branch.coeff, branch.alpha, branch.squeeze, n_max)
    elif isinstance(desc, StateDescription):
        if desc.kind == "coherent":
            vec = coherent_vector(desc.alpha, n_max)
        elif desc.kind == "squeezed_vacuum":
            vec = np.zeros(n_max + 1, dtype=complex)
            vec[0] = 1.0
            vec = squeeze_matrix(SqueezeParam(desc.r, desc.phi), n_max) @ vec
        elif desc.kind == "squeeze_kerr_coherent":
            chi = KerrOrder(desc.m).chi
            vec = kerr_matrix(chi, n_max) @ coherent_vector(desc.alpha, n_max)
            vec = squeeze_matrix(SqueezeParam(desc.r, desc.phi), n_max) @ vec
        elif desc.kind == "kerr_squeezed_vacuum":
            chi = KerrOrder(desc.m).chi
            vec = np.zeros(n_max + 1, dtype=complex)
            vec[0] = 1.0
            vec = squeeze_matrix(SqueezeParam(desc.r), n_max) @ vec
            vec = kerr_matrix(chi, n_max) @ vec
        else:  # pragma: no cover - StateDescription validates kinds
            raise ValueError(f"unknown state kind {desc.kind!r}")
    else:
        raise TypeError("expected StateDescription or SuperpositionState")

    budget = truncation_budget(vec)
    if budget >= budget_tol:
        raise CutoffTooSmall(
            f"truncation budget {budget:.3e} at n_max={n_max} exceeds {budget_tol!r}"
        )
    return vec / math.sqrt(float(np.vdot(vec, vec).real))


def density_matrix(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return state


def mean_photon(state: np.ndarray) -> float:
    rho = density_matrix(state)
    return float(np.sum(np.arange(rho.shape[0]) * np.diag(rho).real))


# ---------------------------------------------------------------------------
# characteristic function and PQD grids
# ---------------------------------------------------------------------------


def oracle_char(state: np.ndarray, xi: complex, t: float = 0.0) -> complex:
    """Tr[rho D(xi)] e^{t |xi|^2 / 2} via the exponentiated displacement."""
    rho = density_matrix(state)
    disp = displacement_matrix(xi, rho.shape[0] - 1)
    return complex(np.trace(rho @ disp) * np.exp(0.5 * t * abs(xi) ** 2))


def _char_points(rho: np.ndarray, xi: np.ndarray, t: float) -> np.ndarray:
    """t-ordered characteristic function at a flat array of complex xi.

    Sweeps the displacement matrix column by column with the two-term
    recurrence d_{m,n+1} = (sqrt(m) d_{m-1,n} - conj(xi) d_{m,n})/sqrt(n+1)
    seeded by the coherent column d_{m,0} = xi^m/sqrt(m!) e^{-|xi|^2/2};
    unlike a Laguerre band sum this stays at machine precision for the
    large |xi| the Fourier window needs.
    """
    dim = rho.shape[0]
    xi = np.asarray(xi, dtype=complex).ravel()
    x = np.abs(xi) ** 2
    neg_conj = -np.conj(xi)
    root = np.sqrt(np.arange(1.0, dim))

    col = np.empty((dim, xi.size), dtype=complex)
    col[0] = np.exp(-0.5 * x)
    for m in range(1, dim):
        col[m] = col[m - 1] * (xi / root[m - 1])
    out = rho[0, :] @ col

    nxt = np.empty_like(col)
    for n in range(1, dim):
        inv = 1.0 / math.sqrt(n)
        np.multiply(neg_conj, col[0], out=nxt[0])
        nxt[0] *= inv
        np.multiply(neg_conj[None, :], col[1:], out=nxt[1:])
        nxt[1:] += root[:, None] * col[:-1]
        nxt[1:] *= inv
        col, nxt = nxt, col
        out += rho[n, :] @ col
    return out * np.exp(0.5 * t * x)


def _char_grid(rho: np.ndarray, xi1, xi2, t: float) -> np.ndarray:
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    flat = (xi1[:, None] + 1j * xi2[None, :]).ravel()
    return _char_points(rho, flat, t).reshape(xi1.size, xi2.size)


def oracle_pqd_grid(state: np.ndarray, t: float, re_axis, im_axis) -> np.ndarray:
    """W^{(t)} on the grid, W[i, j] = W(re_axis[i] + 1j * im_axis[j]).

    Midpoint Fourier sum of the characteristic function: for a smooth
    rapidly decaying integrand the periodic-trapezoid error is governed by
    spectral aliasing, so the step is chosen as pi / (2 (b_max + k)) with k
    a photon-content margin, and the window grows by 1.5x until the
    characteristic function is below 1e-9 on the grid boundary.
    """
    if not t < 1.0:
        raise ValueError("oracle PQD grids need an ordering t < 1")
    rho = density_matrix(state)
    re_axis = np.asarray(re_axis, dtype=float)
    im_axis = np.asarray(im_axis, dtype=float)
    b_max = max(np.max(np.abs(re_axis)), np.max(np.abs(im_axis)))
    k_state = 2.0 * math.sqrt(mean_photon(rho) + 1.0) + 3.0
    step = math.pi / (2.0 * (b_max + k_state))

    window = 2.0 + 2.0 * math.sqrt(mean_photon(rho) + 1.0)
    while True:
        n_steps = int(math.ceil(2.0 * window / step))
        axis = -window + (np.arange(n_steps) + 0.5) * (2.0 * window / n_steps)
        # probe only the boundary ring before paying for the full grid
        frame = np.concatenate(
            [
                axis[0] + 1j * axis,
                axis[-1] + 1j * axis,
                axis + 1j * axis[0],
                axis + 1j * axis[-1],
            ]
        )
        edge = float(np.max(np.abs(_char_points(rho, frame, t))))
        if edge < _CHAR_EDGE_TOL:
            break
        if window >= _CHAR_WINDOW_CAP:
            raise TailBoundExceeded(
                f"characteristic function still {edge:.2e} at window {window!r}"
            )
        window *= 1.5

    char = _char_grid(rho, axis, axis, t)

    # The column sweep can lose precision once |xi| sqrt(dim) grows large
    # (per-column gain |xi|/sqrt(n)).  Two checks catch that without an
    # exact reference on the far grid: |Tr rho D| <= 1 everywhere, and expm
    # probes at radii small enough that the truncated exponential is itself
    # reliable (displaced support well inside the cutoff).
    magnitude = np.abs(char)
    if t > 0:
        magnitude = magnitude * np.exp(-0.5 * t * (axis[:, None] ** 2 + axis[None, :] ** 2))
    overshoot = float(np.max(magnitude)) - 1.0
    if overshoot > 1e-9:
        raise TailBoundExceeded(
            f"characteristic sweep exceeded the unit bound by {overshoot:.2e} at "
            f"dim {rho.shape[0]}; reduce the cutoff or window"
        )
    probe_r = max(1.0, math.sqrt(0.5 * rho.shape[0]) - math.sqrt(mean_photon(rho)))
    probe_r = min(probe_r, window)
    drift = 0.0
    for probe in (probe_r, 1j * probe_r, -probe_r * (1 + 1j) / math.sqrt(2), 0.3 + 0.2j):
        got = complex(_char_points(rho, np.array([probe]), t)[0])
        drift = max(drift, abs(got - oracle_char(rho, probe, t)))
    if drift > 1e-8:
        raise TailBoundExceeded(
            f"characteristic sweep drifted {drift:.2e} from the exact displacement "
            f"inside the trusted radius; reduce the cutoff or window"
        )

    h = 2.0 * window / n_steps
    # exp(beta conj(xi) - xi conj(beta)) = exp(2i Im(beta) xi1) exp(-2i Re(beta) xi2)
    phase_im = np.exp(2j * np.outer(axis, im_axis))
    phase_re = np.exp(-2j * np.outer(axis, re_axis))
    weighted = char * h * h
    out = (phase_re.T @ (weighted.T @ phase_im)).real / math.pi**2
    return np.ascontiguousarray(out)


def oracle_husimi(state: np.ndarray, re_axis, im_axis) -> np.ndarray:
    """Q[i, j] = <beta|rho|beta>/pi without any Fourier step."""
    rho = density_matrix(state)
    dim = rho.shape[0]
    beta = (np.asarray(re_axis, dtype=float)[:, None] + 1j * np.asarray(im_axis)[None, :]).ravel()
    coh = np.empty((beta.size, dim), dtype=complex)
    coh[:, 0] = np.exp(-0.5 * np.abs(beta) ** 2)
    for n in range(1, dim):
        coh[:, n] = coh[:, n - 1] * beta / math.sqrt(n)
    vals = np.einsum("gn,nm,gm->g", coh.conj(), rho, coh).real / math.pi
    return vals.reshape(len(re_axis), len(im_axis))


# ---------------------------------------------------------------------------
# noise channels and detector
# ---------------------------------------------------------------------------


def oracle_loss(rho: np.ndarray, eta: float, nbar: float = 0.0) -> np.ndarray:
    """Bosonic loss channel with transmissivity eta into a bath at nbar.

    A beam splitter of angle arccos(sqrt(eta)) mixes the mode with a thermal
    bath whose input is cut below 1e-12 occupation.  It conserves the total
    photon number N, so it is exponentiated on each block |N - k, k>, with
    k bath photons (output not cut) and N - k below the mode's cutoff.  Bath
    level e in and k out is the one-entry-per-column Kraus matrix
    K[i + e - k, i] = <i + e - k, k|U|i, e>, so K rho K^dag is rho times an
    outer product, shifted e - k along the diagonal; one sum per shift.
    """
    rho = density_matrix(rho)
    if not 0.0 < eta <= 1.0:
        raise ValueError("loss transmissivity must lie in (0, 1]")
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise ValueError("bath occupation nbar must be finite and >= 0")
    q = nbar / (1.0 + nbar)
    n_env = int(math.ceil(math.log(1e-12) / math.log(q))) if q > 0 else 0
    env = q ** np.arange(n_env + 1)
    env /= env.sum()
    dim = rho.shape[0]
    theta = math.acos(math.sqrt(eta))
    # amp[e, shift + dim - 1, i] = <i + shift, e - shift|U|i, e>
    amp = np.zeros((n_env + 1, 2 * dim - 1, dim))
    for total in range(n_env + dim):
        k = np.arange(max(0, total - dim + 1), total + 1)
        # theta (a^dag b - a b^dag) couples |N - k, k> to |N - k + 1, k - 1>
        hop = theta * np.sqrt((total - k[1:] + 1.0) * k[1:])
        block = expm(np.diag(hop, 1) - np.diag(hop, -1))
        e = k[k <= n_env][:, None]  # bath input levels, one row each
        amp[e, e - k + dim - 1, total - e] = block[:, e[:, 0] - k[0]].T
    out = np.zeros_like(rho)
    for shift in range(1 - dim, dim):
        lo, hi = max(0, -shift), dim - max(0, shift)
        cols = amp[:, shift + dim - 1, lo:hi]
        out[lo + shift : hi + shift, lo + shift : hi + shift] += (cols.T * env) @ cols * rho[lo:hi, lo:hi]
    return out


def oracle_off_probability(rho: np.ndarray, noise: NoiseParams) -> float:
    """No-click probability of the on/off detector on the given state."""
    rho = density_matrix(rho)
    populations = np.diag(rho).real
    return float((1.0 - noise.p_D) * np.sum((1.0 - noise.eta_D) ** np.arange(rho.shape[0]) * populations))


# ---------------------------------------------------------------------------
# self-checks
# ---------------------------------------------------------------------------


def _interior(n_max: int) -> int:
    return int(0.9 * n_max)


def verify_kerr_bch(chi: float, n_max: int = 60) -> float:
    """Max deviation of U^dag a U from e^{-2 i chi n} a on the interior block."""
    a = annihilation(n_max)
    kerr = kerr_matrix(chi, n_max)
    lhs = kerr.conj().T @ a @ kerr
    rhs = np.diag(np.exp(-2j * chi * np.arange(n_max + 1))) @ a
    cut = _interior(n_max)
    return float(np.max(np.abs(lhs[:cut, :cut] - rhs[:cut, :cut])))


def verify_u2_squeeze(r: float, n_max: int = 120) -> float:
    """|<0|S(-r)^dag U(pi/2) S(r)|0>|; the two-branch decomposition collapses
    to the single squeezed vacuum with inverted sign, so this is 1."""
    vac = np.zeros(n_max + 1, dtype=complex)
    vac[0] = 1.0
    lhs = kerr_matrix(math.pi / 2.0, n_max) @ (squeeze_matrix(SqueezeParam(r), n_max) @ vac)
    rhs = squeeze_matrix(SqueezeParam(r, math.pi), n_max) @ vac
    for vec in (lhs, rhs):
        budget = truncation_budget(vec)
        if budget >= 1e-10:
            raise CutoffTooSmall(
                f"need a larger n_max for r={r!r}: budget {budget:.3e}"
            )
    return float(abs(np.vdot(rhs, lhs)))
