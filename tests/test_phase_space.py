import cmath
import math
from unittest import mock

import numpy as np
import pytest
from scipy.signal import fftconvolve

from kerrpqd import phase_space, states
from kerrpqd.errors import NotIntegrable, OrderingTooHigh
from kerrpqd.phase_space import (
    ComplexGaussianForm,
    GaussianState,
    PqdFunction,
    dyadic_char,
    fourier_transform_form,
    gaussian_pqd,
    superposition_pqd,
)
from kerrpqd.states import (
    Branch,
    SqueezeParam,
    SuperpositionState,
    compose_squeezing,
    kerr_squeezed_vacuum,
    squeeze_then_kerr_state,
)
from kerrpqd.fock_oracle import build_state, oracle_char


AXIS = np.linspace(-4.0, 4.0, 81)


def vacuum_char_form(t=0.0):
    # Tr[|0><0| D(xi)] e^{t|xi|^2/2} = e^{-(1-t)|xi|^2/2}
    return ComplexGaussianForm(1.0, (1.0 - t) * np.eye(2), np.zeros(2, dtype=complex))


def test_form_integrability_flag():
    assert vacuum_char_form().is_integrable()
    flat = ComplexGaussianForm(1.0, np.diag([1.0, 0.0]), np.zeros(2, dtype=complex))
    assert not flat.is_integrable()


def test_form_envelope_bounds_modulus():
    rng = np.random.default_rng(5)
    for _ in range(20):
        base = rng.uniform(-1, 1, (2, 2))
        quad = base @ base.T + 0.3 * np.eye(2) + 1j * rng.uniform(-0.5, 0.5, (2, 2))
        quad = 0.5 * (quad + quad.T)
        lin = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        prefactor = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pqd = PqdFunction([cmath.log(prefactor)], [quad], [lin], [True])
        peaks, centers, precs = pqd.envelopes()
        pts = rng.uniform(-3, 3, (200, 2))
        vals = np.abs(pqd(pts[:, 0] + 1j * pts[:, 1]))
        d = pts - centers[0]
        bound = peaks[0] * np.exp(-0.5 * np.einsum("ni,ij,nj->n", d, precs[0], d))
        assert (vals <= bound * (1.0 + 1e-9)).all()


def test_fourier_vacuum_wigner():
    wig = fourier_transform_form(vacuum_char_form())
    val = wig.evaluate(np.array([0.0, 0.0]))
    assert val == pytest.approx(2.0 / math.pi)
    val = wig.evaluate(np.array([0.7, -0.4]))
    assert val == pytest.approx((2.0 / math.pi) * math.exp(-2.0 * (0.7**2 + 0.4**2)))


def test_fourier_rejects_p_function_of_coherent():
    with pytest.raises(NotIntegrable):
        fourier_transform_form(vacuum_char_form(t=1.0))


def test_fourier_matches_numerical_quadrature():
    """Direct 2-D quadrature of Int d^2xi/pi^2 f(xi) e^{beta xi* - xi beta*}."""
    rng = np.random.default_rng(13)
    ax = np.linspace(-9.0, 9.0, 1201)
    h = ax[1] - ax[0]
    x1 = ax[:, None]
    x2 = ax[None, :]
    for _ in range(3):
        base = rng.uniform(-1, 1, (2, 2))
        quad = base @ base.T + 0.4 * np.eye(2) + 0.3j * rng.uniform(-1, 1, (2, 2))
        quad = 0.5 * (quad + quad.T)
        lin = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        form = ComplexGaussianForm(0.7 - 0.2j, quad, lin)
        out = fourier_transform_form(form)
        f_grid = form.prefactor * np.exp(
            -0.5 * (quad[0, 0] * x1**2 + 2 * quad[0, 1] * x1 * x2 + quad[1, 1] * x2**2)
            + lin[0] * x1
            + lin[1] * x2
        )
        for beta in (0.0, 0.3 + 0.1j, -0.5j, 1.0, -0.4 + 0.8j):
            phase = np.exp(2j * (beta.imag * x1 - beta.real * x2))
            ref = (f_grid * phase).sum() * h * h / math.pi**2
            val = out.evaluate(np.array([beta.real, beta.imag]))
            assert abs(val - ref) < 1e-7


def test_gaussian_pqd_coherent_wigner():
    alpha = 0.8 - 0.3j
    pqd = gaussian_pqd(GaussianState.coherent(alpha), 0.0)
    for beta in (alpha, alpha + 0.5, 1j):
        ref = (2.0 / math.pi) * math.exp(-2.0 * abs(beta - alpha) ** 2)
        assert pqd(beta) == pytest.approx(ref, abs=1e-12)


def test_gaussian_pqd_thermal_p_function():
    nbar = 0.7
    lam = 2.0 * nbar + 1.0
    pqd = gaussian_pqd(GaussianState.thermal(nbar), 1.0)
    for beta in (0.0, 0.5, 0.3 + 0.4j):
        ref = (2.0 / (math.pi * (lam - 1.0))) * math.exp(-2.0 * abs(beta) ** 2 / (lam - 1.0))
        assert pqd(beta) == pytest.approx(ref, abs=1e-12)


def test_gaussian_pqd_ordering_identifications():
    # t = -1 Husimi, t = 0 Wigner for the vacuum
    vac = GaussianState.vacuum()
    assert gaussian_pqd(vac, -1.0)(0.0) == pytest.approx(1.0 / math.pi)
    assert gaussian_pqd(vac, 0.0)(0.0) == pytest.approx(2.0 / math.pi)


def test_gaussian_pqd_boundary_raises():
    r = 0.4
    state = GaussianState.squeezed_vacuum(r)
    with pytest.raises(OrderingTooHigh):
        gaussian_pqd(state, math.exp(-2.0 * r))
    # just below the boundary is fine
    pqd = gaussian_pqd(state, math.exp(-2.0 * r) - 1e-3)
    assert pqd(0.0) > 0.0


def test_gaussian_state_rejects_unphysical_covariance():
    with pytest.raises(ValueError):
        GaussianState(0.5 * np.eye(2), np.zeros(2))
    # NaN fails every comparison, so it needs a check of its own
    for cov, mean in ((np.full((2, 2), np.nan), np.zeros(2)), (np.eye(2), [np.inf, 0.0])):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(cov, mean)
    with pytest.raises(ValueError, match="finite"):
        GaussianState.squeezed_vacuum(0.5, math.inf)


def test_dyadic_char_coherent_reduction():
    # r = 0, gamma = alpha: plain coherent characteristic function
    alpha = 0.6 + 0.2j
    t = -0.3
    form = dyadic_char(
        Branch(1.0, alpha, SqueezeParam(0.0)), Branch(1.0, alpha, SqueezeParam(0.0)), t
    )
    for xi in (0.2, -0.1 + 0.5j, 1.0j):
        ref = cmath.exp(
            -0.5 * (1.0 - t) * abs(xi) ** 2 + xi * alpha.conjugate() - xi.conjugate() * alpha
        )
        val = form.evaluate(np.array([xi.real, xi.imag]))
        assert abs(val - ref) < 1e-12


def test_dyadic_char_xi0_is_overlap():
    alpha, gamma = 1.0, 1.0j
    form = dyadic_char(
        Branch(1.0, alpha, SqueezeParam(0.0)), Branch(1.0, gamma, SqueezeParam(0.0)), 0.0
    )
    val = form.evaluate(np.zeros(2))
    ref = cmath.exp(-0.5 * (abs(alpha) ** 2 + abs(gamma) ** 2) + gamma.conjugate() * alpha)
    assert abs(val - ref) < 1e-12


def test_dyadic_char_squeezed_coherent_vs_oracle():
    """alpha = 1, gamma = i, r = 0.2, t = -0.5 at a fixed probe point."""
    alpha, gamma, r, t = 1.0, 1.0j, 0.2, -0.5
    xi = 0.3 + 0.1j
    form = dyadic_char(Branch(1.0, alpha, SqueezeParam(r)), Branch(1.0, gamma, SqueezeParam(r)), t)
    val = form.evaluate(np.array([xi.real, xi.imag]))
    sq = SqueezeParam(r)
    ket = build_state(SuperpositionState((Branch(1.0, alpha, sq),)), n_max=60)
    bra = build_state(SuperpositionState((Branch(1.0, gamma, sq),)), n_max=60)
    ref = oracle_char(np.outer(ket, bra.conj()), xi, t)
    assert abs(val - ref) < 1e-8


def test_dyadic_char_squeezed_vacua_identity_point():
    form = dyadic_char(
        Branch(1.0, 0.0, SqueezeParam(0.8, 1.3)), Branch(1.0, 0.0, SqueezeParam(0.8, 1.3)), 0.0
    )
    assert abs(form.evaluate(np.zeros(2)) - 1.0) < 1e-12


def test_dyadic_char_squeezed_vacua_overlap_vs_oracle():
    rng = np.random.default_rng(23)
    for _ in range(6):
        r = rng.uniform(0.1, 1.0)
        phi = rng.uniform(0, 2 * math.pi)
        psi = rng.uniform(0, 2 * math.pi)
        form = dyadic_char(
            Branch(1.0, 0.0, SqueezeParam(r, phi)), Branch(1.0, 0.0, SqueezeParam(r, psi)), 0.0
        )
        val = form.evaluate(np.zeros(2))
        ket = build_state(
            SuperpositionState((Branch(1.0, 0.0, SqueezeParam(r, phi)),)), n_max=80
        )
        bra = build_state(
            SuperpositionState((Branch(1.0, 0.0, SqueezeParam(r, psi)),)), n_max=80
        )
        ref = np.vdot(bra, ket)
        assert abs(val - ref) < 1e-8


def test_dyadic_char_squeezed_vacua_grid_vs_oracle():
    """r = 1, phi = 0, psi = 4pi/3, t = -0.8 over ten probe points."""
    r, phi, psi, t = 1.0, 0.0, 4.0 * math.pi / 3.0, -0.8
    form = dyadic_char(
        Branch(1.0, 0.0, SqueezeParam(r, phi)), Branch(1.0, 0.0, SqueezeParam(r, psi)), t
    )
    ket = build_state(
        SuperpositionState((Branch(1.0, 0.0, SqueezeParam(r, phi)),)), n_max=80
    )
    bra = build_state(
        SuperpositionState((Branch(1.0, 0.0, SqueezeParam(r, psi)),)), n_max=80
    )
    dyad = np.outer(ket, bra.conj())
    rng = np.random.default_rng(31)
    for _ in range(10):
        xi = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        val = form.evaluate(np.array([xi.real, xi.imag]))
        assert abs(val - oracle_char(dyad, xi, t)) < 1e-7


def test_superposition_matches_gaussian_path():
    """Single squeezed-vacuum branch through both PQD code paths."""
    r, phi, t = 0.5, 0.9, -0.4
    state = SuperpositionState((Branch(1.0, 0.0, SqueezeParam(r, phi)),))
    a = superposition_pqd(state, t)
    b = gaussian_pqd(GaussianState.squeezed_vacuum(r, phi), t)
    grid_a = a.evaluate_grid(AXIS, AXIS)
    grid_b = b.evaluate_grid(AXIS, AXIS)
    assert np.abs(grid_a - grid_b).max() < 1e-10


def test_superposition_pqd_normalization_and_reality():
    state = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    for t in (-1.0, -0.5, 0.0):
        pqd = superposition_pqd(state, t)
        assert abs(pqd.analytic_integral() - 1.0) < 1e-8
        # real by construction: conjugate pairs are folded when the PQD is
        # built (test_properties checks the conjugate symmetry)
        vals = pqd(AXIS[:, None] + 1j * AXIS[None, :])
        assert vals.dtype == np.float64
        assert abs(vals.sum() * (AXIS[1] - AXIS[0]) ** 2 - 1.0) < 1e-4


def test_pair_terms_are_built_in_closed_form():
    """Per branch pair: one squeeze fold and one integrability check; and
    neither the build nor the total mass calls np.linalg (no inverse or
    eigen-solver)."""
    state = kerr_squeezed_vacuum(3, 1.0)
    pairs = len(state.branches) * (len(state.branches) + 1) // 2
    folds = mock.Mock(wraps=compose_squeezing)
    check = ComplexGaussianForm.is_integrable
    refuse = mock.Mock(side_effect=AssertionError("np.linalg call on the normal path"))
    linalg = dict.fromkeys(("inv", "det", "eigh", "eigvalsh", "solve"), refuse)
    with (
        mock.patch.object(phase_space, "compose_squeezing", folds),
        mock.patch.object(states, "compose_squeezing", folds),
        mock.patch.object(ComplexGaussianForm, "is_integrable", autospec=True, side_effect=check) as checks,
        mock.patch.multiple(np.linalg, **linalg),
    ):
        mass = superposition_pqd(state, -0.5).analytic_integral()
    assert folds.call_count == pairs
    assert checks.call_count == pairs
    assert abs(mass - 1.0) < 1e-8


def test_superposition_pqd_husimi_floor():
    state = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    grid = superposition_pqd(state, -1.0).evaluate_grid(AXIS, AXIS)
    assert grid.min() >= -1e-9


def test_superposition_pqd_not_integrable_past_sup():
    state = SuperpositionState((Branch(1.0, 0.0, SqueezeParam(0.3)),))
    with pytest.raises(NotIntegrable):
        superposition_pqd(state, 0.9)  # above e^{-0.6}


def test_near_supremum_displaced_state_raises_cleanly():
    """Displaced branches push the completed square past float range just
    below the integrability supremum; that must surface as OrderingTooHigh,
    never as a silently-zero PQD."""
    state = squeeze_then_kerr_state(2, 1.0, SqueezeParam(0.2))
    t_boundary = math.exp(-0.4)  # smallest Re-A eigenvalue over branch pairs
    with pytest.raises((OrderingTooHigh, NotIntegrable)):
        pqd = superposition_pqd(state, t_boundary - 1e-7)
        grid = pqd.evaluate_grid(AXIS, AXIS)
        # if construction succeeded the mass must still be there
        if abs(grid.sum() * (AXIS[1] - AXIS[0]) ** 2) < 0.5:
            raise AssertionError("PQD silently lost its probability mass")


def test_smoothing_convolution_identity():
    """W^{(t')} = W^{(t)} * Gaussian with variance (t - t')/4 per beta axis
    (equivalently (t - t')/2 per sqrt(2)-scaled quadrature axis)."""
    state = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    t_hi, t_lo = -0.4, -1.0
    var = (t_hi - t_lo) / 4.0
    h = 0.05
    ax = np.arange(-6.0, 6.0 + h / 2, h)
    w_hi = superposition_pqd(state, t_hi).evaluate_grid(ax, ax)
    w_lo = superposition_pqd(state, t_lo).evaluate_grid(ax, ax)
    g = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * var)) / (2.0 * math.pi * var)
    conv = fftconvolve(w_hi, g, mode="same") * h * h
    mask = (np.abs(ax[:, None]) <= 3.0) & (np.abs(ax[None, :]) <= 3.0)
    assert np.abs(conv - w_lo)[mask].max() < 1e-6


def test_dyadic_char_generic_branches_vs_oracle():
    """Mixed squeezes and displacements against the truncated-space trace."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        bra = Branch(
            1.0,
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            SqueezeParam(rng.uniform(0, 0.7), rng.uniform(0, 2 * math.pi)),
        )
        ket = Branch(
            1.0,
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            SqueezeParam(rng.uniform(0, 0.7), rng.uniform(0, 2 * math.pi)),
        )
        t = rng.uniform(-1.0, 0.2)
        xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        form = dyadic_char(ket, bra, t)
        val = form.evaluate(np.array([xi.real, xi.imag]))
        k_vec = build_state(SuperpositionState((ket,)), n_max=80)
        b_vec = build_state(SuperpositionState((bra,)), n_max=80)
        ref = oracle_char(np.outer(k_vec, b_vec.conj()), xi, t)
        assert abs(val - ref) < 1e-8
