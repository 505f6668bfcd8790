import math

import numpy as np
import pytest
from scipy.linalg import expm

from kerrpqd.errors import CutoffTooSmall
from kerrpqd.phase_space import GaussianState, gaussian_pqd
from kerrpqd.simulability import NoiseParams
from kerrpqd.states import (
    Branch,
    SqueezeParam,
    SuperpositionState,
    parse_state_description,
)
from kerrpqd.fock_oracle import (
    annihilation,
    build_state,
    coherent_vector,
    density_matrix,
    displacement_matrix,
    kerr_matrix,
    mean_photon,
    oracle_char,
    oracle_husimi,
    oracle_loss,
    oracle_off_probability,
    oracle_pqd_grid,
    squeeze_matrix,
    truncation_budget,
    verify_kerr_bch,
    verify_u2_squeeze,
)


def interior(n_max):
    return slice(0, int(0.9 * n_max))


def test_commutator_on_interior_block():
    n_max = 40
    a = annihilation(n_max)
    comm = a @ a.conj().T - a.conj().T @ a
    blk = interior(n_max)
    assert np.abs(comm[blk, blk] - np.eye(n_max + 1)[blk, blk]).max() < 1e-12


def test_displacement_unitary_interior():
    n_max = 60
    d = displacement_matrix(0.7 - 0.4j, n_max)
    gram = d.conj().T @ d
    blk = interior(n_max)
    assert np.abs(gram[blk, blk] - np.eye(n_max + 1)[blk, blk]).max() < 1e-8


def test_vacuum_displacement_overlap():
    # <0|D(xi)|0> = e^{-|xi|^2/2}
    for xi in (0.3, 1.0j, 0.5 - 0.8j):
        d = displacement_matrix(xi, 50)
        assert abs(d[0, 0] - math.exp(-0.5 * abs(xi) ** 2)) < 1e-12


def test_squeezed_vacuum_ground_amplitude():
    # S(r)|0> has <0| amplitude 1/sqrt(cosh r)
    for r in (0.3, 0.8, 1.2):
        s = squeeze_matrix(SqueezeParam(r), 80)
        assert abs(s[0, 0] - 1.0 / math.sqrt(math.cosh(r))) < 1e-10


def test_u2_phases_on_even_levels():
    # U(pi/2)|2n> = (-1)^n |2n>, and U(pi) is the identity on every level
    u2 = kerr_matrix(math.pi / 2, 20)
    for n in range(10):
        assert u2[2 * n, 2 * n] == pytest.approx((-1.0) ** n)
    u1 = kerr_matrix(math.pi, 20)
    assert np.abs(np.diag(u1) - 1.0).max() < 1e-12


def test_coherent_vector_poisson_amplitudes():
    alpha = 1.3 - 0.2j
    vec = coherent_vector(alpha, 60)
    for n in (0, 1, 5):
        ref = math.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))
        assert abs(vec[n] - ref) < 1e-12


def test_build_state_budget_enforced():
    desc = parse_state_description("kind=coherent alpha_re=6 alpha_im=0")
    with pytest.raises(CutoffTooSmall):
        build_state(desc, n_max=40)
    psi = build_state(desc, n_max=90)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_truncation_budget_decreases_with_cutoff():
    state = SuperpositionState((Branch(1.0, 1.2, SqueezeParam(0.9)),))
    budgets = [
        truncation_budget(build_state(state, n_max=n, budget_tol=1.0))
        for n in (40, 60, 80)
    ]
    assert budgets[0] > budgets[1] > budgets[2]


def test_char_accuracy_improves_with_cutoff():
    """Truncation error against the analytic dyadic value shrinks as the
    cutoff grows (the r = 0.9 tail decays like tanh(r)^n, so convergence
    is slow but strictly monotone)."""
    from kerrpqd.phase_space import dyadic_char

    b = Branch(1.0, 1.2, SqueezeParam(0.9))
    xi = 1.1 - 0.6j
    ref = dyadic_char(b, b, 0.0).evaluate(np.array([xi.real, xi.imag]))
    errs = []
    for n_max in (40, 80, 140):
        psi = build_state(SuperpositionState((b,)), n_max=n_max, budget_tol=1.0)
        errs.append(abs(oracle_char(psi, xi, 0.0) - ref))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_oracle_char_vacuum():
    vac = np.zeros(41)
    vac[0] = 1.0
    for xi in (0.4, 0.9j, -0.3 + 0.6j):
        assert abs(oracle_char(vac, xi, 0.0) - math.exp(-0.5 * abs(xi) ** 2)) < 1e-12


def test_mean_photon():
    vac = np.zeros(31)
    vac[0] = 1.0
    assert mean_photon(vac) == pytest.approx(0.0)
    assert mean_photon(coherent_vector(1.5, 60)) == pytest.approx(2.25, abs=1e-8)


def test_oracle_husimi_vacuum_and_floor():
    vac = np.zeros(41)
    vac[0] = 1.0
    ax = np.linspace(-3, 3, 41)
    vac_grid = oracle_husimi(vac, ax, ax)
    assert vac_grid[20, 20] == pytest.approx(1.0 / math.pi)
    state = build_state(parse_state_description("kind=kerr_squeezed_vacuum m=3 r=0.8"), 60)
    assert oracle_husimi(state, ax, ax).min() >= -1e-12


def test_oracle_pqd_grid_vacuum_wigner():
    vac = np.zeros(41)
    vac[0] = 1.0
    ax = np.linspace(-2.0, 2.0, 21)
    grid = oracle_pqd_grid(vac, 0.0, ax, ax)
    ref = (2.0 / math.pi) * np.exp(-2.0 * (ax[:, None] ** 2 + ax[None, :] ** 2))
    assert np.abs(grid - ref).max() < 1e-10


def test_oracle_pqd_grid_matches_analytic_gaussian():
    state = SuperpositionState((Branch(1.0, 0.9 + 0.4j, SqueezeParam(0.5, 1.0)),))
    psi = build_state(state, n_max=80)
    ax = np.linspace(-3.0, 3.0, 31)
    grid = oracle_pqd_grid(psi, -0.5, ax, ax)
    ref = gaussian_pqd(
        GaussianState.squeezed_coherent(0.9 + 0.4j, SqueezeParam(0.5, 1.0)), -0.5
    ).evaluate_grid(ax, ax)
    # window + trapezoid truncation in the oracle quadrature sits near 1e-7
    assert np.abs(grid - ref).max() < 1e-6


@pytest.mark.parametrize("chi", [0.0, math.pi / 5, math.pi / 3, math.pi])
def test_verify_kerr_bch(chi):
    assert verify_kerr_bch(chi, 60) <= 1e-10


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_verify_u2_squeeze(r):
    assert abs(verify_u2_squeeze(r, 120) - 1.0) <= 1e-10


def test_u2_squeeze_coherent_corollary():
    # U(pi/2) S(r)|alpha> = S(-r) U(pi/2)|alpha> at r = 0.3, alpha = 1
    n_max = 80
    alpha, r = 1.0, 0.3
    u2 = kerr_matrix(math.pi / 2, n_max)
    lhs = u2 @ squeeze_matrix(SqueezeParam(r), n_max) @ coherent_vector(alpha, n_max)
    rhs = squeeze_matrix(SqueezeParam(r, math.pi), n_max) @ u2 @ coherent_vector(alpha, n_max)
    fid = abs(np.vdot(lhs, rhs)) ** 2 / (np.vdot(lhs, lhs).real * np.vdot(rhs, rhs).real)
    assert abs(fid - 1.0) < 1e-9


def test_loss_channel_on_coherent():
    n_max = 60
    gamma, eta = 1.1 - 0.5j, 0.6
    rho = oracle_loss(coherent_vector(gamma, n_max), eta)
    target = coherent_vector(math.sqrt(eta) * gamma, n_max)
    fid = float(np.real(target.conj() @ rho @ target))
    assert abs(fid - 1.0) < 1e-10
    assert abs(np.trace(rho).real - 1.0) < 1e-10


def test_loss_channel_thermal_moments():
    """On |1>: first moment sqrt(eta), added noise (lambda - 1)/2 photons
    with lambda = eta + (2 nbar + 1)(1 - eta).  A bath cut at its own
    occupation misses both at nbar = 1e-6: it cannot take the lost photons."""
    n_max = 60
    a = annihilation(n_max)
    for eta, nbar in ((0.7, 0.5), (0.7, 1e-6)):
        rho = oracle_loss(coherent_vector(1.0, n_max), eta, nbar)
        first = np.trace(rho @ a)
        photons = np.trace(rho @ (a.conj().T @ a)).real
        lam = eta + (2 * nbar + 1) * (1 - eta)
        assert abs(first - math.sqrt(eta)) < 1e-8
        assert abs(photons - (eta + (lam - 1) / 2)) < 1e-8
        assert abs(np.trace(rho).real - 1.0) < 1e-10


def joint_space_loss(rho, eta, nbar):
    """The loss channel as one expm on the mode (x) bath space, the bath's
    input cut as in oracle_loss and its output at n_env + n_max, so that
    nothing the photon-number blocks keep is truncated."""
    dim = rho.shape[0]
    q = nbar / (1.0 + nbar)
    n_env = int(math.ceil(math.log(1e-12) / math.log(q))) if q > 0 else 0
    bath = n_env + dim
    env = np.zeros(bath)
    env[: n_env + 1] = q ** np.arange(n_env + 1)
    env /= env.sum()
    a_full = np.kron(annihilation(dim - 1), np.eye(bath))
    b_full = np.kron(np.eye(dim), annihilation(bath - 1))
    theta = math.acos(math.sqrt(eta))
    mixer = expm(theta * (a_full.conj().T @ b_full - a_full @ b_full.conj().T))
    joint = mixer @ np.kron(rho, np.diag(env)) @ mixer.conj().T
    return np.einsum("iaja->ij", joint.reshape(dim, bath, dim, bath))


@pytest.mark.parametrize("nbar", [0.0, 1e-6, 0.5])
def test_loss_channel_matches_the_joint_space_exponential(nbar):
    n_max = 12
    gen = np.random.default_rng(3)
    amps = gen.standard_normal((n_max + 1, 3)) + 1j * gen.standard_normal((n_max + 1, 3))
    rho = amps @ amps.conj().T
    rho /= np.trace(rho).real
    got = oracle_loss(rho, 0.6, nbar)
    assert np.max(np.abs(got - joint_space_loss(rho, 0.6, nbar))) < 1e-12


@pytest.mark.parametrize("nbar", [-2.0, -0.5, math.inf, math.nan])
def test_loss_channel_rejects_a_negative_or_non_finite_bath(nbar):
    with pytest.raises(ValueError, match="nbar"):
        oracle_loss(coherent_vector(1.0, 20), 0.7, nbar)


def test_off_probability_closed_forms():
    n_max = 60
    vac = np.zeros(n_max + 1)
    vac[0] = 1.0
    noise = NoiseParams(eta_L=1.0, eta_D=0.8, p_D=0.3)
    assert oracle_off_probability(density_matrix(vac), noise) == pytest.approx(0.7)
    alpha = 1.2
    rho = density_matrix(coherent_vector(alpha, n_max))
    ref = 0.7 * math.exp(-0.8 * alpha**2)
    assert oracle_off_probability(rho, noise) == pytest.approx(ref, abs=1e-10)
