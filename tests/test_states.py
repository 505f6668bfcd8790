import cmath
import math

import numpy as np
import pytest

from kerrpqd.states import (
    Branch,
    KerrOrder,
    SqueezeParam,
    SuperpositionState,
    branch_overlap,
    compose_squeezing,
    compose_squeezing_chain,
    kerr_coefficients,
    kerr_coherent_state,
    kerr_squeezed_vacuum,
    parse_state_description,
    squeeze_then_kerr_state,
    state_extents,
    state_norm,
    su11_matrix,
)
from kerrpqd.fock_oracle import (
    build_state,
    coherent_vector,
    kerr_matrix,
    squeeze_matrix,
)


def fock_vector(state, n_max=60):
    return build_state(state, n_max=n_max)


def test_squeeze_param_hyperbolic_identity():
    for r in np.linspace(0.0, 2.5, 11):
        sq = SqueezeParam(float(r), 0.7)
        assert abs(sq.mu**2 - sq.nu**2 - 1.0) < 1e-12


def test_squeeze_param_phase_normalized():
    sq = SqueezeParam(0.5, -3.0 * math.pi)
    assert 0.0 <= sq.phi < 2.0 * math.pi
    assert abs(cmath.exp(1j * sq.phi) - cmath.exp(-3j * math.pi)) < 1e-12


def test_squeeze_param_rejects_negative_r():
    with pytest.raises(ValueError):
        SqueezeParam(-0.1)


def test_kerr_order_validation():
    assert KerrOrder(3).chi == pytest.approx(math.pi / 3)
    with pytest.raises(ValueError):
        KerrOrder(0)


@pytest.mark.parametrize("m", [2.7, 2.0, 0, -1])
def test_kerr_states_check_a_plain_order(m):
    """A plain number goes through KerrOrder's check: no silent int(2.7) = 2,
    and no ZeroDivisionError for m = 0."""
    for build in (
        lambda: kerr_coherent_state(m, 1.0),
        lambda: squeeze_then_kerr_state(m, 1.0, SqueezeParam(0.2)),
        lambda: kerr_squeezed_vacuum(m, 0.5),
        lambda: kerr_coefficients(m),
    ):
        with pytest.raises(ValueError, match="Kerr order"):
            build()


def test_squeeze_param_rejects_a_non_finite_phase():
    for phi in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="phase must be finite"):
            SqueezeParam(0.5, phi)


def test_kerr_coefficients_m1_is_identity():
    coeffs = kerr_coefficients(1)
    assert len(coeffs) == 1
    assert coeffs[0] == pytest.approx(1.0)


def test_kerr_coefficients_m2_closed_form():
    f0, f1 = kerr_coefficients(2)
    assert f0 == pytest.approx((1.0 - 1.0j) / 2.0)
    assert f1 == pytest.approx((1.0 + 1.0j) / 2.0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_kerr_decomposition_matches_unitary(m):
    """sum_q f_q e^{i theta_q n} must reproduce e^{-i pi n(n-1)/m} per level."""
    n = np.arange(40)
    target = np.exp(-1j * math.pi * n * (n - 1) / m)
    shift = math.pi / m if m % 2 == 0 else 0.0
    acc = np.zeros_like(target)
    for q, f in enumerate(kerr_coefficients(m)):
        acc += f * np.exp(1j * (-2.0 * math.pi * q / m + shift) * n)
    assert np.abs(acc - target).max() < 1e-12


@pytest.mark.parametrize("m,alpha", [(3, 1.0), (5, 1.0), (2, 0.8 + 0.3j)])
def test_kerr_coherent_state_oracle_fidelity(m, alpha):
    state = kerr_coherent_state(m, alpha)
    psi = fock_vector(state)
    ref = kerr_matrix(math.pi / m, 60) @ coherent_vector(alpha, 60)
    ref = ref / np.linalg.norm(ref)
    assert abs(abs(np.vdot(ref, psi)) - 1.0) < 1e-10


def test_kerr_coherent_state_m1_is_plain_coherent():
    state = kerr_coherent_state(1, 0.7)
    assert len(state) == 1
    assert state.branches[0].alpha == pytest.approx(0.7)
    assert state.branches[0].squeeze.r == 0.0


def test_yurke_stoler_form():
    # m = 2 gives (|i alpha> + i |-i alpha>)/sqrt(2) up to a global phase
    alpha = 1.1
    state = kerr_coherent_state(2, alpha)
    psi = fock_vector(state)
    ys = (coherent_vector(1j * alpha, 60) + 1j * coherent_vector(-1j * alpha, 60)) / math.sqrt(2.0)
    assert abs(abs(np.vdot(ys, psi)) - 1.0) < 1e-10


@pytest.mark.parametrize("m,alpha,r", [(2, 1.0, 0.2), (3, 1.0, 0.2)])
def test_squeeze_then_kerr_oracle_fidelity(m, alpha, r):
    state = squeeze_then_kerr_state(m, alpha, SqueezeParam(r))
    psi = fock_vector(state)
    ref = squeeze_matrix(SqueezeParam(r), 60) @ kerr_matrix(math.pi / m, 60) @ coherent_vector(alpha, 60)
    assert abs(abs(np.vdot(ref, psi)) - 1.0) < 1e-8


def test_squeeze_then_kerr_r0_matches_kerr_coherent():
    a = squeeze_then_kerr_state(3, 0.9, SqueezeParam(0.0))
    b = kerr_coherent_state(3, 0.9)
    for x, y in zip(a.branches, b.branches):
        assert x.coeff == pytest.approx(y.coeff)
        assert x.alpha == pytest.approx(y.alpha)


@pytest.mark.parametrize("m,r", [(3, 1.0), (5, 0.5)])
def test_kerr_squeezed_vacuum_oracle_fidelity(m, r):
    state = kerr_squeezed_vacuum(m, r)
    psi = fock_vector(state, n_max=80)
    vac = np.zeros(81)
    vac[0] = 1.0
    ref = kerr_matrix(math.pi / m, 80) @ (squeeze_matrix(SqueezeParam(r), 80) @ vac)
    assert abs(abs(np.vdot(ref, psi)) - 1.0) < 1e-10


@pytest.mark.parametrize("m", [2, 4])
def test_kerr_squeezed_vacuum_even_collapse(m):
    """U(pi/2) S(r)|0> = S(-r)|0>; m = 4 collapses the same way."""
    state = kerr_squeezed_vacuum(m, 0.6)
    assert len(state) == 1
    psi = fock_vector(state, n_max=80)
    vac = np.zeros(81)
    vac[0] = 1.0
    if m == 2:
        ref = squeeze_matrix(SqueezeParam(0.6, math.pi), 80) @ vac  # S(-r) = S(r e^{i pi})
        assert abs(abs(np.vdot(ref, psi)) - 1.0) < 1e-10


def test_compose_squeezing_identity_and_inverse():
    xi = SqueezeParam(0.8, 1.1)
    out, phase = compose_squeezing(xi, SqueezeParam(0.0))
    assert out.r == pytest.approx(0.8)
    assert phase == pytest.approx(0.0)
    out, phase = compose_squeezing(SqueezeParam(0.7, math.pi), SqueezeParam(0.7, 0.0))
    assert out.r == pytest.approx(0.0, abs=1e-12)
    assert phase == pytest.approx(0.0, abs=1e-12)


def test_compose_squeezing_su11_homomorphism():
    """S(xi1) S(xi2) = S(xi3) e^{i Phi (n+1/2)/2}: check in the 2x2 rep.

    In that representation the scalar factor acts as diag(e^{i Phi/2},
    e^{-i Phi/2}).
    """
    rng = np.random.default_rng(42)
    for _ in range(100):
        xi1 = SqueezeParam(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        xi2 = SqueezeParam(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        xi3, phase = compose_squeezing(xi1, xi2)
        lhs = su11_matrix(xi1) @ su11_matrix(xi2)
        rhs = su11_matrix(xi3) @ np.diag(
            [cmath.exp(0.5j * phase), cmath.exp(-0.5j * phase)]
        )
        assert np.abs(lhs - rhs).max() < 1e-10


def test_compose_squeezing_chain_matches_matrix_product():
    """The folded (xi, Phi) must equal the literal operator product."""
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        params = [
            SqueezeParam(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi))
            for _ in range(n)
        ]
        xi, phase = compose_squeezing_chain(params)
        folded = su11_matrix(xi) @ np.diag(
            [cmath.exp(0.5j * phase), cmath.exp(-0.5j * phase)]
        )
        chain = np.eye(2, dtype=complex)
        for p in params:
            chain = chain @ su11_matrix(p)
        assert np.abs(folded - chain).max() < 1e-10


def test_su11_matrix_values():
    assert np.abs(su11_matrix(SqueezeParam(0.0)) - np.eye(2)).max() < 1e-15
    m = su11_matrix(SqueezeParam(1.0))
    assert m[0, 0] == pytest.approx(math.cosh(1.0))
    assert m[0, 1] == pytest.approx(math.sinh(1.0))
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi = SqueezeParam(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
        assert np.linalg.det(su11_matrix(xi)) == pytest.approx(1.0, abs=1e-12)


def test_branch_overlap_against_fock_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        bra = Branch(
            1.0,
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            SqueezeParam(rng.uniform(0, 0.8), rng.uniform(0, 2 * math.pi)),
        )
        ket = Branch(
            1.0,
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            SqueezeParam(rng.uniform(0, 0.8), rng.uniform(0, 2 * math.pi)),
        )
        val = branch_overlap(bra, ket)
        v_bra = fock_vector(SuperpositionState((bra,)), n_max=80)
        v_ket = fock_vector(SuperpositionState((ket,)), n_max=80)
        assert abs(val - np.vdot(v_bra, v_ket)) < 1e-8


@pytest.mark.parametrize(
    "state",
    [
        kerr_coherent_state(3, 1.0),
        kerr_coherent_state(4, 0.7 - 0.2j),
        squeeze_then_kerr_state(5, 0.8, SqueezeParam(0.3)),
        kerr_squeezed_vacuum(3, 1.0),
        kerr_squeezed_vacuum(5, 0.5),
    ],
)
def test_constructor_norms(state):
    assert state_norm(state) == pytest.approx(1.0, abs=1e-10)


def test_state_extents():
    amax, rmax = state_extents(squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2)))
    assert amax == pytest.approx(1.0)
    assert rmax == pytest.approx(0.2)


def test_superposition_merges_coincident_branches():
    b = Branch(0.5, 0.3, SqueezeParam(0.1))
    state = SuperpositionState((b, b))  # 0.5 + 0.5 of the same branch
    assert len(state) == 1
    assert state.branches[0].coeff == pytest.approx(1.0)


def test_superposition_prunes_zero_weight():
    state = SuperpositionState((Branch(1.0, 0.0), Branch(1e-16, 3.0)))
    assert len(state) == 1


def test_superposition_rejects_bad_norm():
    with pytest.raises(ValueError):
        SuperpositionState((Branch(0.5, 0.0),))
    with pytest.raises(ValueError):
        SuperpositionState(())


def test_parse_state_description_roundtrip():
    desc = parse_state_description(
        "kind=squeeze_kerr_coherent m=3 alpha_re=1 alpha_im=0 r=0.2"
    )
    assert desc.kind == "squeeze_kerr_coherent"
    assert desc.m == 3
    assert desc.alpha == 1.0 + 0.0j
    assert desc.r == 0.2
    state = desc.to_state()
    ref = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
    for x, y in zip(state.branches, ref.branches):
        assert x.coeff == pytest.approx(y.coeff)
        assert x.alpha == pytest.approx(y.alpha)


def test_parse_state_description_errors():
    with pytest.raises(ValueError):
        parse_state_description("kind=bogus")
    with pytest.raises(ValueError):
        parse_state_description("alpha_re=1")  # no kind
    with pytest.raises(ValueError):
        parse_state_description("kind=coherent r=1")  # key not in kind's set
    with pytest.raises(ValueError):
        parse_state_description("kind=kerr_squeezed_vacuum r=1")  # missing m
    with pytest.raises(ValueError):
        parse_state_description("kind=coherent alpha_re=xyz")
    with pytest.raises(ValueError):
        parse_state_description("kind=coherent alpha_re=1 alpha_re=2")
