"""Randomized properties of the packed PQD terms and their kernel (hypothesis)."""

import cmath
import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kerrpqd import negativity, phase_space
from kerrpqd.negativity import QuadratureSpec, integrable_ordering_sup, negativity_volume
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
    branch_overlap,
    kerr_squeezed_vacuum,
    squeeze_then_kerr_state,
)

SETTINGS = settings(max_examples=40, deadline=None)

alphas = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
squeezes = st.builds(SqueezeParam, st.floats(0.0, 0.6), st.floats(0.0, 2.0 * math.pi))
states = st.one_of(
    st.builds(squeeze_then_kerr_state, st.integers(1, 4), alphas, squeezes),
    st.builds(kerr_squeezed_vacuum, st.integers(1, 5), st.floats(0.05, 0.8)),
)
axes = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12).map(np.array)


def ordering(t_sup: float, frac: float) -> float:
    """A point of [-1, t_sup - 0.1], away from the integrability boundary."""
    return -1.0 + frac * (t_sup - 0.1 + 1.0)


def close(a, b, scale, rel):
    return np.all(np.abs(np.asarray(a) - np.asarray(b)) <= rel * np.maximum(np.abs(scale), 1.0))


@SETTINGS
@given(
    ket=st.builds(Branch, st.just(1.0), alphas, squeezes),
    bra=st.builds(Branch, st.just(1.0), alphas, squeezes),
    frac=st.floats(0.0, 1.0),
)
def test_swapped_pair_is_the_conjugate_form(ket, bra, frac):
    t_sup = float(np.linalg.eigvalsh(dyadic_char(ket, bra, 0.0).quad.real)[0])
    t = ordering(t_sup, frac)
    ab = fourier_transform_form(dyadic_char(ket, bra, t))
    ba = fourier_transform_form(dyadic_char(bra, ket, t))
    assert abs(ba.prefactor - ab.prefactor.conjugate()) <= 1e-12 * abs(ab.prefactor)
    assert close(ba.quad, ab.quad.conj(), np.abs(ab.quad).max(), 1e-12)
    assert close(ba.lin, ab.lin.conj(), np.abs(ab.lin).max(), 1e-12)


@SETTINGS
@given(ket=st.builds(Branch, st.just(1.0), alphas, squeezes), bra=st.builds(Branch, st.just(1.0), alphas, squeezes))
def test_dyadic_prefactor_is_the_branch_overlap(ket, bra):
    """dyadic_char's xi = 0 value comes from its own squeeze fold, bit for bit."""
    assert dyadic_char(ket, bra, 0.3).prefactor == branch_overlap(bra, ket)


def eigen_sqrt_det(quad) -> complex:
    """det(A)^{1/2} as the product of the eigenvalues' principal roots.

    Every eigenvalue of A = S + i lam T (S positive-definite) has a positive
    real part, so along lam each root moves continuously: this is the branch
    the Gaussian integral selects, computed without det A's own phase.
    """
    return complex(np.prod(np.sqrt(np.linalg.eigvals(quad))))


@SETTINGS
@given(
    log_s=st.lists(st.floats(-8.0, 1.0), min_size=2, max_size=2),
    angle=st.floats(0.0, math.pi),
    t_entries=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    log_t=st.floats(-3.0, 4.0),
)
def test_fourier_root_of_det_never_jumps(log_s, angle, t_entries, log_t):
    """Along A(lam) = S + i lam T, lam in [0, 1], the principal det(A)^{1/2} of
    fourier_transform_form starts at the positive root of det S and stays on
    the eigenvalue-product branch: |T| up to 1e4, S as near-singular as 1e-8."""
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    s_part = rot @ np.diag(10.0 ** np.array(log_s)) @ rot.T
    t_part = 10.0**log_t * np.array([[t_entries[0], t_entries[1]], [t_entries[1], t_entries[2]]])
    for lam in np.concatenate([np.linspace(0.0, 1.0, 33), np.logspace(-12.0, 0.0, 49)]):
        quad = s_part + 1j * lam * t_part
        form = fourier_transform_form(ComplexGaussianForm(1.0, quad, np.zeros(2)))
        root = (2.0 / math.pi) / form.prefactor
        ref = eigen_sqrt_det(quad)
        assert abs(root - ref) <= 1e-6 * abs(ref)  # a jump would give -ref
        if lam == 0.0:
            assert root.imag == 0.0 and root.real > 0.0


def unfolded(state, t, y):
    """(Re sum, sum of moduli) of the K^2 branch-pair terms at points y (..., 2).

    The float64 forms are evaluated in long double -- exponent, exp and cos --
    so that the reference's own rounding stays far below the kernel's.
    """
    u, v = (np.asarray(y[..., i], dtype=np.longdouble) for i in (0, 1))
    re_sum = np.zeros(u.shape, dtype=np.longdouble)
    mod_sum = np.zeros(u.shape, dtype=np.longdouble)
    for ket in state.branches:
        for bra in state.branches:
            form = fourier_transform_form(dyadic_char(ket, bra, t))
            scale = ket.coeff * bra.coeff.conjugate() * form.prefactor
            if scale == 0.0:
                continue
            log_scale = cmath.log(scale)
            re_expo, im_expo = (
                np.longdouble(c)
                + np.longdouble(b[0]) * u
                + np.longdouble(b[1]) * v
                - np.longdouble(a[0, 0]) / 2 * u * u
                - np.longdouble(a[0, 1]) * u * v
                - np.longdouble(a[1, 1]) / 2 * v * v
                for c, a, b in (
                    (log_scale.real, form.quad.real, form.lin.real),
                    (log_scale.imag, form.quad.imag, form.lin.imag),
                )
            )
            modulus = np.exp(re_expo)
            re_sum += modulus * np.cos(im_expo)
            mod_sum += modulus
    return re_sum.astype(float), mod_sum.astype(float)


@SETTINGS
@given(state=states, frac=st.floats(0.0, 1.0), x1=axes, x2=axes)
def test_packed_terms_match_the_unfolded_sum(state, frac, x1, x2):
    t = ordering(integrable_ordering_sup(state), frac)
    pqd = superposition_pqd(state, t)
    y = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1)
    ref, modulus = unfolded(state, t, y)
    assert np.all(np.abs(pqd.evaluate_grid(x1, x2) - ref) <= 1e-13 * modulus)
    points = y[..., 0] + 1j * y[..., 1]
    assert np.all(np.abs(pqd(points) - ref) <= 1e-13 * modulus)


@SETTINGS
@given(state=states, frac=st.floats(0.0, 1.0))
def test_tail_terms_are_the_pair_terms_envelopes(state, frac):
    """The tail bound's inputs equal, bit for bit, those of a second
    PqdFunction built from the pair terms alone."""
    pqd = superposition_pqd(state, ordering(integrable_ordering_sup(state), frac))
    keep = pqd.pair
    assume(keep.any())
    pairs = PqdFunction(pqd.log_pref[keep], pqd.quad[keep], pqd.lin[keep], keep[keep])
    peak, center, prec = pairs.envelopes()
    ref = (peak, center, np.linalg.eigvalsh(prec)[:, 0])
    for got, want in zip(negativity._tail_terms(pqd), ref):
        assert np.array_equal(got, want)


CAT = squeeze_then_kerr_state(2, 1.0, SqueezeParam(0.0))
cat_states = st.builds(
    squeeze_then_kerr_state,
    st.integers(2, 4),
    st.builds(cmath.rect, st.floats(0.8, 1.5), st.floats(0.0, 2.0 * math.pi)),
    st.builds(SqueezeParam, st.floats(0.0, 0.4), st.floats(0.0, 2.0 * math.pi)),
)


# index rectangles (i0, i1, j0, j1), ends exclusive, clipped to the grid by
# the test: empty ones, ones on the grid edges and ones across row blocks
rows, cols = st.integers(-5, 45), st.integers(-20, 320)
hole_lists = st.lists(st.tuples(rows, rows, cols, cols), max_size=4)


@SETTINGS
@given(
    state=cat_states,
    t=st.floats(-0.3, 0.0),
    n1=st.integers(1, 40),
    n2=st.integers(1, 300),
    block=st.sampled_from([1, 7, 64, 1000, 1 << 14]),
    workers=st.sampled_from([1, 2]),
    drawn=hole_lists,
)
@example(  # a corner, the last rows, across the 16-row blocks of 1000 points, empty
    state=CAT, t=-0.1, n1=40, n2=60, block=1000, workers=2,
    drawn=[(0, 3, 0, 5), (36, 40, 30, 60), (10, 30, 20, 21), (5, 5, 0, 60)],
)
def test_negative_mass_does_not_depend_on_the_blocking(state, t, n1, n2, block, workers, drawn):
    pqd = superposition_pqd(state, t)
    x1 = np.linspace(-1.2, 1.2, n1)  # the interference fringes of the cat states
    x2 = np.linspace(-1.0, 1.4, n2)
    w = np.maximum(-pqd.evaluate_grid(x1, x2), 0.0)
    assume(w.sum() > 0.0)
    holes = []
    for a, b, c, d in drawn:
        i0, i1 = sorted(min(max(k, 0), n1) for k in (a, b))
        j0, j1 = sorted(min(max(k, 0), n2) for k in (c, d))
        holes.append((i0, i1, j0, j1))
        w[i0:i1, j0:j1] = 0.0
    whole = math.fsum(w.sum(axis=1))
    with mock.patch.object(negativity, "_BLOCK_POINTS", block):
        assert negativity._negative_mass_grid(pqd, x1, x2, holes, workers) == whole


CURVE_STATE = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
CHUNK = phase_space._CHUNK


@SETTINGS
@given(state=states, frac=st.floats(0.0, 1.0), n1=st.integers(1, 6), n2=st.integers(1, 3 * CHUNK))
@example(state=CURVE_STATE, frac=0.5, n1=1, n2=CHUNK + 1)  # one row wider than a chunk
@example(state=CURVE_STATE, frac=0.5, n1=2, n2=CHUNK + 1)  # one-point grid chunks
@example(state=CURVE_STATE, frac=0.5, n1=3, n2=2 * CHUNK + 5)
@example(state=CURVE_STATE, frac=0.5, n1=5, n2=1000)  # 4 rows per chunk, then 1
@example(state=CURVE_STATE, frac=0.5, n1=6, n2=1)
def test_grid_chunks_equal_the_pointwise_values(state, frac, n1, n2):
    """The grid's row-run chunks and the points' flat chunks cut the same
    points differently; every point must still get the same bits."""
    pqd = superposition_pqd(state, ordering(integrable_ordering_sup(state), frac))
    x1 = np.linspace(-3.0, 3.0, n1)
    x2 = np.linspace(-2.5, 3.5, n2)
    grid = pqd.evaluate_grid(x1, x2)
    assert grid.shape == (n1, n2)
    assert np.array_equal(grid, pqd(x1[:, None] + 1j * x2[None, :]))


@SETTINGS
@given(state=states, frac=st.floats(0.0, 1.0), re=st.floats(-4.0, 4.0), im=st.floats(-4.0, 4.0))
def test_scalar_point_is_a_float(state, frac, re, im):
    pqd = superposition_pqd(state, ordering(integrable_ordering_sup(state), frac))
    value = pqd(complex(re, im))
    assert type(value) is float
    assert value == pqd(np.array([complex(re, im), 0.5 + 0.25j]))[0]
    env = np.empty(())
    assert pqd(complex(re, im), envelope=env) == value
    pair_env = np.empty(2)
    pqd(np.array([complex(re, im), 0.5 + 0.25j]), envelope=pair_env)
    assert env[()] == pair_env[0]


@SETTINGS
@given(state=states, frac=st.floats(0.0, 1.0), x1=axes, x2=axes)
def test_envelope_bounds_the_pqd_and_matches_the_term_gaussians(state, frac, x1, x2):
    pqd = superposition_pqd(state, ordering(integrable_ordering_sup(state), frac))
    points = x1[:, None] + 1j * x2[None, :]
    env = np.empty(points.shape)
    values = pqd(points, envelope=env)
    assert np.array_equal(values, pqd(points))
    assert np.all(env >= np.abs(values))
    peaks, centers, precs = pqd.envelopes()
    d = np.stack([points.real, points.imag], axis=-1)[..., None, :] - centers
    ref = (peaks * np.exp(-0.5 * np.einsum("...ki,kij,...kj->...k", d, precs, d))).sum(axis=-1)
    assert np.all(np.abs(env - ref) <= 1e-12 * ref)


def heated_squeezed_coherent(alpha, squeeze, heat):
    """A squeezed coherent state with its covariance scaled by heat >= 1."""
    pure = GaussianState.squeezed_coherent(alpha, squeeze)
    return GaussianState(heat * pure.cov, pure.mean)


gaussian_states = st.builds(heated_squeezed_coherent, alphas, squeezes, st.floats(1.0, 3.0))
single_branches = st.builds(
    lambda branch: SuperpositionState((branch,)), st.builds(Branch, st.just(1.0), alphas, squeezes)
)


@SETTINGS
@given(
    state=st.one_of(gaussian_states, single_branches),
    frac=st.floats(0.0, 1.0),
    x1=axes,
    x2=axes,
)
def test_one_term_pqd_is_its_own_envelope(state, frac, x1, x2):
    """The sampler accepts every draw of a Gaussian input, because W and the
    envelope of a one-term PQD are the same bits."""
    if isinstance(state, GaussianState):
        t_sup = float(np.linalg.eigvalsh(state.cov)[0])
        pqd = gaussian_pqd(state, ordering(t_sup, frac))
    else:
        pqd = superposition_pqd(state, ordering(integrable_ordering_sup(state), frac))
    points = x1[:, None] + 1j * x2[None, :]
    env = np.empty(points.shape)
    assert np.array_equal(pqd(points, envelope=env), env)


@settings(max_examples=10, deadline=None)
@given(
    state=cat_states.filter(lambda state: len(state) <= 3),
    f1=st.floats(0.0, 1.0, exclude_min=True),
    f2=st.floats(0.0, 1.0, exclude_min=True),
)
def test_negativity_is_non_decreasing_in_the_ordering(state, f1, f2):
    """N(t1) <= N(t2) for t1 < t2, the premise of find_threshold's
    Husimi-end probe: a lower ordering is a higher one smoothed by a
    positive Gaussian."""
    f1, f2 = sorted((f1, f2))
    assume(f1 < f2)
    span = integrable_ordering_sup(state) - 0.05 + 1.0
    t1, t2 = -1.0 + f1 * span, -1.0 + f2 * span
    spec = QuadratureSpec.for_state(state, tol=1e-4)
    n1, e1 = negativity_volume(state, t1, spec)
    n2, e2 = negativity_volume(state, t2, spec)
    assert n1 <= n2 + e1 + e2
