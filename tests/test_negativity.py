import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from kerrpqd import negativity
from kerrpqd.errors import NotIntegrable, OrderingTooHigh, TailBoundExceeded
from kerrpqd.fock_oracle import build_state, oracle_pqd_grid
from kerrpqd.negativity import (
    NegativityCurve,
    QuadratureSpec,
    find_threshold,
    husimi_zero_candidates,
    integrable_ordering_sup,
    negativity_curve,
    negativity_volume,
)
from kerrpqd.phase_space import PqdFunction, superposition_pqd
from kerrpqd.states import (
    Branch,
    SqueezeParam,
    SuperpositionState,
    kerr_coherent_state,
    kerr_squeezed_vacuum,
    squeeze_then_kerr_state,
)


def coherent_superposition(alpha):
    return SuperpositionState((Branch(1.0, alpha, SqueezeParam(0.0)),))


SHOWCASE_STATE = squeeze_then_kerr_state(3, 1.0, SqueezeParam(0.2))
# brute-force dense-grid reference for the state above at t = 0
SHOWCASE_WIGNER_NEGATIVITY = 0.426096238


# ---------------------------------------------------------------------------
# spec objects
# ---------------------------------------------------------------------------


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(window=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(base_resolution=32)
    with pytest.raises(ValueError):
        QuadratureSpec(refine_depth=-1)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)


def test_quadrature_spec_for_state_covers_extents():
    spec = QuadratureSpec.for_state(SHOWCASE_STATE)
    # every branch center sits well inside the window
    amax = max(abs(b.alpha) for b in SHOWCASE_STATE.branches)
    assert spec.window >= amax + 4.0
    assert QuadratureSpec.for_state(coherent_superposition(0.0)).window == 6.0


def test_curve_validator_rejects_bad_data():
    with pytest.raises(ValueError):
        NegativityCurve(((0.0, 0.1, 0.0), (0.0, 0.2, 0.0)))  # t not increasing
    with pytest.raises(ValueError):
        NegativityCurve(((-1.0, 0.5, 1e-9), (0.0, 0.1, 1e-9)))  # N falls
    with pytest.raises(ValueError):
        NegativityCurve(((-1.0, -0.5, 1e-3),))  # below -err
    curve = NegativityCurve(((-1.0, 0.0, 0.0), (0.0, 0.3, 1e-6)))
    assert len(curve) == 2


# ---------------------------------------------------------------------------
# Gaussian states carry no negativity anywhere they are defined
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "state,t",
    [
        (coherent_superposition(0.0), -1.0),
        (coherent_superposition(1.5 - 0.5j), 0.0),
        (SuperpositionState((Branch(1.0, 0.0, SqueezeParam(0.8)),)), 0.0),
    ],
)
def test_gaussian_states_have_zero_negativity(state, t):
    assert negativity_volume(state, t) == (0.0, 0.0)


def test_gaussian_curve_is_flat_zero():
    state = SuperpositionState((Branch(1.0, 0.0, SqueezeParam(0.5)),))
    curve = negativity_curve(state, -1.0, math.exp(-1.0) - 1e-3, 9)
    assert all(n == 0.0 for _, n, _ in curve)


# ---------------------------------------------------------------------------
# frozen Wigner negativity + oracle cross-check
# ---------------------------------------------------------------------------


def test_wigner_negativity_matches_dense_reference():
    val, err = negativity_volume(SHOWCASE_STATE, 0.0, workers=2)
    assert err < 1e-5
    assert abs(val - SHOWCASE_WIGNER_NEGATIVITY) < 1e-5


def test_wigner_negativity_matches_fock_oracle_quadrature():
    # independent route: truncated-Fock Wigner grid, midpoint sum of 2 max(-W, 0)
    psi = build_state(SHOWCASE_STATE, n_max=60)
    n, half = 321, 4.5
    ax = (np.arange(n) + 0.5) * (2 * half / n) - half
    grid = oracle_pqd_grid(psi, 0.0, ax, ax).real
    cell = (2 * half / n) ** 2
    rough = 2.0 * np.clip(-grid, 0.0, None).sum() * cell
    val, _ = negativity_volume(SHOWCASE_STATE, 0.0)
    assert abs(val - rough) < 5e-4


def test_negativity_vanishes_at_husimi_point():
    val, err = negativity_volume(SHOWCASE_STATE, -1.0)
    assert val <= 1e-4 + err


# ---------------------------------------------------------------------------
# ordering supremum and threshold search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.2, 0.5, 1.0])
def test_ordering_sup_squeezed_vacuum(r):
    state = SuperpositionState((Branch(1.0, 0.0, SqueezeParam(r)),))
    assert integrable_ordering_sup(state) == pytest.approx(math.exp(-2 * r) - 1e-6, abs=1e-12)


def test_ordering_sup_coherent_is_one():
    assert integrable_ordering_sup(coherent_superposition(1.0)) == pytest.approx(1.0 - 1e-6)


def test_ordering_sup_kerr_state_set_by_squeeze():
    # Kerr branches share the |r| of the seed, so the sup matches the seed's
    state = squeeze_then_kerr_state(2, 1.0, SqueezeParam(0.2))
    assert integrable_ordering_sup(state) == pytest.approx(math.exp(-0.4) - 1e-6, abs=1e-9)


@pytest.mark.parametrize(
    "state",
    [
        kerr_squeezed_vacuum(3, 1.0),
        kerr_squeezed_vacuum(5, 0.5),
        squeeze_then_kerr_state(3, 0.8 + 0.5j, SqueezeParam(0.5, 1.3)),
        kerr_coherent_state(4, 1.2),
    ],
)
def test_ordering_sup_builds_each_unordered_pair_once(state):
    """The sup over the K(K+1)/2 pairs q <= q' equals the minimum over all K^2
    ordered pairs, the reference kept here: (q, q') and (q', q) share Re A."""
    ref = min(
        float(np.linalg.eigvalsh(negativity.dyadic_char(ket, bra, 0.0).quad.real)[0])
        for ket in state.branches
        for bra in state.branches
    )
    with mock.patch.object(negativity, "dyadic_char", wraps=negativity.dyadic_char) as spy:
        t_sup = integrable_ordering_sup(state)
    k = len(state.branches)
    assert spy.call_count == k * (k + 1) // 2
    assert t_sup == ref - negativity.T_SUP_MARGIN


def test_find_threshold_gaussian_returns_sup():
    state = SuperpositionState((Branch(1.0, 0.0, SqueezeParam(0.2)),))
    assert find_threshold(state) == pytest.approx(math.exp(-0.4) - 1e-6, abs=1e-12)


def test_find_threshold_validation():
    with pytest.raises(ValueError):
        find_threshold(SHOWCASE_STATE, eps_neg=0.0)
    with pytest.raises(ValueError):
        find_threshold(SHOWCASE_STATE, tol_t=-1.0)


def test_find_threshold_negative_state_hits_husimi_end():
    # m = 2 Kerr coherent superposition stays negative for every t > -1,
    # so at a tight floor the search certifies the Husimi endpoint exactly
    state = kerr_coherent_state(2, 1.5)
    spec = replace(QuadratureSpec.for_state(state), tol=1e-5)
    assert find_threshold(state, eps_neg=1e-9, tol_t=5e-3, spec=spec, workers=2) == -1.0


def reference_threshold(state, eps_neg, tol_t):
    """The plain bisection: t_sup first, then midpoints of [-1, t_sup], each
    decided at spec.tol with one tight re-check when that is undecided."""
    spec = QuadratureSpec.for_state(state)
    focus = husimi_zero_candidates(state, window=spec.window)
    tight = replace(
        spec, tol=min(spec.tol, max(eps_neg / 4.0, 1e-12)), refine_depth=spec.refine_depth + 2
    )

    def below(t):
        try:
            val, err = negativity_volume(state, t, spec, focus=focus)
            if abs(val - eps_neg) <= 3.0 * err:
                val, err = negativity_volume(state, t, tight, focus=focus)
        except (OrderingTooHigh, TailBoundExceeded):
            return False
        return val <= eps_neg

    lo, hi = -1.0, integrable_ordering_sup(state)
    if below(hi):
        return hi
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_find_threshold_probes_the_husimi_end_first():
    # N(-1 + tol_t) is far above 1e-9, so the probe and its tight rung settle
    # the search; a bisection from t_sup makes about 12 volume calls
    state = kerr_coherent_state(2, 1.5)
    with mock.patch.object(
        negativity, "negativity_volume", wraps=negativity.negativity_volume
    ) as volume:
        assert find_threshold(state, eps_neg=1e-9) == -1.0
    assert volume.call_count <= 2


@pytest.mark.parametrize(
    "state, expected",
    [
        (squeeze_then_kerr_state(2, 1.0, SqueezeParam(0.2)), -0.91436),
        (kerr_coherent_state(2, 1.5), -0.90430),
    ],
)
def test_find_threshold_equals_the_plain_bisection(state, expected):
    t_bar = find_threshold(state, eps_neg=1e-3)
    assert t_bar == reference_threshold(state, 1e-3, negativity.TOL_T_DEFAULT)
    assert t_bar == pytest.approx(expected, abs=1e-5)


@pytest.mark.parametrize(
    "state", [squeeze_then_kerr_state(2, 1.0, SqueezeParam(0.2)), kerr_coherent_state(2, 1.5)]
)
def test_coarse_threshold_decisions_hold_at_the_spec_tolerance(state):
    eps_neg = 1e-3
    spec = QuadratureSpec.for_state(state)
    calls = []

    def record(state, t, rung, **kwargs):
        val, err = negativity_volume(state, t, rung, **kwargs)
        calls.append((t, rung, val, err, kwargs))
        return val, err

    with mock.patch.object(negativity, "negativity_volume", side_effect=record):
        find_threshold(state, eps_neg=eps_neg)
    coarse = [
        (t, val, kwargs)
        for t, rung, val, err, kwargs in calls
        if rung.tol > spec.tol and abs(val - eps_neg) > 3.0 * err
    ]
    assert coarse
    for t, val, kwargs in coarse:
        ref, _ = negativity_volume(state, t, spec, **kwargs)
        assert (ref <= eps_neg) == (val <= eps_neg), t


def test_find_threshold_climbs_the_ladder_until_a_rung_separates():
    # a stand-in quadrature that is off by 0.9 tol and reports err = tol: a
    # rung may answer only once 3 err separates its value from the floor,
    # else the coarse rungs' bias moves t_bar off the exact threshold -0.9
    state = kerr_coherent_state(2, 1.5)
    eps_neg, tol_t = 1e-3, 1e-3
    spec = QuadratureSpec.for_state(state)
    ladder = [1e-4, 1e-5, spec.tol, spec.tol]
    calls = {}

    def biased(t, tol):
        return 0.1 * (1 + t) ** 2 + 0.9 * tol

    def volume(s, t, rung, **kwargs):
        calls.setdefault(t, []).append(rung.tol)
        return biased(t, rung.tol), rung.tol

    with mock.patch.object(negativity, "negativity_volume", side_effect=volume):
        t_bar = find_threshold(state, eps_neg=eps_neg, tol_t=tol_t)
    assert abs(t_bar + 0.9) <= tol_t
    for t, tols in calls.items():
        assert tols == ladder[: len(tols)]
        assert all(abs(biased(t, tol) - eps_neg) <= 3.0 * tol for tol in tols[:-1])
        assert len(tols) == len(ladder) or abs(biased(t, tols[-1]) - eps_neg) > 3.0 * tols[-1]
    assert max(len(tols) for tols in calls.values()) >= 3


@pytest.mark.parametrize("tol_t, eps_neg", [(2.5, 0.5), (1e-3, 0.1), (1e-20, 1e-3)])
def test_find_threshold_decides_each_ordering_once(tol_t, eps_neg):
    # a stand-in N(t) = 0.1 (1 + t)^2 with err 0 decides on the first rung.
    # At tol_t = 2.5 the Husimi-end probe is t_sup itself, below 0.5; at
    # 0.1 the threshold is t = 0.  At 1e-3 it is t = -0.9, where a tol_t of
    # 1e-20 is below the float spacing: the search must end once the
    # midpoint rounds onto an end of the bracket
    state = kerr_coherent_state(2, 1.5)
    t_sup = integrable_ordering_sup(state)

    def stand_in(s, t, rung, **kwargs):
        return 0.1 * (1 + t) ** 2, 0.0

    with mock.patch.object(negativity, "negativity_volume", side_effect=stand_in) as volume:
        t_bar = find_threshold(state, eps_neg=eps_neg, tol_t=tol_t)
    orderings = [c.args[1] for c in volume.call_args_list]
    assert len(orderings) == len(set(orderings))
    if tol_t > 1.0:
        assert t_bar == t_sup and orderings == [t_sup]
    elif tol_t >= 1e-3:
        assert -tol_t <= t_bar <= 0.0 and len(orderings) > 3
    else:
        # t_bar and the next float up straddle the threshold
        above = np.nextafter(t_bar, 0.0)
        assert stand_in(state, t_bar, None)[0] <= eps_neg < stand_in(state, above, None)[0]
        assert abs(t_bar + 0.9) < 1e-15 and len(orderings) <= 60


# ---------------------------------------------------------------------------
# quadrature internals exposed through behaviour
# ---------------------------------------------------------------------------


def test_refinement_error_estimate_is_honest():
    spec = QuadratureSpec.for_state(SHOWCASE_STATE)
    coarse = replace(spec, base_resolution=128, refine_depth=2, tol=1e-3)
    fine = replace(spec, base_resolution=256, refine_depth=2, tol=1e-3)
    v1, e1 = negativity_volume(SHOWCASE_STATE, -0.5, coarse)
    v2, _ = negativity_volume(SHOWCASE_STATE, -0.5, fine)
    assert abs(v1 - v2) <= e1 + 1e-6


def test_holes_line_up_with_the_focus_boxes_at_every_level():
    # at each of three levels the global grid leaves out exactly the cells
    # whose midpoints lie in a focus box: the holed sum plus every box's own
    # sum on the same grid is the whole-grid sum.  On this small window the
    # pockets spill over the box edges, so a hole one cell off would show
    w = 3.0
    h0 = 2.0 * w / 64
    pqd = superposition_pqd(SHOWCASE_STATE, -0.5)
    boxes = negativity._focus_boxes(husimi_zero_candidates(SHOWCASE_STATE, window=w), w, 64)
    assert len(boxes) == 3
    grid_sum = negativity._negative_mass_grid
    with mock.patch.object(negativity, "_negative_mass_grid", wraps=grid_sum) as spy:
        negativity._refine(pqd, (-w, w, -w, w), 64, 256, 0.0, boxes, 1)
    assert [c.args[1].size for c in spy.call_args_list] == [64, 128, 256]
    for call in spy.call_args_list:
        _, x1, x2, holes, _ = call.args
        inside = []
        for i0, i1, j0, j1 in boxes:
            rows = (x1 > -w + i0 * h0) & (x1 < -w + i1 * h0)
            cols = (x2 > -w + j0 * h0) & (x2 < -w + j1 * h0)
            inside.append(grid_sum(pqd, x1[rows], x2[cols]))
        holed = grid_sum(pqd, x1, x2, holes)
        assert holed > 0.0 and min(inside) > 0.0
        assert math.isclose(holed + math.fsum(inside), grid_sum(pqd, x1, x2), rel_tol=1e-12)


def test_implicit_husimi_scan_is_the_spec_window_scan():
    # without focus, the zeros are scanned on spec.window, as every caller
    # that shares a scan does, so focus cannot change the answer
    state = kerr_squeezed_vacuum(3, 1.0)
    spec = QuadratureSpec.for_state(state)
    focus = husimi_zero_candidates(state, window=spec.window)
    assert negativity_volume(state, -0.9, spec) == negativity_volume(state, -0.9, spec, focus=focus)


def test_pocket_window_computes_each_tail_once():
    pqd = superposition_pqd(SHOWCASE_STATE, -0.5)
    spec = QuadratureSpec.for_state(SHOWCASE_STATE)
    tail_terms = negativity._tail_terms(pqd)
    with mock.patch.object(negativity, "_tail_outside", wraps=negativity._tail_outside) as spy:
        window, tail = negativity._pocket_window(tail_terms, spec)
    windows = [c.args[1] for c in spy.call_args_list]
    assert windows[0] == spec.window and len(windows) == len(set(windows)) == 31
    assert window < spec.window and tail == 2.0 * negativity._tail_outside(tail_terms, window)
    assert tail <= 0.1 * spec.tol


def test_tiny_window_trips_tail_bound():
    spec = QuadratureSpec(window=1.0, base_resolution=64, refine_depth=0, tol=1e-9)
    with pytest.raises(TailBoundExceeded):
        negativity_volume(SHOWCASE_STATE, 0.0, spec)


def test_out_of_range_ordering_raises():
    state = SuperpositionState((Branch(1.0, 0.0, SqueezeParam(0.5)),))
    with pytest.raises(NotIntegrable):
        negativity_volume(state, 0.9)


def test_husimi_zero_candidates_sit_on_zeros():
    zeros = husimi_zero_candidates(SHOWCASE_STATE)
    assert zeros
    q = superposition_pqd(SHOWCASE_STATE, -1.0)
    peak = float(q(0.0 + 0.0j).real) + 1.0 / math.pi
    for z in zeros:
        assert q(z).real < 1e-3 * peak


def polished_one_by_one(state):
    """Reference Husimi-zero scan: each local minimum polished in its own loop."""
    window = QuadratureSpec.for_state(state).window
    pqd = superposition_pqd(state, -1.0)
    axis = np.linspace(-window, window, negativity._SCAN_RESOLUTION)
    q = pqd.evaluate_grid(axis, axis)
    interior = q[1:-1, 1:-1]
    is_min = interior < negativity._SCAN_REL_CUT * float(q.max())
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_min &= interior <= q[1 + di : q.shape[0] - 1 + di, 1 + dj : q.shape[1] - 1 + dj]
    found = []
    for i, j in zip(*np.nonzero(is_min)):
        z = complex(axis[i + 1], axis[j + 1])
        h = axis[1] - axis[0]
        while h > 1e-7:
            offs = np.linspace(-h, h, 5)
            pts = ((z.real + offs)[:, None] + 1j * (z.imag + offs)[None, :]).ravel()
            vals = np.asarray(pqd(pts))
            k = int(np.argmin(vals))
            z, val = complex(pts[k]), float(vals[k])
            h *= 0.5
        found.append((val, z))
    kept = []
    for val, z in sorted(found, key=lambda p: p[0]):
        if all(abs(z - w) > 0.05 for w in kept):
            kept.append(z)
    return tuple(kept[: negativity._SCAN_CAP]), len(found)


@pytest.mark.parametrize(
    "state",
    [
        SHOWCASE_STATE,  # the benchmark's curve state
        squeeze_then_kerr_state(2, 1.0, SqueezeParam(0.2)),  # its m=2 threshold state
        kerr_squeezed_vacuum(5, 1.0),
        kerr_squeezed_vacuum(3, 1.0),
        kerr_coherent_state(2, 1.5),
        kerr_squeezed_vacuum(3, 0.5),
    ],
)
def test_husimi_candidates_are_polished_together(state):
    """All candidates share one kernel call per stencil halving, and the
    zeros are the ones polished candidate by candidate."""
    ref, n_candidates = polished_one_by_one(state)
    window = QuadratureSpec.for_state(state).window
    halvings = 0
    axis = np.linspace(-window, window, negativity._SCAN_RESOLUTION)
    h = axis[1] - axis[0]
    while h > 1e-7:
        halvings += 1
        h *= 0.5
    calls = []
    call = PqdFunction.__call__

    def counted(self, beta, envelope=None):
        calls.append(np.size(beta))
        return call(self, beta, envelope)

    with mock.patch.object(PqdFunction, "__call__", counted):
        zeros = husimi_zero_candidates(state)
    assert zeros == ref
    assert n_candidates > 0 and calls == [25 * n_candidates] * halvings


def test_husimi_zero_candidates_empty_for_gaussian():
    assert husimi_zero_candidates(coherent_superposition(0.7)) == ()


def test_curve_matches_pointwise_volumes():
    spec = replace(QuadratureSpec.for_state(SHOWCASE_STATE), tol=1e-4)
    curve = negativity_curve(SHOWCASE_STATE, -0.8, -0.4, 3, spec, workers=2)
    for t, n, e in curve:
        ref, ref_err = negativity_volume(SHOWCASE_STATE, t, spec, workers=2)
        assert abs(n - ref) <= 2.0 * (e + ref_err) + 1e-9
