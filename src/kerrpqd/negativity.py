"""Negativity volume N(t) of a PQD and the ordering threshold search.

For a unit-norm state, Int W d^2beta = 1 exactly (the analytic term
integrals telescope to the squared norm), so

    N(t) = Int |W| - 1 = 2 Int max(-W, 0).

The right-hand side is the quantity integrated here: it vanishes
identically outside the negativity pockets, so the quadrature error is
controlled by the pocket rims alone and the smooth positive bulk costs
nothing.  One loop of midpoint sums on dyadic refinements (_refine) serves
every region; its error estimate is the difference of its last two levels,
and the plane outside the window is charged with an analytic Gaussian tail
bound per term.

Near t = -1 the pockets shrink onto the zeros of the Husimi function and
fall below any fixed grid.  Those zeros are located on spec.window, whoever
calls, and the scan can be shared across orderings; square boxes around
them are left out of the global grid and run through the same loop on much
finer local grids, which is what makes threshold searches at tight
negativity floors feasible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotIntegrable, OrderingTooHigh, TailBoundExceeded
from .phase_space import PqdFunction, dyadic_char, superposition_pqd
from .states import SuperpositionState, state_extents

__all__ = [
    "QuadratureSpec",
    "NegativityCurve",
    "negativity_volume",
    "negativity_curve",
    "find_threshold",
    "husimi_zero_candidates",
    "integrable_ordering_sup",
]

# Margin kept below the exact integrability boundary when bisecting t.
T_SUP_MARGIN = 1e-6
# Default negativity floor and t resolution for threshold searches.
EPS_NEG_DEFAULT = 1e-4
TOL_T_DEFAULT = 1e-3

_PATCH_CELLS = 4  # patch half-extent, in coarse-grid cells
_PATCH_MIN_H = 1.5e-4  # finest local step; resolves any pocket above ~1e-10 mass
_PATCH_FLOOR = 1e-11  # error floor charged per patch that resolves nothing
# Husimi-zero scan: grid points per axis, the cut below the grid maximum
# that a local minimum must pass, and the most zeros kept.
_SCAN_RESOLUTION = 384
_SCAN_REL_CUT = 0.05
_SCAN_CAP = 32
# Grid points per evaluate_grid call: large enough to amortize the per-call
# Python work, and a unit that workers can share; the kernel itself works
# in cache-sized chunks of 2^12 points.
_BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the window, grid sizes, and target accuracy."""

    window: float = 8.0
    base_resolution: int = 256
    refine_depth: int = 4
    tol: float = 1e-6

    def __post_init__(self):
        if not self.window > 0:
            raise ValueError("window half-width must be positive")
        if self.base_resolution < 64:
            raise ValueError("base resolution must be at least 64 points per axis")
        if self.refine_depth < 0:
            raise ValueError("refinement depth must be >= 0")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")

    @classmethod
    def for_state(cls, state: SuperpositionState, **overrides) -> "QuadratureSpec":
        """Window covering every branch center plus 4 sigma of the widest branch."""
        amax, rmax = state_extents(state)
        spread = math.exp(rmax)
        window = 4.0 * (amax * spread + spread)
        return cls(**{"window": max(window, 6.0), **overrides})


@dataclass(frozen=True)
class NegativityCurve:
    """(t, N, err) samples; strictly increasing t, N non-decreasing within 2 err."""

    points: tuple

    def __post_init__(self):
        pts = tuple((float(t), float(n), float(e)) for t, n, e in self.points)
        object.__setattr__(self, "points", pts)
        for (t0, n0, e0), (t1, n1, e1) in zip(pts, pts[1:]):
            if not t1 > t0:
                raise ValueError("curve orderings must be strictly increasing")
            if n0 > n1 + 2.0 * max(e0, e1):
                raise ValueError(
                    f"negativity decreased beyond twice the error between t={t0} and t={t1}"
                )
        for t, n, e in pts:
            if n < -e:
                raise ValueError(f"negative volume below -err at t={t}")

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


# ---------------------------------------------------------------------------
# tail bound
# ---------------------------------------------------------------------------


def _tail_terms(pqd: PqdFunction):
    """(peak, center, lambda_min) of the pair terms, the inputs of _tail_outside.

    Only the pair terms can push W below zero: the diagonal terms are
    positive Gaussians, so max(-W, 0) <= sum of |f_k| over the pair terms
    pointwise, and their envelopes bound the negative mass anywhere.
    """
    peak, center, prec = pqd.envelopes()
    keep = pqd.pair
    lam = np.linalg.eigvalsh(prec[keep])[:, 0]
    if np.any(lam <= 0.0):
        raise NotIntegrable("PQD term does not decay; tail bound undefined")
    return peak[keep], center[keep], lam


def _tail_outside(tail_terms, window: float) -> float:
    """Upper bound on Int_{outside square} sum |f_k|, term by term.

    Each term obeys |f(y)| <= peak * e^{-(y-c)^T S (y-c)/2} (a pair's peak
    covers both conjugates); every point outside the square lies at
    distance >= d from the center (d the sup-norm gap to the nearest edge,
    0 if the center is outside), so the term mass is at most
    peak * (2 pi / lambda_min) e^{-lambda_min d^2 / 2}.  `tail_terms` is
    the output of _tail_terms.
    """
    peak, center, lam = tail_terms
    d = np.maximum(np.minimum(window - np.abs(center[:, 0]), window - np.abs(center[:, 1])), 0.0)
    return float(np.sum(peak * (2.0 * math.pi / lam) * np.exp(-0.5 * lam * d * d)))


def _pocket_window(tail_terms, spec: QuadratureSpec):
    """(window, tail): the smallest window that still bounds the outside
    negative mass, and the charge 2 Int_outside sum |f_k| for it.

    The integrand vanishes wherever the pair terms are negligible, so the
    grid can shrink well below the full support window; the excluded
    region is charged to the tail at a tenth of the overall budget.  Each
    window's tail is computed once.  Raises TailBoundExceeded if the tail
    outside spec.window alone exceeds spec.tol (window too small for this
    state).
    """
    tail = 2.0 * _tail_outside(tail_terms, spec.window)
    if tail > spec.tol:
        raise TailBoundExceeded(
            f"exterior bound {tail:.3e} exceeds tolerance {spec.tol:.3e}; widen the window"
        )
    target = 0.1 * spec.tol
    if tail > target:
        return spec.window, tail
    lo, hi = 1.0, spec.window
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        mid_tail = 2.0 * _tail_outside(tail_terms, mid)
        if mid_tail <= target:
            hi, tail = mid, mid_tail
        else:
            lo = mid
    return hi, tail


def _oscillation_scale(pqd: PqdFunction, window: float) -> float:
    """Largest phase gradient of any term inside the window (rad per unit)."""
    k = np.linalg.norm(pqd.lin.imag, axis=1)
    k += window * np.linalg.norm(pqd.quad.imag, 2, axis=(1, 2))
    return float(k.max())


# ---------------------------------------------------------------------------
# masked global + patch quadrature
# ---------------------------------------------------------------------------


def _merge_boxes(boxes: list) -> list:
    """Union overlapping index rectangles into their bounding rectangles."""
    out = list(boxes)
    merged = True
    while merged:
        merged = False
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                a, b = out[i], out[j]
                if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]:
                    out[i] = (
                        min(a[0], b[0]),
                        max(a[1], b[1]),
                        min(a[2], b[2]),
                        max(a[3], b[3]),
                    )
                    del out[j]
                    merged = True
                    break
            if merged:
                break
    return out


def _focus_boxes(focus, window: float, n0: int) -> list:
    """Index rectangles (i0, i1, j0, j1) on the coarse grid, one per focus point.

    Boxes are snapped to coarse cell edges so that every dyadic refinement
    of the global grid keeps them aligned; (i1, j1) are exclusive.
    """
    h0 = 2.0 * window / n0
    boxes = []
    for z in focus:
        ci = (z.real + window) / h0
        cj = (z.imag + window) / h0
        i0 = max(int(math.floor(ci)) - _PATCH_CELLS, 0)
        i1 = min(int(math.ceil(ci)) + _PATCH_CELLS, n0)
        j0 = max(int(math.floor(cj)) - _PATCH_CELLS, 0)
        j1 = min(int(math.ceil(cj)) + _PATCH_CELLS, n0)
        if i1 > i0 and j1 > j0:
            boxes.append((i0, i1, j0, j1))
    return _merge_boxes(boxes)


def _midpoint_axis(lo: float, hi: float, n: int) -> np.ndarray:
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h


def _negative_mass_grid(pqd: PqdFunction, x1, x2, holes=(), workers: int = 1) -> float:
    """Sum of max(-W, 0) over the tensor grid, with the cells of `holes` left out.

    `holes` are index rectangles (i0, i1, j0, j1), ends exclusive.  Rows are
    evaluated in blocks of about _BLOCK_POINTS points and the hole cells of
    each block are zeroed; each row is summed on its own and the row sums
    exactly (fsum), so the result does not depend on the blocking or on the
    worker count.
    """
    n1 = x1.size
    block = max(1, _BLOCK_POINTS // max(x2.size, 1))

    def one(lo: int, hi: int) -> np.ndarray:
        w = pqd.evaluate_grid(x1[lo:hi], x2)
        np.negative(w, out=w)
        np.maximum(w, 0.0, out=w)
        for i0, i1, j0, j1 in holes:
            w[max(i0 - lo, 0) : max(i1 - lo, 0), j0:j1] = 0.0
        return w.sum(axis=1)

    ranges = [(lo, min(lo + block, n1)) for lo in range(0, n1, block)]
    if workers > 1 and len(ranges) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(lambda r: one(*r), ranges))
    else:
        sums = [one(*r) for r in ranges]
    return math.fsum(np.concatenate(sums))


def _refine(pqd, rect, n: int, n_max: int, tol: float, holes, workers: int):
    """(value, err) of Int max(-W, 0) over rect = (x_lo, x_hi, y_lo, y_hi).

    Midpoint sums run on n, 2n, 4n, ... points per axis; err is |cur - prev|
    of the last two levels, or the whole value if only one level ran.
    Refinement stops once err <= tol, once two levels in a row are zero, or
    after the first level with n >= n_max points.  `holes` are index
    rectangles on the n-point start grid whose cells are left out; they are
    scaled with each level, so their edges stay on cell edges.
    """
    x_lo, x_hi, y_lo, y_hi = rect
    prev = None
    while True:
        x1 = _midpoint_axis(x_lo, x_hi, n)
        x2 = _midpoint_axis(y_lo, y_hi, n)
        cell = ((x_hi - x_lo) / n) * ((y_hi - y_lo) / n)
        cur = _negative_mass_grid(pqd, x1, x2, holes, workers) * cell
        if prev is None:
            err = abs(cur)
        else:
            err = abs(cur - prev)
            if err <= tol or (cur == 0.0 and prev == 0.0):
                break
        if n >= n_max:
            break
        prev = cur
        n *= 2
        holes = [tuple(2 * k for k in box) for box in holes]
    return cur, err


def negativity_volume(
    state: SuperpositionState,
    t: float,
    spec: QuadratureSpec | None = None,
    *,
    focus=None,
    workers: int = 1,
):
    """(N, err) with N = 2 Int max(-W^{(t)}, 0).

    The grid covers only the pocket window -- the smallest square outside
    which the pair terms, and hence any negative mass, are bounded below a
    tenth of the tolerance; states without pair terms (all positive
    Gaussians) return (0, 0) immediately.

    The Husimi zeros that receive fine local patches are always those that
    husimi_zero_candidates finds on spec.window.  `focus` only shares that
    scan: pass husimi_zero_candidates(state, window=spec.window) when
    sweeping many orderings of one state, and the answer is the same as
    without it.

    Every region goes through _refine: the global grid, with the focus
    boxes left out, at tol/2 up to base_resolution << refine_depth points
    per axis, and each box on its own finer grid at an even share of the
    other tol/2.  err sums each region's last-level difference (at least
    _PATCH_FLOOR per box) and the tail bound: an estimate, not a bound.

    Raises NotIntegrable if any branch pair fails at this t, and
    TailBoundExceeded if the analytic exterior bound alone exceeds the
    requested tolerance (window too small for this state).
    """
    spec = spec if spec is not None else QuadratureSpec.for_state(state)
    pqd = superposition_pqd(state, t)
    if not pqd.pair.any():
        return 0.0, 0.0
    window, tail = _pocket_window(_tail_terms(pqd), spec)

    if focus is None:
        focus = husimi_zero_candidates(state, window=spec.window)
    boxes = _focus_boxes(focus, window, spec.base_resolution)

    # start fine enough to sample every term's oscillation
    k_osc = _oscillation_scale(pqd, window)
    level = 0
    while (
        2.0 * window / (spec.base_resolution * (1 << level)) > math.pi / (2.0 * k_osc + 1e-12)
        and level < spec.refine_depth
    ):
        level += 1

    holes = [tuple(k << level for k in box) for box in boxes]
    square = (-window, window, -window, window)
    n_max = spec.base_resolution << spec.refine_depth
    mass_global, err_global = _refine(
        pqd, square, spec.base_resolution << level, n_max, 0.5 * spec.tol, holes, workers
    )

    # each box on its own grid, from 8x its coarse cells to a step of
    # _PATCH_MIN_H or 4096 points per axis
    patch_mass = 0.0
    patch_err = 0.0
    h0 = 2.0 * window / spec.base_resolution
    for i0, i1, j0, j1 in boxes:
        rect = tuple(-window + k * h0 for k in (i0, i1, j0, j1))
        side = max(rect[1] - rect[0], rect[3] - rect[2])
        n = n_max = 8 * max(i1 - i0, j1 - j0)
        while side / n_max > _PATCH_MIN_H and n_max < 4096:
            n_max *= 2
        mass, perr = _refine(pqd, rect, n, n_max, 0.5 * spec.tol / len(boxes), (), workers)
        patch_mass += mass
        patch_err += max(perr, _PATCH_FLOOR)

    value = 2.0 * (mass_global + patch_mass)
    err = 2.0 * (err_global + patch_err) + tail
    return value, err


def negativity_curve(
    state: SuperpositionState,
    t_min: float,
    t_max: float,
    n_points: int,
    spec: QuadratureSpec | None = None,
    *,
    workers: int = 1,
) -> NegativityCurve:
    """Sample N(t) on an even grid of orderings, sharing one focus-point scan."""
    if not t_min < t_max:
        raise ValueError("need t_min < t_max")
    if n_points < 2:
        raise ValueError("need at least two curve points")
    spec = spec if spec is not None else QuadratureSpec.for_state(state)
    focus = husimi_zero_candidates(state, window=spec.window)
    pts = []
    for t in np.linspace(t_min, t_max, n_points):
        val, err = negativity_volume(state, float(t), spec, focus=focus, workers=workers)
        pts.append((float(t), val, err))
    return NegativityCurve(tuple(pts))


# ---------------------------------------------------------------------------
# ordering threshold
# ---------------------------------------------------------------------------


def integrable_ordering_sup(state: SuperpositionState) -> float:
    """Exact supremum of integrable orderings, minus a 1e-6 safety margin.

    The ordering enters every branch-pair form as A(t) = A(0) - t I, so
    positive-definiteness of Re A(t) holds exactly for t below the smallest
    eigenvalue of Re A(0) over the pairs; no numerical search is needed.
    """
    t_sup = math.inf
    for ket in state.branches:
        for bra in state.branches:
            base = dyadic_char(ket, bra, 0.0)
            lam = float(np.linalg.eigvalsh(base.quad.real)[0])
            t_sup = min(t_sup, lam)
    return t_sup - T_SUP_MARGIN


def find_threshold(
    state: SuperpositionState,
    eps_neg: float = EPS_NEG_DEFAULT,
    tol_t: float = TOL_T_DEFAULT,
    spec: QuadratureSpec | None = None,
    *,
    workers: int = 1,
) -> float:
    """Largest ordering t with N(t) <= eps_neg, located to within tol_t.

    The search runs on [-1, t_sup].  The Husimi point t = -1 is
    non-negative for every state, so it certifies the lower end.
    Single-branch (Gaussian) states are positive wherever defined and
    return t_sup immediately.

    N(t) is non-decreasing in t: a lower ordering is a higher one smoothed
    by a positive Gaussian, and smoothing cannot create negativity.  So the
    search first asks whether t = -1 + tol_t (or t_sup, if nearer) is
    below the floor.  If it is not, no t >= -1 + tol_t is either, and the
    answer is -1.0, the Husimi end.  Otherwise t_sup is checked, and then
    [-1, t_sup] is bisected down to tol_t, or until the midpoint rounds
    onto an end of the bracket (a tol_t below the float spacing there).
    No ordering is decided twice.

    Each "is N(t) <= eps_neg?" is decided on a ladder of quadrature specs,
    cheapest first: spec at tolerances eps_neg/10, eps_neg/100, ... while
    they are coarser than spec.tol; spec itself; and a tight spec at
    min(spec.tol, eps_neg/4) with two more refinement levels.  The first
    rung whose estimate lies more than 3 err from eps_neg gives the answer;
    if none does, the tight rung's value does.  An ordering where the PQD
    cannot be evaluated or its tail bound fails counts as not below.
    """
    if not eps_neg > 0:
        raise ValueError("negativity floor must be positive")
    if not tol_t > 0:
        raise ValueError("ordering tolerance must be positive")
    spec = spec if spec is not None else QuadratureSpec.for_state(state)
    t_sup = integrable_ordering_sup(state)

    if len(state.branches) == 1:
        return t_sup

    focus = husimi_zero_candidates(state, window=spec.window)
    rungs = []
    k = 1
    # a coarse tolerance equal to spec.tol up to rounding is spec itself
    while (tol := eps_neg / 10**k) > spec.tol and not math.isclose(tol, spec.tol):
        rungs.append(replace(spec, tol=tol))
        k += 1
    tight = replace(
        spec,
        tol=min(spec.tol, max(eps_neg / 4.0, 1e-12)),
        refine_depth=spec.refine_depth + 2,
    )
    rungs += [spec, tight]

    @functools.cache  # no ordering is decided twice in one search
    def below(t: float) -> bool:
        try:
            for rung in rungs:
                val, err = negativity_volume(state, t, rung, focus=focus, workers=workers)
                if abs(val - eps_neg) > 3.0 * err:
                    break
        except (OrderingTooHigh, TailBoundExceeded):
            # this close to the integrability supremum the PQD cannot be
            # evaluated; treat it as not certified and keep bisecting lower
            return False
        return val <= eps_neg

    lo = -1.0
    hi = t_sup
    if hi <= lo:
        return lo
    if not below(min(lo + tol_t, hi)):
        return lo
    if below(hi):
        return hi
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # tol_t below the float spacing here
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Husimi zero search
# ---------------------------------------------------------------------------


def husimi_zero_candidates(state: SuperpositionState, window: float | None = None) -> tuple:
    """Approximate zeros of the Husimi function inside the window.

    These are the only points where negativity can survive as t -> -1, so
    they serve as focus points for the patch quadrature.  Works on a scan
    grid of the t = -1 PQD: local minima below _SCAN_REL_CUT times the grid
    maximum are polished together by shrinking 5x5 stencils, deduplicated,
    and capped at the _SCAN_CAP lowest values.  Single-branch states have none.
    """
    if len(state.branches) == 1:
        return ()
    if window is None:
        spec = QuadratureSpec.for_state(state)
        window = spec.window
    pqd = superposition_pqd(state, -1.0)
    axis = np.linspace(-window, window, _SCAN_RESOLUTION)
    q = pqd.evaluate_grid(axis, axis)
    qmax = float(q.max())
    if qmax <= 0.0:
        return ()

    interior = q[1:-1, 1:-1]
    is_min = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = q[1 + di : _SCAN_RESOLUTION - 1 + di, 1 + dj : _SCAN_RESOLUTION - 1 + dj]
            is_min &= interior <= neighbor
    is_min &= interior < _SCAN_REL_CUT * qmax
    ii, jj = np.nonzero(is_min)

    # shrink a 5x5 stencil around each running minimum, all candidates in
    # one call per halving (a point's value does not depend on its chunk)
    z = axis[ii + 1] + 1j * axis[jj + 1]
    val = interior[ii, jj]
    rows = np.arange(z.size)
    h = axis[1] - axis[0]
    while rows.size and h > 1e-7:
        offs = np.linspace(-h, h, 5)
        pts = (z.real[:, None] + offs)[:, :, None] + 1j * (z.imag[:, None] + offs)[:, None, :]
        pts = pts.reshape(-1, 25)
        vals = pqd(pts)
        k = np.argmin(vals, axis=1)
        z, val = pts[rows, k], vals[rows, k]
        h *= 0.5

    kept = []
    for _, c in sorted(zip(val.tolist(), z.tolist()), key=lambda p: p[0]):
        if all(abs(c - w) > 0.05 for w in kept):
            kept.append(c)
        if len(kept) >= _SCAN_CAP:
            break
    return tuple(kept)
