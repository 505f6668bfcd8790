"""Input states for Kerr-cat sampling: squeezed coherent superpositions.

A Kerr unitary at rational strength chi = pi/m acts on a coherent (or
squeezed-vacuum) state as a finite superposition of rotated copies, so every
state handled here is a list of branches ``coeff * S(xi)|alpha>``.  This
module owns the branch bookkeeping: Kerr decomposition coefficients, the
squeeze-composition group law (with its metaplectic phase), pairwise branch
overlaps, and the text format the command line uses to name states.

Conventions
-----------
S(xi) = exp[(xi a^dag^2 - conj(xi) a^2)/2] with xi = r e^{i phi}, so the
x-quadrature of S(r)|0> is anti-squeezed for r > 0.  zeta = tanh(r) e^{i phi}
throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SqueezeParam",
    "KerrOrder",
    "Branch",
    "SuperpositionState",
    "kerr_coefficients",
    "kerr_coherent_state",
    "squeeze_then_kerr_state",
    "kerr_squeezed_vacuum",
    "compose_squeezing",
    "compose_squeezing_chain",
    "su11_matrix",
    "branch_overlap",
    "state_norm",
    "state_extents",
    "StateDescription",
    "parse_state_description",
]

TWO_PI = 2.0 * math.pi

# Branches closer than this (in both alpha and xi) are the same branch.
MERGE_TOL = 1e-12
# Coefficients below this are identically-zero Kerr weights, not data.
PRUNE_TOL = 1e-14
NORM_TOL = 1e-10


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqueezeParam:
    """Single-mode squeeze xi = r e^{i phi}; phi stored in [0, 2pi)."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"squeeze magnitude must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"squeeze phase must be finite, got {self.phi}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "r", float(self.r))

    @property
    def mu(self) -> float:
        return math.cosh(self.r)

    @property
    def nu(self) -> float:
        return math.sinh(self.r)

    @property
    def xi(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)

    @property
    def zeta(self) -> complex:
        """tanh(r) e^{i phi}, the disentangled (normal-ordered) parameter."""
        return math.tanh(self.r) * cmath.exp(1j * self.phi)

    def negated(self) -> "SqueezeParam":
        """Parameter of the inverse: S(xi)^dag = S(-xi)."""
        if self.r == 0.0:
            return self
        return SqueezeParam(self.r, self.phi + math.pi)


NO_SQUEEZE = SqueezeParam(0.0)


@dataclass(frozen=True)
class KerrOrder:
    """Kerr strength chi = pi/m for integer m >= 1."""

    m: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"Kerr order must be an integer >= 1, got {self.m!r}")

    @property
    def chi(self) -> float:
        return math.pi / self.m


@dataclass(frozen=True)
class Branch:
    """One term coeff * S(squeeze)|alpha> of a superposition."""

    coeff: complex
    alpha: complex
    squeeze: SqueezeParam = NO_SQUEEZE

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not (math.isfinite(self.coeff.real) and math.isfinite(self.coeff.imag)):
            raise ValueError("branch coefficient must be finite")
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError("branch displacement must be finite")


@dataclass(frozen=True)
class SuperpositionState:
    """Normalized pure state sum_q coeff_q S(xi_q)|alpha_q>.

    Construction merges branches whose (alpha, xi) coincide within 1e-12,
    drops coefficients below 1e-14 (Kerr weights can vanish identically,
    e.g. m = 4 on squeezed vacuum), and rejects states whose branch-overlap
    Gram sum is not 1 within 1e-10.
    """

    branches: tuple = field()

    def __post_init__(self):
        merged = _merge_branches(self.branches)
        if not merged:
            raise ValueError("state has no branches after merging/pruning")
        object.__setattr__(self, "branches", tuple(merged))
        norm = state_norm(self)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")

    def __len__(self) -> int:
        return len(self.branches)


def _merge_branches(branches: Iterable[Branch]) -> list:
    kept: list = []
    for b in branches:
        if not isinstance(b, Branch):
            b = Branch(*b)
        for i, other in enumerate(kept):
            if (
                abs(b.alpha - other.alpha) <= MERGE_TOL
                and abs(b.squeeze.xi - other.squeeze.xi) <= MERGE_TOL
            ):
                kept[i] = Branch(other.coeff + b.coeff, other.alpha, other.squeeze)
                break
        else:
            kept.append(b)
    return [b for b in kept if abs(b.coeff) >= PRUNE_TOL]


# ---------------------------------------------------------------------------
# Kerr decomposition at chi = pi/m
# ---------------------------------------------------------------------------


def _order(m) -> int:
    return (m if isinstance(m, KerrOrder) else KerrOrder(m)).m


def kerr_coefficients(m) -> list:
    """Weights f_q of exp(-i pi n(n-1)/m) = sum_q f_q exp(i theta_q n).

    The Kerr phase n(n-1) is periodic in n modulo m (odd m) or modulo 2m
    with a half-period offset (even m), so the unitary is a finite sum of
    number-space rotations.  Returns the m weights; the matching rotation
    angles are -2*pi*q/m, shifted by +pi/m when m is even.
    """
    m = _order(m)
    out = []
    for q in range(m):
        acc = 0.0 + 0.0j
        for k in range(m):
            if m % 2:
                phase = TWO_PI * q * k / m - math.pi * k * (k - 1) / m
            else:
                phase = TWO_PI * q * k / m - math.pi * k * k / m
            acc += cmath.exp(1j * phase)
        out.append(acc / m)
    return out


def _kerr_branches(m, branch) -> SuperpositionState:
    """U(pi/m) applied branch by branch: branch(f, theta) for every Kerr
    weight f and its rotation angle theta, -2 pi q/m (+pi/m for even m)."""
    m = _order(m)
    shift = math.pi / m if m % 2 == 0 else 0.0
    return SuperpositionState(
        tuple(branch(f, -TWO_PI * q / m + shift) for q, f in enumerate(kerr_coefficients(m)))
    )


def kerr_coherent_state(m, alpha: complex) -> SuperpositionState:
    """U(pi/m)|alpha> as m coherent branches on the circle |alpha|."""
    return _kerr_branches(m, lambda f, th: Branch(f, alpha * cmath.exp(1j * th)))


def squeeze_then_kerr_state(m, alpha: complex, squeeze: SqueezeParam) -> SuperpositionState:
    """S(xi) U(pi/m)|alpha>: the Kerr-cat branches under a common squeeze."""
    return _kerr_branches(m, lambda f, th: Branch(f, alpha * cmath.exp(1j * th), squeeze))


def kerr_squeezed_vacuum(m, r: float) -> SuperpositionState:
    """U(pi/m) S(r)|0>: squeezed vacua whose phases are twice the rotations.

    A rotation conjugates the squeeze phase, R(theta) S(r e^{i phi}) R(-theta)
    = S(r e^{i(phi + 2 theta)}), and leaves |0> alone, hence the factor 2.
    For m = 4 two of the four weights cancel pairwise and the state collapses
    to a single squeezed vacuum.
    """
    return _kerr_branches(m, lambda f, th: Branch(f, 0.0, SqueezeParam(r, 2.0 * th)))


# ---------------------------------------------------------------------------
# squeeze composition (SU(1,1) group law)
# ---------------------------------------------------------------------------


def compose_squeezing(xi1: SqueezeParam, xi2: SqueezeParam):
    """Combine two squeezes: S(xi1) S(xi2) = S(xi3) exp[i Phi (n + 1/2)/2].

    Returns ``(xi3, Phi)`` with zeta3 = (zeta1 + zeta2)/(1 + conj(zeta1)
    zeta2) and Phi = 2 arg(1 + zeta1 conj(zeta2)).  Since |zeta| < 1 for any
    finite r, the denominator has positive real part and Phi is already the
    principal value in (-pi, pi].
    """
    z1 = xi1.zeta
    z2 = xi2.zeta
    w = 1.0 + z1 * z2.conjugate()
    phi_total = 2.0 * math.atan2(w.imag, w.real)
    z3 = (z1 + z2) / w.conjugate()
    mag = abs(z3)
    if mag >= 1.0:  # cannot happen for finite inputs; guard atanh domain
        raise ValueError("composed squeeze parameter left the unit disc")
    return SqueezeParam(math.atanh(mag), cmath.phase(z3)), phi_total


def compose_squeezing_chain(params: Sequence[SqueezeParam]):
    """Fold a product S(xi_1)...S(xi_n) into S(xi) exp[i Phi (n + 1/2)/2].

    The pairwise rule alone is not associative; the accumulated phase must
    twist the next factor, exp[i Phi K] S(xi) = S(xi e^{i Phi}) exp[i Phi K]
    for K = (n + 1/2)/2, before composing.  Phi is returned unwrapped.
    """
    params = list(params)
    if not params:
        return NO_SQUEEZE, 0.0
    acc = params[0]
    phase = 0.0
    for nxt in params[1:]:
        twisted = SqueezeParam(nxt.r, nxt.phi + phase)
        acc, dphi = compose_squeezing(acc, twisted)
        phase += dphi
    return acc, phase


def su11_matrix(xi: SqueezeParam):
    """2x2 Bogoliubov matrix of S(xi): [[mu, e^{i phi} nu], [e^{-i phi} nu, mu]]."""
    mu = xi.mu
    nu = xi.nu
    ph = cmath.exp(1j * xi.phi)
    return np.array([[mu, ph * nu], [nu / ph, mu]], dtype=complex)


# ---------------------------------------------------------------------------
# branch overlaps and norms
# ---------------------------------------------------------------------------


def _squeezed_coherent_overlap(gamma: complex, xi: SqueezeParam, delta: complex) -> complex:
    # <gamma|S(xi)|delta> from the normal-ordered form
    # S = exp[(zeta/2) a^dag^2] mu^{-(n+1/2)} exp[-(conj(zeta)/2) a^2].
    z = xi.zeta
    mu = xi.mu
    g = gamma.conjugate()
    expo = (
        0.5 * z * g * g
        - 0.5 * z.conjugate() * delta * delta
        - 0.5 * (abs(gamma) ** 2 + abs(delta) ** 2)
        + g * delta / mu
    )
    return cmath.exp(expo) / math.sqrt(mu)


def branch_overlap(bra: Branch, ket: Branch) -> complex:
    """<S(xi_b) alpha_b | S(xi_k) alpha_k>, ignoring both coefficients.

    S(xi_b)^dag S(xi_k) folds to S(xi~) exp[i Phi (n+1/2)/2]; the rotation
    part turns |alpha_k> into |alpha_k e^{i Phi/2}> and leaves a scalar
    e^{i Phi/4}.
    """
    xi_t, phi_t = compose_squeezing(bra.squeeze.negated(), ket.squeeze)
    half = cmath.exp(0.5j * phi_t)
    delta = ket.alpha * half
    return cmath.exp(0.25j * phi_t) * _squeezed_coherent_overlap(bra.alpha, xi_t, delta)


def state_norm(state: SuperpositionState) -> float:
    """sqrt of the branch-overlap Gram sum sum_{b,k} conj(c_b) c_k <b|k>."""
    acc = 0.0 + 0.0j
    for b in state.branches:
        for k in state.branches:
            acc += b.coeff.conjugate() * k.coeff * branch_overlap(b, k)
    val = acc.real
    return math.sqrt(val) if val > 0.0 else 0.0


def state_extents(state: SuperpositionState):
    """(max |alpha|, max r) over branches; crude size scales for windows."""
    amax = max(abs(b.alpha) for b in state.branches)
    rmax = max(b.squeeze.r for b in state.branches)
    return amax, rmax


# ---------------------------------------------------------------------------
# textual state descriptions (command-line input format)
# ---------------------------------------------------------------------------

_KIND_KEYS = {
    "coherent": {"alpha_re", "alpha_im"},
    "squeezed_vacuum": {"r", "phi"},
    "squeeze_kerr_coherent": {"m", "alpha_re", "alpha_im", "r", "phi"},
    "kerr_squeezed_vacuum": {"m", "r"},
}
_KERR_KINDS = ("squeeze_kerr_coherent", "kerr_squeezed_vacuum")


@dataclass(frozen=True)
class StateDescription:
    """Parsed `key=value` state record; ``to_state()`` builds the branches."""

    kind: str
    m: int = 1
    alpha: complex = 0.0 + 0.0j
    r: float = 0.0
    phi: float = 0.0

    def to_state(self) -> SuperpositionState:
        if self.kind == "coherent":
            return SuperpositionState((Branch(1.0, self.alpha),))
        if self.kind == "squeezed_vacuum":
            return SuperpositionState((Branch(1.0, 0.0, SqueezeParam(self.r, self.phi)),))
        if self.kind == "squeeze_kerr_coherent":
            return squeeze_then_kerr_state(
                KerrOrder(self.m), self.alpha, SqueezeParam(self.r, self.phi)
            )
        if self.kind == "kerr_squeezed_vacuum":
            return kerr_squeezed_vacuum(KerrOrder(self.m), self.r)
        raise ValueError(f"unknown state kind {self.kind!r}")


def parse_state_description(text: str) -> StateDescription:
    """Parse `kind=... key=value ...` (whitespace- or newline-separated).

    Kinds: ``coherent`` (alpha_re, alpha_im), ``squeezed_vacuum`` (r, phi),
    ``squeeze_kerr_coherent`` (m, alpha_re, alpha_im, r, phi), and
    ``kerr_squeezed_vacuum`` (m, r).  Keys outside the kind's set, repeated
    keys, and malformed numbers are rejected.
    """
    pairs = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"expected key=value, got {token!r}")
        if key in pairs:
            raise ValueError(f"repeated key {key!r} in state description")
        pairs[key] = value

    kind = pairs.pop("kind", None)
    if kind is None:
        raise ValueError("state description needs a kind= entry")
    if kind not in _KIND_KEYS:
        raise ValueError(
            f"unknown state kind {kind!r}; expected one of {sorted(_KIND_KEYS)}"
        )
    extra = set(pairs) - _KIND_KEYS[kind]
    if extra:
        raise ValueError(f"keys {sorted(extra)} not valid for kind={kind}")
    if kind in _KERR_KINDS and "m" not in pairs:
        raise ValueError(f"kind={kind} requires m=<int>")

    def _float(key: str) -> float:
        raw = pairs.get(key, "0")
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"{key}={raw!r} is not a number") from None

    m = 1
    if "m" in pairs:
        raw = pairs["m"]
        try:
            m = int(raw)
        except ValueError:
            raise ValueError(f"m={raw!r} is not an integer") from None

    return StateDescription(
        kind=kind,
        m=m,
        alpha=complex(_float("alpha_re"), _float("alpha_im")),
        r=_float("r"),
        phi=_float("phi"),
    )
