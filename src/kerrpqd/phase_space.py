"""Ordered characteristic functions and quasi-probability distributions.

Everything here is a complex Gaussian in real coordinates.  The t-ordered
characteristic function of a state is Phi(xi) = Tr[rho D(xi)] e^{t|xi|^2/2}
with x = (Re xi, Im xi); its PQD is the Fourier transform

    W(beta) = (1/pi^2) Int d^2xi  Phi(xi) e^{beta conj(xi) - conj(beta) xi},

and the plane-wave factor is e^{i k.x} with k = 2 R y, R = [[0, 1], [-1, 0]],
y = (Re beta, Im beta).  Both sides are ``prefactor * exp(-x^T A x / 2 +
L^T x)`` for a complex symmetric A, so the transform is one complete-the-
square step.  Superpositions of squeezed coherent branches contribute one
such form per branch pair, via the dyadic characteristic function of
S(xi_k)|alpha><gamma|S(xi_b)^dag; a PqdFunction packs the conjugate pairs.

Every A is 2 x 2, so A^{-1} = R^T A R / det A, and the det(A)^{1/2} the
Gaussian integral selects is the principal root: with A = S + iT, S > 0,
det A = det(S) prod_j (1 + i kappa_j) over the eigenvalues kappa_j of
S^{-1/2} T S^{-1/2}, each factor in the right half-plane, so |arg det A| < pi.

Normalization anchors: vacuum Wigner (2/pi) e^{-2|beta|^2}; coherent-state
covariance is the identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotIntegrable, OrderingTooHigh
from .states import Branch, SqueezeParam, SuperpositionState, _squeezed_coherent_overlap, compose_squeezing

__all__ = [
    "ComplexGaussianForm",
    "GaussianState",
    "PqdFunction",
    "gaussian_pqd",
    "dyadic_char",
    "fourier_transform_form",
    "superposition_pqd",
]

# e^{beta conj(xi) - conj(beta) xi} = e^{i (2 R y).x} for single-mode blocks
_R_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])

_LOG2 = math.log(2.0)

# Positive-definiteness floor: at or past this the PQD is treated as singular.
SINGULAR_TOL = 1e-12


def _det(mat):
    return mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] * mat[..., 1, 0]


def _integrable(quad) -> bool:
    """Re(quad) positive-definite for every stacked 2 x 2 quad, by leading principal minors."""
    s_part = quad.real
    return bool(np.all((s_part[..., 0, 0] > 0.0) & (_det(s_part) > 0.0)))


@dataclass(frozen=True, eq=False)
class ComplexGaussianForm:
    """Single-mode f(x) = prefactor * exp(-x^T quad x / 2 + lin^T x), quad symmetric 2 x 2."""

    prefactor: complex
    quad: np.ndarray
    lin: np.ndarray

    def __post_init__(self):
        quad = np.asarray(self.quad, dtype=complex)
        lin = np.asarray(self.lin, dtype=complex)
        if quad.shape != (2, 2) or lin.shape != (2,):
            raise ValueError("expected a 2 x 2 matrix and a length-2 vector")
        scale = max(1.0, float(np.max(np.abs(quad))))
        if float(np.max(np.abs(quad - quad.T))) > 1e-9 * scale:
            raise ValueError("quadratic part must be symmetric")
        quad = 0.5 * (quad + quad.T)
        quad.setflags(write=False)
        lin.setflags(write=False)
        object.__setattr__(self, "prefactor", complex(self.prefactor))
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)

    def is_integrable(self) -> bool:
        """Re(quad) positive-definite, by leading principal minors."""
        return _integrable(self.quad)

    def evaluate(self, points) -> np.ndarray:
        """Complex values at real points of shape (..., 2)."""
        pts = np.asarray(points, dtype=float)
        expo = pts @ self.lin - 0.5 * np.einsum("...i,...i->...", pts @ self.quad, pts)
        if self.prefactor == 0.0:
            return np.zeros_like(expo)
        # keep the prefactor in the exponent so tiny-prefactor / large-field
        # terms near the ordering supremum do not overflow the plain product
        return np.exp(expo + cmath.log(self.prefactor))


# ---------------------------------------------------------------------------
# Gaussian states (covariance-matrix picture)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Single-mode first and second moments; coherent-state covariance is the identity.

    Validity is the uncertainty relation sigma + i Omega >= 0 (Omega the
    symplectic form), which squeezed states saturate; a plain sigma >= 1
    test would wrongly reject them.
    """

    cov: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if cov.shape != (2, 2) or mean.shape != (2,):
            raise ValueError("expected a 2 x 2 covariance and a length-2 mean (one mode)")
        if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(mean))):
            raise ValueError("covariance and mean must be finite")
        if float(np.max(np.abs(cov - cov.T))) > 1e-10 * max(1.0, float(np.max(np.abs(cov)))):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        heis = np.linalg.eigvalsh(cov.astype(complex) + 1j * _R_BLOCK)
        if heis[0] < -1e-9:
            raise ValueError(f"covariance violates the uncertainty relation ({heis[0]:.3e})")
        cov.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)

    # -- constructors -------------------------------------------------------

    @classmethod
    def vacuum(cls) -> "GaussianState":
        return cls(np.eye(2), np.zeros(2))

    @classmethod
    def coherent(cls, alpha: complex) -> "GaussianState":
        alpha = complex(alpha)
        return cls(np.eye(2), np.array([alpha.real, alpha.imag]))

    @classmethod
    def squeezed_vacuum(cls, r: float, phi: float = 0.0) -> "GaussianState":
        return cls.squeezed_coherent(0.0, SqueezeParam(r, phi))

    @classmethod
    def squeezed_coherent(cls, alpha: complex, squeeze: SqueezeParam) -> "GaussianState":
        half = 0.5 * squeeze.phi
        rot = np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])
        cov = rot @ np.diag([math.exp(2.0 * squeeze.r), math.exp(-2.0 * squeeze.r)]) @ rot.T
        alpha = complex(alpha)
        mean_c = squeeze.mu * alpha + cmath.exp(1j * squeeze.phi) * squeeze.nu * alpha.conjugate()
        return cls(cov, np.array([mean_c.real, mean_c.imag]))

    @classmethod
    def thermal(cls, nbar: float) -> "GaussianState":
        if nbar < 0:
            raise ValueError("mean photon number must be >= 0")
        return cls((2.0 * nbar + 1.0) * np.eye(2), np.zeros(2))


def gaussian_pqd(state: GaussianState, t: float) -> "PqdFunction":
    """t-ordered PQD of a single-mode Gaussian state as one positive real term.

    With Sigma = sigma - t I the PQD is (2/pi) det(Sigma)^{-1/2}
    exp(-2 (y-m)^T Sigma^{-1} (y-m)), the Wigner Gaussian widened (t < 0) or
    narrowed (t > 0).

    Raises OrderingTooHigh once Sigma loses an eigenvalue above 1e-12: there
    the PQD degenerates to a delta-like object.
    """
    t = float(t)
    sigma = state.cov - t * np.eye(2)
    vals = np.linalg.eigvalsh(sigma)
    if vals[0] <= SINGULAR_TOL:
        raise OrderingTooHigh(
            f"ordering {t!r} reaches the singular boundary (min eigenvalue {vals[0]:.3e})"
        )
    inv = np.linalg.inv(sigma)
    inv = 0.5 * (inv + inv.T)
    log_pref = (
        math.log(2.0 / math.pi)
        - 0.5 * float(np.sum(np.log(vals)))
        - 2.0 * float(state.mean @ inv @ state.mean)
    )
    return PqdFunction([log_pref], [4.0 * inv], [4.0 * inv @ state.mean], [False])


# ---------------------------------------------------------------------------
# dyadic characteristic functions
# ---------------------------------------------------------------------------


def dyadic_char(ket: Branch, bra: Branch, t: float) -> ComplexGaussianForm:
    """Tr[S(xi_k)|alpha><gamma|S(xi_b)^dag D(xi)] e^{t|xi|^2/2} as a form in x.

    Branch coefficients are ignored here; superposition_pqd weights pairs.

    Route: push D(xi) through the ket squeeze (S^dag D(xi) S = D(w) with
    w = xi mu - conj(xi) nu e^{i phi}), fold S(xi_b)^dag S(xi_k) into a
    single squeeze times the metaplectic phase, rotate the displacement and
    the ket through that phase, and close with the normal-ordered matrix
    element <gamma|S(xi~)|delta> (branch_overlap, the xi = 0 value).  The
    result is quadratic in x with

        A_ij = conj(zeta~) d_i d_j + Re(d_i conj(d_j)) - t delta_ij,
        d_1 = (mu_k - nu_k e^{i phi_k}) e^{i Phi/2},
        d_2 = i (mu_k + nu_k e^{i phi_k}) e^{i Phi/2},

    and the t-independent linear part assembled below.  The scalar branch
    e^{i Phi/4} / sqrt(cosh r~) of the overlap is unambiguous:
    compose_squeezing returns the principal Phi, under which the xi = 0
    value of two squeezed vacua reproduces their overlap (equal squeezes
    give exactly 1, and the value is continuous in the phase difference).
    """
    alpha = ket.alpha
    gamma = bra.alpha
    sq_k = ket.squeeze

    xi_t, phi_t = compose_squeezing(bra.squeeze.negated(), sq_k)
    zt = xi_t.zeta
    mu_t = xi_t.mu
    half = cmath.exp(0.5j * phi_t)

    eik = cmath.exp(1j * sq_k.phi)
    d1 = (sq_k.mu - sq_k.nu * eik) * half
    d2 = 1j * (sq_k.mu + sq_k.nu * eik) * half

    ztc = zt.conjugate()
    off = ztc * d1 * d2 + (d1 * d2.conjugate()).real
    quad = np.array(
        [[ztc * d1 * d1 + abs(d1) ** 2 - t, off], [off, ztc * d2 * d2 + abs(d2) ** 2 - t]],
        dtype=complex,
    )

    g = gamma.conjugate()
    a_rot = alpha * half
    u = g / mu_t - ztc * a_rot
    lin = np.array(
        [u * d1 - a_rot * d1.conjugate(), u * d2 - a_rot * d2.conjugate()], dtype=complex
    )
    overlap = cmath.exp(0.25j * phi_t) * _squeezed_coherent_overlap(gamma, xi_t, a_rot)
    return ComplexGaussianForm(overlap, quad, lin)


# ---------------------------------------------------------------------------
# Fourier transform and PQD assembly
# ---------------------------------------------------------------------------


def fourier_transform_form(char: ComplexGaussianForm) -> ComplexGaussianForm:
    """beta-space Gaussian of a characteristic-side Gaussian (exact).

    Completing the square in Int d^2x/pi^2 f(x) e^{i(2 R y).x} gives, with the principal root,

        A' = 4 A / det A,   L' = -2i A R L / det A,
        C' = C (2/pi) det(A)^{-1/2} e^{(R L)^T A (R L) / (2 det A)}.

    Raises NotIntegrable when Re(A) is not positive-definite (the PQD at
    this ordering is delta-like, e.g. the P function of a coherent state).
    """
    if not char.is_integrable():
        raise NotIntegrable(
            "characteristic function is not Fourier-integrable at this ordering"
        )
    det = complex(_det(char.quad))
    r_lin = _R_BLOCK @ char.lin
    quad = (4.0 / det) * char.quad
    lin = (-2j / det) * (char.quad @ r_lin)
    if char.prefactor == 0.0:
        return ComplexGaussianForm(0.0, quad, lin)
    # the completed square can reach +-1e6 within ~1e-6 of the ordering
    # supremum, so assemble the prefactor in log space and refuse to emit a
    # form the (prefactor, quad, lin) representation cannot hold
    log_pref = (
        cmath.log(char.prefactor)
        + math.log(2.0 / math.pi)
        - 0.5 * cmath.log(det)
        + 0.5 * complex(r_lin @ char.quad @ r_lin) / det
    )
    if log_pref.real > 700.0:
        raise OrderingTooHigh(
            "PQD prefactor overflows this close to the integrability boundary"
        )
    if log_pref.real < -700.0:
        s_part = quad.real
        b_part = lin.real
        peak = log_pref.real + 0.5 * float(b_part @ np.linalg.solve(s_part, b_part))
        if peak > -700.0:
            # the term itself is nowhere near negligible; only its stored
            # scale factor underflows
            raise OrderingTooHigh(
                "PQD prefactor underflows this close to the integrability boundary"
            )
        return ComplexGaussianForm(0.0, quad, lin)
    return ComplexGaussianForm(cmath.exp(log_pref), quad, lin)


def superposition_pqd(state: SuperpositionState, t: float) -> "PqdFunction":
    """t-PQD of a branch superposition: one packed term per unordered pair.

    rho = sum_{q,q'} c_q conj(c_{q'}) |q><q'| maps termwise through the
    dyadic characteristic function and the exact Fourier transform.  The
    (q', q) term is the complex conjugate of the (q, q') term, so only the
    pairs q <= q' are built: a diagonal term is a real positive Gaussian,
    and an off-diagonal one enters as 2 Re f_{qq'}, with the 2 in its
    log-prefactor.
    """
    terms = []
    for q, ket in enumerate(state.branches):
        for qp, bra in enumerate(state.branches[q:], start=q):
            form = fourier_transform_form(dyadic_char(ket, bra, t))
            scale = form.prefactor * ket.coeff * bra.coeff.conjugate()
            log_pref = cmath.log(scale) if scale != 0.0 else complex(-math.inf)
            if qp == q:
                terms.append((log_pref.real, form.quad.real, form.lin.real, False))
            else:
                terms.append((log_pref + _LOG2, form.quad, form.lin, True))
    return PqdFunction(*zip(*terms))


# Points per kernel chunk.  The chunk's monomial basis and term exponents
# (about 1 MB for the 25 rows of a 15-term PQD) stay in a 2 MiB L2 cache;
# chunks of 2^14 points spill out of it and run slower.
_CHUNK = 1 << 12
# Rows per matrix product: at most 2^18 multiply-adds, OpenBLAS's default
# threshold for splitting a gemm over threads.  A split product rounds some
# points differently, which would make W depend on the BLAS thread count.
_PRODUCT_ROWS = (1 << 18) // (6 * _CHUNK)


def _monomial_rows(c, a, b) -> np.ndarray:
    """Rows of c - y^T a y / 2 + b^T y on the basis [1, u, v, u^2, uv, v^2]."""
    return np.stack(
        [c, b[:, 0], b[:, 1], -0.5 * a[:, 0, 0], -a[:, 0, 1], -0.5 * a[:, 1, 1]], axis=1
    )


@dataclass(frozen=True, eq=False)
class PqdFunction:
    """Real-valued PQD W^{(t)}(beta) = sum_k Re f_k(beta) over packed terms.

    Term k is f_k(y) = exp(log_pref[k] - y^T quad[k] y / 2 + lin[k]^T y) with
    y = (Re beta, Im beta), stored as stacked arrays of shapes (T,),
    (T, 2, 2) and (T, 2).  A term with pair[k] false is a real positive
    Gaussian; one with pair[k] true stands for a conjugate pair f + conj(f)
    and carries log 2 in its log-prefactor.

    Construction also fixes every exponent as a row of coefficients on the
    monomials [1, u, v, u^2, uv, v^2]: the T real parts, with the
    log-prefactor on 1, followed by the P pair terms' phases.  All
    evaluation goes through one kernel that multiplies these rows into the
    monomials of a chunk of points.
    """

    log_pref: np.ndarray
    quad: np.ndarray
    lin: np.ndarray
    pair: np.ndarray

    def __post_init__(self):
        n = len(self.log_pref)
        if n == 0:
            raise ValueError("a PQD needs at least one term")
        for name, dtype, shape in (
            ("log_pref", complex, (n,)),
            ("quad", complex, (n, 2, 2)),
            ("lin", complex, (n, 2)),
            ("pair", bool, (n,)),
        ):
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape} for {n} single-mode terms")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        pairs = np.flatnonzero(self.pair)
        rows = [
            _monomial_rows(self.log_pref.real, self.quad.real, self.lin.real),
            _monomial_rows(self.log_pref.imag[pairs], self.quad.imag[pairs], self.lin.imag[pairs]),
        ]
        if n + pairs.size < 2:
            rows.append(np.zeros((1, 6)))  # see _kernel: gemm needs two rows
        rows = np.concatenate(rows)
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_pairs", tuple(int(k) for k in pairs))

    def _kernel(self, chunks, size: int, envelope=None) -> np.ndarray:
        """sum_k Re f_k at `size` points, and sum_k |f_k| into `envelope`.

        `chunks` yields (u, v) pairs that broadcast to at most _CHUNK points,
        in output order.  Per chunk, the monomials fill a (6, m) basis, the
        coefficient rows times the basis give every exponent, and the terms
        are summed in term order.  The log-prefactor stays inside the
        exponent: near the ordering supremum it can be ~-800 against
        quadratic parts of ~+800, and the plain product would overflow
        although the term is finite.  A flat `envelope` array of `size`
        points receives the moduli exp(Re e_k), summed in term order before
        the phases are applied, so W and its envelope cost one pass.
        """
        n_terms = self.log_pref.size
        rows = self._rows
        n_products = -(-len(rows) // _PRODUCT_ROWS)
        cuts = [len(rows) * i // n_products for i in range(n_products + 1)]
        out = np.empty(size)
        width = max(min(size, _CHUNK), 2)
        basis = np.zeros((6, width))
        basis[0] = 1.0
        expo = np.empty((len(rows), width))
        lo = 0
        for u, v in chunks:
            shape = np.broadcast_shapes(np.shape(u), np.shape(v))
            m = math.prod(shape)
            bu, bv = basis[1, :m], basis[2, :m]
            bu.reshape(shape)[...] = u
            bv.reshape(shape)[...] = v
            np.multiply(bu, bu, out=basis[3, :m])
            np.multiply(bu, bv, out=basis[4, :m])
            np.multiply(bv, bv, out=basis[5, :m])
            # numpy hands a product with one row or one column to gemv, whose
            # rounding depends on where a point sits in the chunk; with at
            # least two of each, gemm gives every point the same bits
            # whatever the chunking (a spare column holds an earlier point
            # or the origin, and its values are dropped)
            e = expo[:, : max(m, 2)]
            for r0, r1 in zip(cuts, cuts[1:]):
                np.matmul(rows[r0:r1], basis[:, : max(m, 2)], out=e[r0:r1])
            np.exp(e[:n_terms], out=e[:n_terms])
            if envelope is not None:
                acc = envelope[lo : lo + m]
                np.copyto(acc, e[0, :m])
                for k in range(1, n_terms):
                    acc += e[k, :m]
            phase = e[n_terms:]
            np.cos(phase, out=phase)
            for j, k in enumerate(self._pairs):
                e[k] *= phase[j]
            acc = out[lo : lo + m]
            np.copyto(acc, e[0, :m])
            for k in range(1, n_terms):
                acc += e[k, :m]
            lo += m
        return out

    def __call__(self, beta, envelope=None) -> np.ndarray:
        """W at complex points of any shape; a float for a scalar point.

        `envelope`, a C-contiguous float array of beta's shape, receives
        sum_k |f_k(beta)| (a pair's modulus with its factor 2), which bounds
        |W|, from the same pass.
        """
        b = np.asarray(beta, dtype=complex)
        flat = b.reshape(-1)
        if envelope is not None:
            if envelope.shape != b.shape or envelope.dtype != float or not envelope.flags.c_contiguous:
                raise ValueError(f"envelope must be a C-contiguous float array of shape {b.shape}")
            envelope = envelope.reshape(-1)
        chunks = (
            (flat.real[lo : lo + _CHUNK], flat.imag[lo : lo + _CHUNK])
            for lo in range(0, flat.size, _CHUNK)
        )
        out = self._kernel(chunks, flat.size, envelope).reshape(b.shape)
        return out if out.shape else float(out)

    def evaluate_grid(self, re_axis, im_axis) -> np.ndarray:
        """W on the tensor grid, shape (len(re_axis), len(im_axis)).

        A chunk is a run of whole grid rows, or a piece of one row when a
        row is wider than a chunk.
        """
        x1 = np.asarray(re_axis, dtype=float).reshape(-1)
        x2 = np.asarray(im_axis, dtype=float).reshape(-1)
        if x2.size <= _CHUNK:
            step = _CHUNK // max(x2.size, 1)
            chunks = ((x1[i : i + step, None], x2) for i in range(0, x1.size, step))
        else:
            chunks = (
                (x1[i], x2[j : j + _CHUNK]) for i in range(x1.size) for j in range(0, x2.size, _CHUNK)
            )
        return self._kernel(chunks, x1.size * x2.size).reshape(x1.size, x2.size)

    def envelopes(self):
        """(peak, center, precision) per term, |f_k(y)| = peak_k e^{-(y-c_k)^T S_k (y-c_k)/2}.

        A pair's peak covers f + conj(f), so the terms' sum bounds |W|.
        Raises OrderingTooHigh when one branch pair's peak overflows this
        close to the integrability boundary.
        """
        prec = self.quad.real
        b_part = self.lin.real
        center = np.linalg.solve(prec, b_part[..., None])[..., 0]
        exponent = self.log_pref.real + 0.5 * np.einsum("ki,ki->k", b_part, center)
        if np.any(exponent - _LOG2 * self.pair > 700.0):
            raise OrderingTooHigh(
                "PQD term peak overflows this close to the integrability boundary"
            )
        return np.exp(exponent), center, prec

    def analytic_integral(self) -> complex:
        """Int W d^2beta over the whole plane (1 for a normalized state)."""
        if not _integrable(self.quad):
            raise NotIntegrable("real part of a term's quadratic form is not positive-definite")
        det = _det(self.quad)
        r_lin = self.lin @ _R_BLOCK.T
        log_gauss = 0.5 * np.einsum("ki,kij,kj->k", r_lin, self.quad, r_lin) / det
        terms = np.exp(self.log_pref + math.log(2.0 * math.pi) - 0.5 * np.log(det) + log_gauss)
        return complex(np.sum(terms.real))
