"""Failure taxonomy shared across the toolkit.

Each class carries a stable ``code`` string; the command-line front end
relays it verbatim as ``error=<code>`` so scripts can branch on it.
"""

__all__ = [
    "PqdError",
    "OrderingTooHigh",
    "OrderingTooLow",
    "NotIntegrable",
    "TailBoundExceeded",
    "CutoffTooSmall",
    "PreconditionViolated",
]


class PqdError(Exception):
    """Base class for numerical-domain failures."""

    code = "pqd_error"


class OrderingTooHigh(PqdError):
    """Requested ordering is at or past the singular point of a Gaussian PQD."""

    code = "ordering_too_high"


class OrderingTooLow(PqdError):
    """Detector PQD undefined: ordering below the POVM existence bound."""

    code = "ordering_too_low"


class NotIntegrable(PqdError):
    """Characteristic function is not Fourier-integrable (delta-like PQD)."""

    code = "not_integrable"


class TailBoundExceeded(PqdError):
    """Quadrature window too small: analytic exterior bound above tolerance."""

    code = "tail_bound_exceeded"


class CutoffTooSmall(PqdError):
    """Truncated Fock-space computation would exceed its error budget."""

    code = "cutoff_too_small"


class PreconditionViolated(PqdError):
    """A positivity certificate required by the estimator does not hold."""

    code = "precondition_violated"
