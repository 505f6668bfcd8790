"""Ordered phase-space quasi-probability toolkit for Kerr-type bosonic states.

The package is layered bottom-up:

- `states`: squeeze parameters, branch superpositions, Kerr decompositions;
- `phase_space`: closed-form characteristic functions and PQD grids;
- `negativity`: negativity volumes and ordering-threshold search;
- `simulability`: noise inequalities and the Monte-Carlo click estimator;
- `fock_oracle`: truncated number-basis ground truth for everything above
  (imported on first use of its names);
- `cli`: the `kerrpqd` command.
"""

from .errors import (
    CutoffTooSmall,
    NotIntegrable,
    OrderingTooHigh,
    OrderingTooLow,
    PqdError,
    PreconditionViolated,
    TailBoundExceeded,
)
from .negativity import (
    NegativityCurve,
    QuadratureSpec,
    find_threshold,
    husimi_zero_candidates,
    integrable_ordering_sup,
    negativity_curve,
    negativity_volume,
)
from .phase_space import (
    ComplexGaussianForm,
    GaussianState,
    PqdFunction,
    dyadic_char,
    fourier_transform_form,
    gaussian_pqd,
    superposition_pqd,
)
from .simulability import (
    DetectorPqd,
    NoiseParams,
    TransferMatrix,
    Verdict,
    detector_order_threshold,
    detector_pqd_off,
    detector_pqd_on,
    estimate_click_probability,
    gbs_qi_verdict,
    thermal_lambda,
    thermal_threshold_verdict,
    thermal_transition_condition,
    transition_condition,
    uniform_threshold_verdict,
)
from .states import (
    Branch,
    KerrOrder,
    SqueezeParam,
    StateDescription,
    SuperpositionState,
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

__version__ = "0.1.0"

# The truncated-Fock oracle needs scipy.linalg, which costs more to import
# than the rest of the package; its names resolve on first use (PEP 562).
_FOCK_ORACLE_NAMES = (
    "build_state",
    "oracle_char",
    "oracle_husimi",
    "oracle_loss",
    "oracle_off_probability",
    "oracle_pqd_grid",
    "verify_kerr_bch",
    "verify_u2_squeeze",
)


def __getattr__(name):
    if name in _FOCK_ORACLE_NAMES:
        from . import fock_oracle

        return getattr(fock_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Branch",
    "ComplexGaussianForm",
    "CutoffTooSmall",
    "DetectorPqd",
    "GaussianState",
    "KerrOrder",
    "NegativityCurve",
    "NoiseParams",
    "NotIntegrable",
    "OrderingTooHigh",
    "OrderingTooLow",
    "PqdError",
    "PqdFunction",
    "PreconditionViolated",
    "QuadratureSpec",
    "SqueezeParam",
    "StateDescription",
    "SuperpositionState",
    "TailBoundExceeded",
    "TransferMatrix",
    "Verdict",
    "build_state",
    "compose_squeezing",
    "compose_squeezing_chain",
    "detector_order_threshold",
    "detector_pqd_off",
    "detector_pqd_on",
    "dyadic_char",
    "estimate_click_probability",
    "find_threshold",
    "fourier_transform_form",
    "gaussian_pqd",
    "gbs_qi_verdict",
    "husimi_zero_candidates",
    "integrable_ordering_sup",
    "kerr_coefficients",
    "kerr_coherent_state",
    "kerr_squeezed_vacuum",
    "negativity_curve",
    "negativity_volume",
    "oracle_char",
    "oracle_husimi",
    "oracle_loss",
    "oracle_off_probability",
    "oracle_pqd_grid",
    "parse_state_description",
    "squeeze_then_kerr_state",
    "state_norm",
    "state_extents",
    "su11_matrix",
    "thermal_lambda",
    "thermal_threshold_verdict",
    "thermal_transition_condition",
    "transition_condition",
    "uniform_threshold_verdict",
    "verify_kerr_bch",
    "verify_u2_squeeze",
]
