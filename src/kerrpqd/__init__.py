"""Ordered phase-space quasi-probability toolkit for Kerr-type bosonic states.

The package is layered bottom-up:

- `states`: squeeze parameters, branch superpositions, Kerr decompositions;
- `phase_space`: closed-form characteristic functions and PQD grids;
- `negativity`: negativity volumes and ordering-threshold search;
- `simulability`: noise inequalities and the Monte-Carlo click estimator;
- `fock_oracle`: truncated number-basis ground truth for everything above
  (imported on first use of its names);
- `cli`: the `kerrpqd` command.

The public names are each module's `__all__`, declared there once.
"""

from importlib import import_module

_MODULES = tuple(
    import_module(f"{__name__}.{layer}")
    for layer in ("errors", "states", "phase_space", "negativity", "simulability")
)
for _module in _MODULES:
    globals().update((name, getattr(_module, name)) for name in _module.__all__)

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


__all__ = sorted({name for module in _MODULES for name in module.__all__} | set(_FOCK_ORACLE_NAMES))
