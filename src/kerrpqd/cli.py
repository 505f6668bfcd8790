"""Command-line front end.

Subcommands map one-to-one onto the library layers: `pqd` exports a
distribution grid as CSV, `negativity` a (t, N, err) curve, `threshold`
the ordering threshold report, `simulability`/`sweep` the inequality
verdicts, `estimate` the Monte-Carlo click probability, and `verify` the
oracle identity suite.  All numbers are printed with 17 significant digits
so that repeated runs with the same config and seed diff byte-identically;
files are written atomically (temp file + rename).

Exit codes: 0 success, 2 argument/config validation failure, 3 numerical
failure; failures emit one `error=<code> detail=<msg>` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from .errors import PqdError
from .negativity import (
    TOL_T_DEFAULT,
    QuadratureSpec,
    find_threshold,
    negativity_curve,
)
from .phase_space import superposition_pqd
from .simulability import (
    NoiseParams,
    estimate_click_probability,
    thermal_threshold_verdict,
    uniform_threshold_verdict,
)
from .states import (
    SqueezeParam,
    compose_squeezing,
    parse_state_description,
    state_extents,
    su11_matrix,
)

__all__ = ["main"]

# The reporting tolerance on t_bar is 1e-3 while the negativity near the
# Husimi point grows only quadratically in (1 + t), so the search floor
# must sit far below the library default for the reported digit to mean
# anything.  1e-9 keeps every tabulated threshold case well-determined.
CLI_EPS_NEG = 1e-9

_PQD_GRID_N = 201
_SWEEP_GRID_N = 10

# dest -> parser for values arriving through a config file
_OPTION_TYPES = {
    "state": str,
    "t": float,
    "t_min": float,
    "t_max": float,
    "t_points": int,
    "eta_l": float,
    "eta_d": float,
    "p_d": float,
    "nbar": float,
    "tbar": float,
    "grid_r": float,
    "grid_n": int,
    "eps_neg": float,
    "tol_t": float,
    "s": float,
    "samples": int,
    "seed": int,
    "out": str,
}

def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kerrpqd-tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--{name.replace('_', '-')} is required for {args.command!r}")
    return value


def _load_config(path: str) -> dict:
    entries = {}
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    with handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key = key.strip().replace("-", "_")
            if key in entries:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value.strip()
    return entries


def _apply_config(args) -> None:
    """Fill in options the flags left unset; flags always win."""
    if args.config is None:
        return
    allowed = _COMMANDS[args.command][2]
    for key, text in _load_config(args.config).items():
        if key not in allowed:
            raise ValueError(f"unknown config key {key!r} for command {args.command!r}")
        if getattr(args, key) is not None:
            continue  # explicit flag overrides the file
        parse = _OPTION_TYPES[key]
        try:
            setattr(args, key, parse(text))
        except ValueError:
            raise ValueError(f"config key {key!r}: cannot parse {text!r} as {parse.__name__}")


def _parse_state(args):
    return parse_state_description(_require(args, "state")).to_state()


def _quadrature_spec(args, state) -> QuadratureSpec:
    overrides = {}
    if args.grid_r is not None:
        overrides["window"] = args.grid_r
    if args.grid_n is not None:
        overrides["base_resolution"] = args.grid_n
    return QuadratureSpec.for_state(state, **overrides)


def _noise(args) -> NoiseParams:
    """The given noise flags; NoiseParams' defaults fill in the rest."""
    given = {"eta_L": args.eta_l, "eta_D": args.eta_d, "p_D": args.p_d, "nbar": args.nbar}
    return NoiseParams(**{k: v for k, v in given.items() if v is not None})


def _report(args, text: str) -> None:
    """A one-line-per-result report: to stdout, and to --out when it is set."""
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(args.out, text)


def _noise_echo(noise: NoiseParams) -> str:
    return (
        f"eta_l={_fmt(noise.eta_L)} eta_d={_fmt(noise.eta_D)} "
        f"p_d={_fmt(noise.p_D)} nbar={_fmt(noise.nbar)}"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_pqd(args) -> None:
    state = _parse_state(args)
    t = args.t if args.t is not None else 0.0
    pqd = superposition_pqd(state, t)
    if args.grid_r is not None:
        radius = args.grid_r
    else:
        amax, rmax = state_extents(state)
        radius = 4.0 * (amax * math.exp(rmax) + math.exp(rmax))
    n = args.grid_n if args.grid_n is not None else _PQD_GRID_N
    axis = np.linspace(-radius, radius, n)
    grid = pqd.evaluate_grid(axis, axis)

    lines = ["beta_re,beta_im,w"]
    for i, re in enumerate(axis):
        for j, im in enumerate(axis):
            lines.append(f"{_fmt(re)},{_fmt(im)},{_fmt(grid[i, j])}")
    _write_text(args.out, "\n".join(lines) + "\n")

    if args.out is not None:
        residual = abs(pqd.analytic_integral() - 1.0)
        meta = [
            f"state={args.state}",
            f"t={_fmt(t)}",
            f"grid_r={_fmt(radius)}",
            f"grid_n={n}",
            f"norm_residual={_fmt(residual)}",
        ]
        _write_text(args.out + ".meta", "\n".join(meta) + "\n")


def _cmd_negativity(args) -> None:
    state = _parse_state(args)
    spec = _quadrature_spec(args, state)
    t_min = args.t_min if args.t_min is not None else -1.0
    t_max = args.t_max if args.t_max is not None else -0.2
    n_pts = args.t_points if args.t_points is not None else 17
    curve = negativity_curve(state, t_min, t_max, n_pts, spec)
    lines = ["t,negativity,err"]
    for t, value, err in curve:
        lines.append(f"{_fmt(t)},{_fmt(value)},{_fmt(err)}")
    _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_threshold(args) -> None:
    state = _parse_state(args)
    spec = _quadrature_spec(args, state)
    eps_neg = args.eps_neg if args.eps_neg is not None else CLI_EPS_NEG
    tol_t = args.tol_t if args.tol_t is not None else TOL_T_DEFAULT
    tbar = find_threshold(state, eps_neg, tol_t, spec)
    _report(args, f"t_bar={_fmt(tbar)} eps_neg={_fmt(eps_neg)} tol_t={_fmt(tol_t)}\n")


def _cmd_simulability(args) -> None:
    if args.tbar is None and args.nbar is None:
        raise ValueError("simulability needs --tbar (uniform bound) and/or --nbar (thermal bound)")
    noise = _noise(args)
    echo = _noise_echo(noise)
    lines = []
    if args.tbar is not None:
        verdict = uniform_threshold_verdict(noise, args.tbar)
        lines.append(
            f"inequality={verdict.inequality} margin={_fmt(verdict.margin)} "
            f"simulable={_bool(verdict.simulable)} params={echo} tbar={_fmt(args.tbar)}"
        )
    if args.nbar is not None:
        verdict = thermal_threshold_verdict(noise)
        lines.append(
            f"inequality={verdict.inequality} margin={_fmt(verdict.margin)} "
            f"simulable={_bool(verdict.simulable)} "
            f"always_simulable={_bool(verdict.always_simulable)} params={echo}"
        )
    _report(args, "\n".join(lines) + "\n")


def _cmd_sweep(args) -> None:
    n = args.grid_n if args.grid_n is not None else _SWEEP_GRID_N
    if n < 2:
        raise ValueError("sweep grid needs at least 2 points per axis")
    tbar = args.tbar if args.tbar is not None else -1.0
    nbar = args.nbar if args.nbar is not None else 0.0
    eta_axis = [(i + 1) / n for i in range(n)]
    pd_axis = np.linspace(0.0, 0.5, n)
    lines = ["eta_L,eta_D,p_D,nbar,inequality,margin,simulable"]
    for eta_l in eta_axis:
        for eta_d in eta_axis:
            for p_d in pd_axis:
                noise = NoiseParams(eta_l, eta_d, float(p_d), nbar)
                for verdict in (
                    uniform_threshold_verdict(noise, tbar),
                    thermal_threshold_verdict(noise),
                ):
                    lines.append(
                        f"{_fmt(eta_l)},{_fmt(eta_d)},{_fmt(p_d)},{_fmt(nbar)},"
                        f"{verdict.inequality},{_fmt(verdict.margin)},{_bool(verdict.simulable)}"
                    )
    _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_verify(args) -> None:
    from .fock_oracle import verify_kerr_bch, verify_u2_squeeze  # needs scipy.linalg

    lines = []
    failed = []

    for chi in (0.0, math.pi / 5.0, math.pi / 3.0, math.pi):
        dev = verify_kerr_bch(chi, 60)
        ok = dev <= 1e-10
        lines.append(f"check=kerr_bch chi={_fmt(chi)} max_err={_fmt(dev)} pass={_bool(ok)}")
        if not ok:
            failed.append("kerr_bch")

    for r in (0.1, 0.5, 1.0):
        dev = abs(verify_u2_squeeze(r, 140) - 1.0)
        ok = dev <= 1e-10
        lines.append(f"check=u2_squeeze r={_fmt(r)} max_err={_fmt(dev)} pass={_bool(ok)}")
        if not ok:
            failed.append("u2_squeeze")

    rng = np.random.default_rng(7041)
    worst = 0.0
    for _ in range(100):
        r1, r2 = rng.uniform(0.0, 1.5, size=2)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        xi1, xi2 = SqueezeParam(r1, p1), SqueezeParam(r2, p2)
        xi3, phase = compose_squeezing(xi1, xi2)
        lhs = su11_matrix(xi1) @ su11_matrix(xi2)
        rhs = su11_matrix(xi3) @ np.diag(
            [np.exp(0.5j * phase), np.exp(-0.5j * phase)]
        )
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-10
    lines.append(f"check=su11_composition pairs=100 max_err={_fmt(worst)} pass={_bool(ok)}")
    if not ok:
        failed.append("su11_composition")

    _report(args, "\n".join(lines) + "\n")
    if failed:
        raise PqdError(f"verification failed: {', '.join(sorted(set(failed)))}")


def _cmd_estimate(args) -> None:
    state = _parse_state(args)
    t = _require(args, "t")
    noise = _noise(args)
    samples = args.samples if args.samples is not None else 100_000
    seed = args.seed if args.seed is not None else 0
    p_hat, stderr = estimate_click_probability(
        state, noise, t, args.s, n_samples=samples, seed=seed
    )
    s_echo = "" if args.s is None else f" s={_fmt(args.s)}"
    _report(
        args,
        f"p_hat={_fmt(p_hat)} stderr={_fmt(stderr)} samples={samples} seed={seed} "
        f"t={_fmt(t)}{s_echo} {_noise_echo(noise)}\n",
    )


# command -> (handler, help, options), in the order the parser lists them
_COMMANDS = {
    "pqd": (
        _cmd_pqd,
        "export a PQD grid as CSV (plus a .meta sidecar)",
        ("state", "t", "grid_r", "grid_n", "out"),
    ),
    "negativity": (
        _cmd_negativity,
        "export a (t, negativity, err) curve as CSV",
        ("state", "t_min", "t_max", "t_points", "grid_r", "grid_n", "out"),
    ),
    "threshold": (
        _cmd_threshold,
        "report the ordering threshold t_bar",
        ("state", "eps_neg", "tol_t", "grid_r", "grid_n", "out"),
    ),
    "simulability": (
        _cmd_simulability,
        "report inequality verdicts for one noise point",
        ("eta_l", "eta_d", "p_d", "nbar", "tbar", "out"),
    ),
    "sweep": (
        _cmd_sweep,
        "grid the noise space and emit all verdict margins as CSV",
        ("grid_n", "nbar", "tbar", "out"),
    ),
    "verify": (_cmd_verify, "run the oracle identity suite", ("out",)),
    "estimate": (
        _cmd_estimate,
        "Monte-Carlo estimate of the no-click probability",
        ("state", "t", "s", "eta_l", "eta_d", "p_d", "nbar", "samples", "seed", "out"),
    ),
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_option(parser, dest):
    flag = "--" + dest.replace("_", "-")
    parser.add_argument(flag, dest=dest, type=_OPTION_TYPES[dest], default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrpqd",
        description="Ordered quasi-probability toolkit: PQD grids, negativity "
        "volumes, ordering thresholds, and simulability verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, dests) in _COMMANDS.items():
        cmd_parser = sub.add_parser(command, help=help_text)
        for dest in dests:
            _add_option(cmd_parser, dest)
        cmd_parser.add_argument("--config", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_config(args)
        _COMMANDS[args.command][0](args)
    except PqdError as exc:
        sys.stderr.write(f"error={exc.code} detail={exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error=validation detail={exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
