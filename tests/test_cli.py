import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kerrpqd
from kerrpqd import cli
from kerrpqd.cli import main

SQ_VAC = "kind=squeezed_vacuum r=0.4 phi=0"
VACUUM = "kind=coherent alpha_re=0 alpha_im=0"
MC_FLAGS = ["--eta-l", "0.5", "--eta-d", "0.8", "--p-d", "0.45"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# pqd export
# ---------------------------------------------------------------------------


def test_pqd_csv_and_meta(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, err = run(
        capsys, "pqd", "--state", VACUUM, "--t", "0", "--grid-r", "2", "--grid-n", "11",
        "--out", str(out),
    )
    assert code == 0 and err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "beta_re,beta_im,w"
    assert len(lines) == 1 + 11 * 11
    # center row: vacuum Wigner peak 2/pi
    center = [l for l in lines[1:] if l.startswith("0.0000000000000000e+00,0.000")]
    assert center and float(center[0].split(",")[2]) == pytest.approx(2.0 / math.pi)
    meta = dict(l.split("=", 1) for l in (out.with_suffix(".csv.meta")).read_text().splitlines())
    assert meta["state"] == VACUUM
    assert float(meta["norm_residual"]) < 1e-8
    assert meta["grid_n"] == "11"


def test_pqd_stdout_when_no_out(capsys):
    code, out, _ = run(capsys, "pqd", "--state", VACUUM, "--grid-r", "1", "--grid-n", "11")
    assert code == 0
    assert out.startswith("beta_re,beta_im,w\n")


def test_pqd_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["pqd", "--state", "kind=kerr_squeezed_vacuum m=3 r=0.5", "--t", "-0.5",
            "--grid-r", "3", "--grid-n", "21"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("m", [5, 7])
def test_pqd_csv_does_not_depend_on_the_blas_thread_count(tmp_path, m):
    """m = 5 gives 15 terms and m = 7 gives 28, 49 coefficient rows with the
    phases: as one product per 4096-point chunk, OpenBLAS splits that over
    two threads and rounds some points differently."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kerrpqd.__file__)))
    code = "import sys\nfrom kerrpqd.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        argv = ["pqd", "--state", f"kind=kerr_squeezed_vacuum m={m} r=1", "--t", "-0.5", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# negativity / threshold
# ---------------------------------------------------------------------------


def test_negativity_curve_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, err = run(
        capsys, "negativity", "--state", SQ_VAC, "--t-min", "-1", "--t-max", "-0.5",
        "--t-points", "5", "--out", str(out),
    )
    assert code == 0 and err == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "t,negativity,err"
    assert len(lines) == 6
    ts = [float(l.split(",")[0]) for l in lines[1:]]
    assert ts == sorted(ts) and ts[0] == -1.0
    assert all(float(l.split(",")[1]) == 0.0 for l in lines[1:])


def test_threshold_report_gaussian(capsys):
    code, out, _ = run(capsys, "threshold", "--state", SQ_VAC)
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["t_bar"]) == pytest.approx(math.exp(-0.8) - 1e-6, abs=1e-12)
    assert float(fields["eps_neg"]) == 1e-9
    assert float(fields["tol_t"]) == 1e-3


# ---------------------------------------------------------------------------
# simulability / sweep
# ---------------------------------------------------------------------------


def test_simulability_uniform_line(capsys):
    code, out, _ = run(
        capsys, "simulability", "--eta-l", "0.9", "--eta-d", "0.8", "--p-d", "0.05",
        "--tbar", "-1",
    )
    assert code == 0
    assert out.startswith("inequality=uniform_threshold ")
    fields = dict(part.split("=", 1) for part in out.split())
    assert float(fields["margin"]) == pytest.approx(-1.675)
    assert fields["simulable"] == "false"
    assert "params=eta_l=" in out
    assert float(fields["eta_d"]) == 0.8


def test_simulability_thermal_line(capsys):
    code, out, _ = run(
        capsys, "simulability", "--eta-l", "0.5", "--p-d", "0.3", "--nbar", "0.5",
    )
    assert code == 0
    fields = dict(part.split("=", 1) for part in out.split())
    assert fields["inequality"] == "thermal_threshold"
    assert float(fields["margin"]) == pytest.approx(0.05)
    assert fields["simulable"] == "true"
    assert fields["always_simulable"] == "false"


def test_simulability_both_bounds_two_lines(capsys):
    code, out, _ = run(
        capsys, "simulability", "--eta-l", "0.7", "--p-d", "0.1", "--tbar", "-1",
        "--nbar", "0.2",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("inequality=uniform_threshold")
    assert lines[1].startswith("inequality=thermal_threshold")


def test_simulability_requires_a_bound(capsys):
    code, _, err = run(capsys, "simulability", "--eta-l", "0.9")
    assert code == 2
    assert err.startswith("error=validation detail=")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulability", "--eta-l", "0.5", "--nbar", "inf"),
        ("simulability", "--tbar", "nan"),
        ("sweep", "--grid-n", "3", "--tbar", "nan"),
    ],
)
def test_non_finite_noise_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error=validation detail=")


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--grid-n", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta_L,eta_D,p_D,nbar,inequality,margin,simulable"
    assert len(lines) == 1 + 3 * 3 * 3 * 2
    etas = {float(l.split(",")[0]) for l in lines[1:]}
    assert etas == {1.0 / 3.0, 2.0 / 3.0, 1.0}
    assert all(l.split(",")[6] in ("true", "false") for l in lines[1:])


# ---------------------------------------------------------------------------
# verify / estimate
# ---------------------------------------------------------------------------


def test_verify_all_checks_pass(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 4 + 3 + 1
    assert all(l.endswith("pass=true") for l in lines)
    assert sum(l.startswith("check=kerr_bch") for l in lines) == 4
    assert sum(l.startswith("check=u2_squeeze") for l in lines) == 3
    assert lines[-1].startswith("check=su11_composition pairs=100")


def test_estimate_line_and_determinism(capsys):
    args = ["estimate", "--state", VACUUM, "--t", "-1", *MC_FLAGS,
            "--samples", "2000", "--seed", "3"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    fields = dict(part.split("=") for part in out1.split())
    assert abs(float(fields["p_hat"]) - 0.55) < 5.0 * float(fields["stderr"])
    assert fields["samples"] == "2000" and fields["seed"] == "3"
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_estimate_unsamplable_noise_exits_3(capsys):
    code, _, err = run(
        capsys, "estimate", "--state", VACUUM, "--t", "-1",
        "--eta-l", "0.9", "--eta-d", "0.7", "--p-d", "0.05",
    )
    assert code == 3
    assert err.startswith("error=precondition_violated detail=")


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_fills_unset_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# threshold settings\n"
        "state = kind=squeezed_vacuum r=0.4 phi=0\n"
        "eps-neg = 1e-6\n"
        "\n"
        "tol-t = 1e-2\n"
    )
    code, out, _ = run(capsys, "threshold", "--config", str(cfg))
    assert code == 0
    fields = dict(part.split("=", 1) for part in out.split())
    assert float(fields["eps_neg"]) == 1e-6
    assert float(fields["tol_t"]) == 1e-2


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = kind=squeezed_vacuum r=0.4 phi=0\ntol-t = 1e-2\n")
    code, out, _ = run(capsys, "threshold", "--config", str(cfg), "--tol-t", "5e-3")
    assert code == 0
    fields = dict(part.split("=", 1) for part in out.split())
    assert float(fields["tol_t"]) == 5e-3


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 100\n")  # not a threshold option
    code, _, err = run(capsys, "threshold", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_config_duplicate_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol-t = 1e-2\ntol_t = 1e-3\n")
    code, _, err = run(capsys, "threshold", "--config", str(cfg))
    assert code == 2
    assert "duplicate key" in err


def test_config_missing_file(capsys):
    code, _, err = run(capsys, "threshold", "--config", "does-not-exist.cfg")
    assert code == 2
    assert "cannot read config file" in err


def test_config_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = kind=squeezed_vacuum r=0.4 phi=0\ntol-t = banana\n")
    code, _, err = run(capsys, "threshold", "--config", str(cfg))
    assert code == 2
    assert "cannot parse" in err


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


# every command's options, written out so that an edit to the command table
# cannot add, drop or reorder one unnoticed
COMMAND_OPTIONS = {
    "pqd": ("state", "t", "grid_r", "grid_n", "out"),
    "negativity": ("state", "t_min", "t_max", "t_points", "grid_r", "grid_n", "out"),
    "threshold": ("state", "eps_neg", "tol_t", "grid_r", "grid_n", "out"),
    "simulability": ("eta_l", "eta_d", "p_d", "nbar", "tbar", "out"),
    "sweep": ("grid_n", "nbar", "tbar", "out"),
    "verify": ("out",),
    "estimate": ("state", "t", "s", "eta_l", "eta_d", "p_d", "nbar", "samples", "seed", "out"),
}


def test_every_command_keeps_its_options():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    built = {
        command: tuple(a.dest for a in parser._actions if a.dest not in ("help", "config"))
        for command, parser in sub.choices.items()
    }
    assert built == COMMAND_OPTIONS


def test_bad_state_description_exits_2(capsys):
    code, _, err = run(capsys, "pqd", "--state", "kind=flux_capacitor", "--grid-n", "11")
    assert code == 2
    assert err.startswith("error=validation detail=")
    code, _, err = run(capsys, "pqd", "--state", "kind=squeezed_vacuum r=0.5 phi=inf", "--grid-n", "11")
    assert code == 2
    assert "squeeze phase must be finite, got inf" in err


def test_missing_required_flag_exits_2(capsys):
    code, _, err = run(capsys, "threshold")
    assert code == 2
    assert "--state is required" in err


def test_out_of_range_ordering_exits_3(capsys):
    code, _, err = run(capsys, "pqd", "--state", SQ_VAC, "--t", "0.9", "--grid-n", "11")
    assert code == 3
    assert err.startswith("error=")
    assert "detail=" in err


def test_import_leaves_the_fock_oracle_unloaded():
    """scipy.linalg is only needed by the oracle, which loads on first use."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kerrpqd.__file__)))
    code = (
        "import sys, kerrpqd, kerrpqd.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy imported'\n"
        "assert callable(kerrpqd.build_state)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_are_the_modules_lists():
    """The top level re-exports each layer's __all__ and the lazy oracle names."""
    declared = {name for module in kerrpqd._MODULES for name in module.__all__}
    assert set(kerrpqd.__all__) == declared | set(kerrpqd._FOCK_ORACLE_NAMES)
    assert len(kerrpqd.__all__) == len(set(kerrpqd.__all__))
    assert "superposition_pqd" in kerrpqd.__all__
    for name in kerrpqd.__all__:
        assert getattr(kerrpqd, name) is not None
