"""Each benchmark check accepts a correct output and refuses a perturbed one.

    python3 -m pytest perfbench/tests -q      # about half a minute

The perturbations are those the checks exist to catch: N shifted by 3 err
at any one ordering of the curve, t_bar shifted by 10 tol_t, and p_hat
shifted by 10 stderr.  On `sample`, only the recorded output of the known
sampler fault is counted as failed; any other refused estimate makes the
run incorrect.
"""

import json
import math
import os

import pytest

import checks
import workload
from tracer import per_layer_units

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(BENCH, "curve_refs.json"), encoding="utf-8") as _handle:
    REFS = json.load(_handle)
TOL = workload.CURVE["tol"]
ERR = 0.5 * TOL  # a typical reported error bar, within the requested tol
UNIT_NORMS = [1.0] * len(REFS["orderings"])


def reference_curve():
    return [(t, n, ERR) for t, n in zip(REFS["orderings"], REFS["n_ref"])]


def test_refs_cover_the_workload_orderings():
    c = workload.CURVE
    want = [c["t_min"] + i * (c["t_max"] - c["t_min"]) / (c["points"] - 1) for i in range(c["points"])]
    assert REFS["orderings"] == pytest.approx(want, abs=1e-12)
    assert max(REFS["d_ref"]) < ERR  # so that a 3 err shift is always visible


def test_curve_check_accepts_the_oracle_curve():
    assert checks.check_curve(reference_curve(), REFS, UNIT_NORMS, TOL) == []


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("index", range(len(REFS["orderings"])))
def test_curve_check_refuses_n_shifted_by_3_err(index, sign):
    points = reference_curve()
    t, n, err = points[index]
    points[index] = (t, n + sign * 3.0 * err, err)
    assert checks.check_curve(points, REFS, UNIT_NORMS, TOL)


def test_curve_check_refuses_err_above_tol_and_a_bad_norm():
    points = reference_curve()
    t, n, _ = points[5]
    points[5] = (t, n, 2.0 * TOL)
    assert checks.check_curve(points, REFS, UNIT_NORMS, TOL)
    norms = list(UNIT_NORMS)
    norms[3] = 1.0 + 1e-6
    assert checks.check_curve(reference_curve(), REFS, norms, TOL)


def _expected_t_bar(case):
    if case["expect"] == "husimi":
        return -1.0
    return math.exp(-2.0 * case["r"]) - checks.SINGLE_BRANCH_MARGIN


CLOSED_FORM_CASES = [c for c in workload.THRESHOLD_CASES if c["expect"] != "floor"]


@pytest.mark.parametrize("case", CLOSED_FORM_CASES, ids=lambda c: c["state"])
def test_threshold_check_accepts_expected_and_refuses_shift(case):
    t_bar = _expected_t_bar(case)
    assert checks.check_threshold(case, t_bar) == []
    for sign in (1.0, -1.0):
        assert checks.check_threshold(case, t_bar + sign * 10.0 * case["tol_t"])


def test_threshold_floor_bracket_accepts_program_and_refuses_shift():
    from kerrpqd.negativity import find_threshold
    from kerrpqd.states import parse_state_description

    (case,) = [c for c in workload.THRESHOLD_CASES if c["expect"] == "floor"]
    state = parse_state_description(case["state"]).to_state()
    t_bar = find_threshold(state, case["eps_neg"], case["tol_t"])
    vec = checks.oracle_state("squeeze_kerr_coherent", m=case["m"], alpha=case["alpha"], r=case["r"])

    def bracket(t):
        return (
            checks.oracle_negativity_ref(vec, t, workload.BRACKET_GRID),
            checks.oracle_negativity_ref(vec, t + case["tol_t"], workload.BRACKET_GRID),
        )

    assert checks.check_threshold(case, t_bar, bracket(t_bar)) == []
    for sign in (1.0, -1.0):
        shifted = t_bar + sign * 10.0 * case["tol_t"]
        assert checks.check_threshold(case, shifted, bracket(shifted))


def test_sample_check_refuses_p_hat_shifted_by_10_stderr():
    p_ref, stderr = 0.302, 2.9e-4
    assert checks.check_sample(p_ref + 3.0 * stderr, stderr, p_ref) == []
    for sign in (1.0, -1.0):
        assert checks.check_sample(p_ref + sign * 10.0 * stderr, stderr, p_ref)
    assert checks.check_sample(p_ref, 0.0, p_ref)


@pytest.mark.parametrize("estimator_seed", workload.SAMPLE["seeds"])
def test_sample_known_fault_is_only_the_recorded_output(estimator_seed):
    p_ref = 0.301998  # oracle_off_probability of the sample workload
    known = workload.SAMPLE_FAULT_OUTPUTS[estimator_seed]
    p_known, stderr = known
    # the recorded biased output is refused by the oracle and put down to the fault
    problems, faults = checks.check_sample_known_fault(p_known, stderr, p_ref, known)
    assert problems == [] and faults
    # an accepted estimate is neither a problem nor a fault
    assert checks.check_sample_known_fault(p_ref + stderr, stderr, p_ref, known) == ([], [])
    # every other refused output makes the run incorrect
    for p_hat, err in (
        (0.9, stderr),
        (p_known + 10.0 * stderr, stderr),
        (p_ref - 10.0 * stderr, stderr),
        (p_known, 0.0),
        (p_known, 0.5 * stderr),
    ):
        problems, faults = checks.check_sample_known_fault(p_hat, err, p_ref, known)
        assert problems and faults == []
    problems, faults = checks.check_sample_known_fault(p_known, stderr, p_ref, None)
    assert problems and faults == []


def test_sample_workload_check_fails_the_run_on_a_far_off_estimate():
    work = workload.setup_sample(1)
    known = [({"seed": s}, workload.SAMPLE_FAULT_OUTPUTS[s]) for s in workload.SAMPLE["seeds"]]
    problems, faults = work.check(known)
    assert problems == [] and len(faults) == len(known)
    far = [(case, (0.9, out[1])) for case, out in known]
    problems, faults = work.check(far)
    assert len(problems) == len(far) and faults == []


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "solve_s", "solve_cpu_s", "peak_rss_mb"]


def test_tracer_rebinds_imported_names_and_counts_one_volume():
    from kerrpqd import negativity, phase_space, simulability
    from kerrpqd.negativity import QuadratureSpec
    from kerrpqd.states import kerr_coherent_state
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    assert negativity.superposition_pqd is phase_space.superposition_pqd
    assert simulability.superposition_pqd is phase_space.superposition_pqd
    assert simulability.negativity_volume is negativity.negativity_volume

    state = kerr_coherent_state(2, 1.0)
    spec = QuadratureSpec(window=6.0, base_resolution=64, refine_depth=1, tol=1e-3)
    tracer.active = True
    try:
        negativity.negativity_volume(state, -0.5, spec)
    finally:
        tracer.active = False
    totals = tracer.totals
    assert totals["volume.calls"] == 1 and totals["husimi.calls"] == 1
    assert totals["grid.points"] == totals["volume.grid_points"] > 0
    assert 0.0 < totals["volume.self_s"] < totals["volume.s"]
    metrics = tracer.metrics(1, 0.0)  # raises KeyError for a listed metric with no value
    assert list(metrics) == list(per_layer_units())


def test_speed_factor_is_the_reference_over_the_median_calibration():
    ref = workload.CALIBRATION_REF_S
    cals = [(3.0 * ref, ref), (2.0 * ref, ref), (2.0 * ref, 0.5 * ref)]  # (wall, cpu)
    assert workload.speed_factor(cals, 0) == pytest.approx(0.5)
    assert workload.speed_factor(cals, 1) == pytest.approx(1.0)
