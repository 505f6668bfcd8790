"""Per-layer timings and work counts, taken from outside the program.

`Tracer.install` wraps the public functions of each `kerrpqd` layer.  A
module that imports a function by name keeps its own binding (`negativity`
and `simulability` both import `superposition_pqd`, for example), so every
binding of the original object in every loaded `kerrpqd` module is replaced,
not only the one in the defining module.  Methods are replaced on their
class.

Each wrapper records a span: calls, inclusive seconds, and self seconds,
the inclusive time minus the time of the traced spans it directly caused.
A call nested inside a span of the same layer (a state constructor calling
another) is passed through untimed, so a layer's time is never counted
twice.  Spans are aggregated in memory; nothing is written until the run
ends.  The wrappers do nothing while `active` is false, which keeps the
correctness checks out of the figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def per_layer_units() -> dict:
    """name -> unit of every per-layer metric, in BENCHMARK.json's order."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


class _Frame:
    __slots__ = ("layer", "child", "spec", "tight")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0  # seconds covered by the spans this one caused
        self.spec = None  # QuadratureSpec of an open find_threshold
        self.tight = False  # volume call with a spec tighter than its caller's


def _rebind(original, wrapper) -> int:
    """Replace every binding of `original` in the loaded kerrpqd modules."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kerrpqd" or name.startswith("kerrpqd.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def _argument(fn, name: str):
    """Reader of one argument of `fn`, by position or keyword, with its default."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []
        self.totals = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def _span(self, layer: str, fn, note=None):
        stack = self.stack
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (stack and stack[-1].layer == layer):
                return fn(*args, **kwargs)
            frame = _Frame(layer)
            if note is not None:
                note(frame, args, kwargs)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                totals[layer + ".calls"] += 1
                totals[layer + ".s"] += dt
                totals[layer + ".self_s"] += dt - frame.child
                if frame.tight:
                    totals["volume.tight_calls"] += 1
                    totals["volume.tight_s"] += dt
                if stack:
                    stack[-1].child += dt

        return wrapper

    def _inside(self, layer: str):
        for frame in reversed(self.stack):
            if frame.layer == layer:
                return frame
        return None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions; kerrpqd must already be imported."""
        from kerrpqd import cli, negativity, phase_space, simulability, states

        totals = self.totals

        def note_grid(frame, args, kwargs):
            points = np.size(args[1]) * np.size(args[2])
            totals["grid.points"] += points
            if self._inside("volume") is not None:
                totals["volume.grid_points"] += points

        def note_point(frame, args, kwargs):
            points = np.size(args[1])
            totals["point.evals"] += points
            if self.stack and self.stack[-1].layer == "estimate":
                totals["estimate.sampler_points"] += points

        volume_spec = _argument(negativity.negativity_volume, "spec")

        def note_volume(frame, args, kwargs):
            caller = self._inside("threshold")
            if caller is None:
                return
            totals["threshold.volumes"] += 1
            spec = volume_spec(args, kwargs)
            frame.tight = spec is not None and (
                spec.tol < caller.spec.tol or spec.refine_depth > caller.spec.refine_depth
            )

        threshold_state = _argument(negativity.find_threshold, "state")
        threshold_spec = _argument(negativity.find_threshold, "spec")

        def note_threshold(frame, args, kwargs):
            spec = threshold_spec(args, kwargs)
            if spec is None:  # the default find_threshold applies itself
                spec = negativity.QuadratureSpec.for_state(threshold_state(args, kwargs))
            frame.spec = spec

        estimate_samples = _argument(simulability.estimate_click_probability, "n_samples")

        def note_estimate(frame, args, kwargs):
            totals["estimate.samples"] += estimate_samples(args, kwargs)

        pqd_cls = phase_space.PqdFunction
        pqd_cls.evaluate_grid = self._span("grid", pqd_cls.evaluate_grid, note_grid)
        pqd_cls.__call__ = self._span("point", pqd_cls.__call__, note_point)
        desc_cls = states.StateDescription
        desc_cls.to_state = self._span("states", desc_cls.to_state)

        for layer, fn, note in (
            ("pqd", phase_space.superposition_pqd, None),
            ("volume", negativity.negativity_volume, note_volume),
            ("husimi", negativity.husimi_zero_candidates, None),
            ("threshold", negativity.find_threshold, note_threshold),
            ("estimate", simulability.estimate_click_probability, note_estimate),
            ("cli", cli.main, None),
            ("states", states.parse_state_description, None),
            ("states", states.squeeze_then_kerr_state, None),
            ("states", states.kerr_squeezed_vacuum, None),
            ("states", states.kerr_coherent_state, None),
        ):
            if _rebind(fn, self._span(layer, fn, note)) == 0:
                raise RuntimeError(f"no binding of {fn.__qualname__} found to trace")

    # -- report ---------------------------------------------------------------

    def metrics(self, rounds: int, setup_states_s: float) -> dict:
        """Per-layer metrics of one round; states.build_s adds the set-up builds."""
        per = defaultdict(float, {k: v / rounds for k, v in self.totals.items()})

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        values = {
            "states.build_s": setup_states_s + per["states.s"],
            "phase_space.pqd_calls": per["pqd.calls"],
            "phase_space.pqd_s": per["pqd.s"],
            "phase_space.grid_calls": per["grid.calls"],
            "phase_space.grid_points": per["grid.points"],
            "phase_space.grid_s": per["grid.s"],
            "phase_space.points_per_grid_call": ratio(per["grid.points"], per["grid.calls"]),
            "phase_space.grid_points_per_s": ratio(per["grid.points"], per["grid.s"]),
            "phase_space.point_calls": per["point.calls"],
            "phase_space.point_evals": per["point.evals"],
            "phase_space.point_s": per["point.s"],
            "negativity.volume_calls": per["volume.calls"],
            "negativity.volume_s": per["volume.s"],
            "negativity.volume_self_s": per["volume.self_s"],
            "negativity.grid_points_per_volume": ratio(
                per["volume.grid_points"], per["volume.calls"]
            ),
            "negativity.husimi_calls": per["husimi.calls"],
            "negativity.husimi_s": per["husimi.s"],
            "negativity.threshold_calls": per["threshold.calls"],
            "negativity.threshold_s": per["threshold.s"],
            "negativity.volumes_per_threshold": ratio(
                per["threshold.volumes"], per["threshold.calls"]
            ),
            "negativity.tight_volume_calls": per["volume.tight_calls"],
            "negativity.tight_volume_s": per["volume.tight_s"],
            "simulability.estimate_calls": per["estimate.calls"],
            "simulability.estimate_s": per["estimate.s"],
            "simulability.samples_per_s": ratio(per["estimate.samples"], per["estimate.s"]),
            "simulability.sampler_self_s": per["estimate.self_s"],
            "simulability.accept_ratio": ratio(
                per["estimate.samples"], per["estimate.sampler_points"]
            ),
            "cli.main_calls": per["cli.calls"],
            "cli.main_s": per["cli.s"],
            "cli.self_s": per["cli.self_s"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
