"""Spans and counts around calls into the nonauto modules.

The tracer wraps public functions where their callers look them up (module
attributes, class attributes, numpy.roots) and restores them afterwards, so
nothing under src/ changes.  Every call made while the tracer is active
becomes a span (name, start, end, parent); spans and counts stay in memory
until the run writes them out.  Self time is a span's duration minus the time
its child spans cover.  The stack assumes one thread, which holds because the
benchmark renders with threads=1.
"""
from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)   # outermost spans of each name
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[list] = []                   # [name, start, child time, span index]
        self._open: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def wrap(self, fn, name: str, count=None):
        """fn wrapped in a span; count(tracer, result, *args, **kwargs) runs untraced."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer._open[name] == 0
            frame = [name, perf_counter(), 0.0, len(tracer.spans)]
            tracer.spans.append(None)  # placeholder keeps parents before children
            tracer._stack.append(frame)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                parent = tracer._stack[-1] if tracer._stack else None
                duration = end - frame[1]
                tracer.spans[frame[3]] = (name, frame[1], end, parent[3] if parent else -1)
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[2]
                if outer:
                    tracer.total[name] += duration
                if parent is not None:
                    parent[2] += duration
            if count is not None:
                t0 = perf_counter()
                tracer.active = False
                try:
                    count(tracer, result, *args, **kwargs)
                finally:
                    tracer.active = True
                if parent is not None:  # counting is tracer cost, not the parent's work
                    parent[2] += perf_counter() - t0
            return result

        return traced

    # --- installing ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def patch_everywhere(self, modules, fn, name: str, count=None):
        """Wrap fn in every module namespace that binds it (its import sites)."""
        wrapped = self.wrap(fn, name, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        import json

        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


# --- counters derived from arguments and results ----------------------------------

def _live_steps(steps: np.ndarray, n_steps: int) -> np.ndarray:
    """Steps each point spent live: its escape step, or n_steps if it never escaped."""
    s = np.asarray(steps).ravel().astype(np.int64)
    return np.where(s > 0, s, n_steps)


def _count_orbit_work(tracer, steps, seq, n_steps):
    live = _live_steps(steps, n_steps)
    tracer.counts["green.point_steps"] += int(live.sum())
    # point k-step orbits cost sum_{j<=k} deg p_j coefficient updates each
    degrees = np.array([0] + [seq.degree(k) for k in range(1, n_steps + 1)], dtype=np.int64)
    cumulative = np.cumsum(degrees)
    tracer.counts["green.coeff_point_updates"] += int(cumulative[live].sum())


def _escape_steps_count(tracer, result, seq, points, n_steps, escape_radius):
    _count_orbit_work(tracer, result, seq, n_steps)


def _green_field_count(tracer, result, seq, points, n_steps, escape_radius, target=None):
    _count_orbit_work(tracer, result[1], seq, n_steps)


def _scalar_eval_count(tracer, result, p, z):
    tracer.counts["poly.scalar_coeff_updates"] += p.degree


def _circle_count(tracer, result, p, pts):
    if not tracer.inside("sequences.circle_eval"):  # log_abs_on calls values_on
        tracer.counts["sequences.circle_evals"] += 1
        tracer.counts["sequences.circle_coeff_updates"] += p.degree * int(np.size(pts))


def _radius_count(tracer, result, *args, **kwargs):
    # the search walks R_k = (17/16) * 2**(k/16) for k = 0, 1, ... and returns the first pass
    k = round(16.0 * np.log2(result / (17.0 / 16.0)))
    tracer.counts["sequences.radius_grid_steps"] += k + 1


def _net_count(tracer, result, *args, **kwargs):
    if not tracer.inside("green.preimage_net"):
        tracer.counts["green.preimage_net.points"] += int(np.size(result))


def _roots_count(tracer, result, *args, **kwargs):
    if tracer.inside("green.preimage_net"):
        tracer.counts["green.roots_calls"] += 1


def _estimate_count(tracer, result, *args, **kwargs):
    tracer.counts["klimek.net_points"] += int(result.samples)


def _raster_count(tracer, result, *args, **kwargs):
    tracer.counts["render.pixels"] += int(result.values.size)


def _file_count(tracer, result, raster, path):
    tracer.counts["render.bytes_written"] += os.path.getsize(path)


def _main_count(tracer, result, *args, **kwargs):
    tracer.counts["cli.exit_nonzero"] += int(result != 0)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of poly, sequences, green, klimek, render and cli."""
    import nonauto
    from nonauto import cli, green, klimek, poly, render, sequences

    modules = [nonauto, poly, sequences, green, klimek, render, cli]
    every = functools.partial(tracer.patch_everywhere, modules)

    every(poly.evaluate, "poly.evaluate", _scalar_eval_count)
    every(poly.evaluate_scaled, "poly.evaluate_scaled", _scalar_eval_count)

    tracer.patch(sequences.PolySequence, "get", "sequences.get")
    every(sequences.escape_radius_search, "sequences.escape_radius_search", _radius_count)
    every(sequences.check_guided, "sequences.check_guided")
    every(sequences.check_finite_condition, "sequences.check_finite_condition")
    tracer.patch(sequences, "log_abs_on", "sequences.circle_eval", _circle_count)
    tracer.patch(sequences, "values_on", "sequences.circle_eval", _circle_count)

    every(green.escape_steps, "green.escape_steps", _escape_steps_count)
    every(green.green_field, "green.green_field", _green_field_count)
    every(green.orbit_bounded, "green.orbit_bounded")
    every(green.green_nonauto, "green.green_nonauto")
    tracer.patch(green.Preimage, "boundary_net", "green.preimage_net", _net_count)
    tracer.patch(green.Preimage, "interior_net", "green.preimage_net", _net_count)
    tracer.patch(green.Preimage, "green", "green.preimage_green")
    tracer.patch(green, "values_on", "green.preimage_values")
    tracer.patch(np, "roots", "green.roots", _roots_count)
    every(green.capacity_estimate, "green.capacity_estimate")

    every(klimek.tail_constant, "klimek.tail_constant")
    every(klimek.gamma_models, "klimek.gamma_models", _estimate_count)
    every(klimek.gamma_nonauto, "klimek.gamma_nonauto", _estimate_count)
    every(klimek.convergence_table, "klimek.convergence_table")

    for fn in (render.raster_membership, render.raster_green, render.raster_rect_target):
        every(fn, "render.raster", _raster_count)
    every(render.write_png, "render.write_png", _file_count)
    every(render.write_csv, "render.write_csv", _file_count)

    tracer.patch(cli, "main", "cli.main", _main_count)


# per-layer metrics: (name, unit, value from the tracer)
def _calls(name):
    return lambda t: t.calls[name]


def _total(name):
    return lambda t: t.total[name]


def _self(name):
    return lambda t: t.self_time[name]


def _count(name):
    return lambda t: t.counts[name]


def _rate(count_name, *span_names):
    def value(t):
        seconds = sum(t.total[n] for n in span_names)
        return t.counts[count_name] / seconds if seconds > 0 else 0.0
    return value


LAYER_METRICS = [
    ("poly.evaluate.calls", "count", _calls("poly.evaluate")),
    ("poly.evaluate.s", "s", _total("poly.evaluate")),
    ("poly.evaluate_scaled.calls", "count", _calls("poly.evaluate_scaled")),
    ("poly.evaluate_scaled.s", "s", _total("poly.evaluate_scaled")),
    ("poly.scalar_coeff_updates", "count", _count("poly.scalar_coeff_updates")),
    ("sequences.get.calls", "count", _calls("sequences.get")),
    ("sequences.get.s", "s", _total("sequences.get")),
    ("sequences.escape_radius_search.s", "s", _total("sequences.escape_radius_search")),
    ("sequences.check_guided.s", "s", _total("sequences.check_guided")),
    ("sequences.circle_evals", "count", _count("sequences.circle_evals")),
    ("sequences.circle_coeff_updates", "count", _count("sequences.circle_coeff_updates")),
    ("sequences.radius_grid_steps", "count", _count("sequences.radius_grid_steps")),
    ("green.escape_steps.s", "s", _total("green.escape_steps")),
    ("green.green_field.s", "s", _total("green.green_field")),
    ("green.point_steps", "count", _count("green.point_steps")),
    ("green.coeff_point_updates", "count", _count("green.coeff_point_updates")),
    ("green.coeff_point_updates_per_s", "1/s",
     _rate("green.coeff_point_updates", "green.escape_steps", "green.green_field")),
    ("green.orbit_bounded.s", "s", _self("green.orbit_bounded")),
    ("green.green_nonauto.s", "s", _self("green.green_nonauto")),
    ("green.preimage_net.calls", "count", _calls("green.preimage_net")),
    ("green.preimage_net.s", "s", _total("green.preimage_net")),
    ("green.preimage_net.points", "count", _count("green.preimage_net.points")),
    ("green.roots_calls", "count", _count("green.roots_calls")),
    ("green.preimage_green.s", "s", _total("green.preimage_green")),
    ("green.capacity_estimate.s", "s", _total("green.capacity_estimate")),
    ("klimek.tail_constant.s", "s", _total("klimek.tail_constant")),
    ("klimek.gamma_models.calls", "count", _calls("klimek.gamma_models")),
    ("klimek.gamma_models.s", "s", _total("klimek.gamma_models")),
    ("klimek.gamma_nonauto.s", "s", _total("klimek.gamma_nonauto")),
    ("klimek.convergence_table.s", "s", _total("klimek.convergence_table")),
    ("klimek.net_points", "count", _count("klimek.net_points")),
    ("render.raster.s", "s", _self("render.raster")),
    ("render.pixels", "count", _count("render.pixels")),
    ("render.pixels_per_s", "1/s", _rate("render.pixels", "render.raster")),
    ("render.write_png.s", "s", _total("render.write_png")),
    ("render.write_csv.s", "s", _total("render.write_csv")),
    ("render.bytes_written", "count", _count("render.bytes_written")),
    ("cli.main.s", "s", _self("cli.main")),
    ("cli.exit_nonzero", "count", _count("cli.exit_nonzero")),
]

# counts that must repeat exactly between runs of one seed
EXACT_COUNTS = [name for name, unit, _ in LAYER_METRICS if unit == "count"]


def layer_metrics(tracer: Tracer) -> dict:
    return {name: (fn(tracer), unit) for name, unit, fn in LAYER_METRICS}

