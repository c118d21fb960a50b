"""In-memory span tracer for one workload pass.

Spans are recorded around the calls into each layer by wrapping a public
entry point at the name its caller binds.  ``from x import f`` binds ``f``
when the importing module loads, so patching ``propagator.evolve`` alone
would miss every call that ``studies`` makes; the wrappers therefore replace
``studies.evolve``, ``cli.write_csv`` and so on.  Each span keeps its parent,
so a layer's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

OP_LAYER = "studies"  # the op span: CLI and study orchestration outside any layer


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # name, start, end, parent index
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent})
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a wrapper that records a span and then
        calls ``count(counts, result, **arguments)`` with every argument of
        the call by name, defaults included."""
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, result, **bound.arguments)
            return result

        setattr(owner, attr, wrapper)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        total = defaultdict(float)
        for s in self.spans:
            total[s["name"]] += s["end"] - s["start"]
            if s["parent"] is not None:
                total[self.spans[s["parent"]]["name"]] -= s["end"] - s["start"]
        return dict(total)

    def root_wall(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)


# Work counters.  Each receives the counts dict, the wrapped call's result and
# its arguments by name, and adds the work that call did.

def _count_evolve(c, rec, initial, cfg, **_):
    c["propagator.runs"] += 1
    c["propagator.steps"] += cfg.n_steps
    c["propagator.site_steps"] += initial.values.shape[1] * cfg.n_steps
    c["propagator.tail_violations"] += 0 if rec.tail_ok else 1


def _count_spacetime(c, psi, branch, n_nodes, **_):
    points = psi[0].size
    c["wavepacket.eval_points"] += points
    c["wavepacket.point_nodes"] += points * (2 if branch == "both" else 1) * n_nodes


def _count_point(c, dens, tau_grid, n_nodes, **_):
    c["point_analytic.tau_points"] += len(tau_grid)
    c["point_analytic.tau_nodes"] += len(tau_grid) * 2 * n_nodes


def _count_csv(c, written, columns, **_):
    c["cli.csv_rows"] += len(next(iter(columns.values())))
    c["cli.csv_bytes"] += Path(written).stat().st_size


def _count_jump_process(c, _none, self, initial, cfg, **_):
    c["pdp.integrate_site_steps"] += initial.values.shape[1] * cfg.n_steps
    integral = float(np.trapezoid(self.detection_density, self.tau))
    c["pdp.budget_gap"] += self.p_inf - integral


def _count_sample_many(c, records, n, **_):
    c["pdp.trajectories"] += n
    c["pdp.detected"] += sum(1 for r in records if r.detected)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the three workloads reach."""
    from dirac_toa import arrival, cli, pdp, studies, wavepacket

    tracer.wrap(studies, "evolve", "propagator", _count_evolve)
    # sample_packet reaches the quadrature through the wavepacket module
    # global; the counts are taken there, where the work happens
    tracer.wrap(studies, "sample_packet", "wavepacket")
    tracer.wrap(wavepacket, "evaluate_spacetime", "wavepacket", _count_spacetime)
    tracer.wrap(cli, "evaluate_spacetime", "wavepacket", _count_spacetime)
    tracer.wrap(cli, "arrival_density_point", "point_analytic", _count_point)
    tracer.wrap(cli, "write_csv", "cli.csv", _count_csv)
    tracer.wrap(pdp.JumpProcess, "__init__", "pdp.integrate", _count_jump_process)
    tracer.wrap(pdp.JumpProcess, "sample_many", "pdp.sample", _count_sample_many)
    # studies and cli reach arrival through the module attribute
    for attr, fn in list(vars(arrival).items()):
        if (callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                and getattr(fn, "__module__", None) == arrival.__name__):
            tracer.wrap(arrival, attr, "arrival")


def summary(tracer: Tracer) -> dict:
    """What the pass process hands back: self time per layer and the counts."""
    return {"self_s": tracer.self_times(), "wall_s": tracer.root_wall(),
            "counts": dict(tracer.counts)}


def layer_metrics(trace: dict, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  ``trace`` is ``summary()``'s
    output; ``untraced_wall_s`` is the op time of an untraced pass of the same
    workload, against which the tracing overhead is measured."""
    t = trace["self_s"]
    c = trace["counts"]

    def rate(seconds, work, scale):
        return seconds / work * scale if work else 0.0

    evolve_s = t.get("propagator", 0.0)
    integrate_s = t.get("pdp.integrate", 0.0)
    sample_s = t.get("pdp.sample", 0.0)
    eval_s = t.get("wavepacket", 0.0)
    density_s = t.get("point_analytic", 0.0)
    trajectories = c.get("pdp.trajectories", 0)
    return {
        "propagator.evolve_s": evolve_s,
        "propagator.runs": c.get("propagator.runs", 0),
        "propagator.steps": c.get("propagator.steps", 0),
        "propagator.site_steps": c.get("propagator.site_steps", 0),
        "propagator.ns_per_site_step": rate(evolve_s, c.get("propagator.site_steps"), 1e9),
        "propagator.tail_violations": c.get("propagator.tail_violations", 0),
        "pdp.integrate_s": integrate_s,
        "pdp.integrate_site_steps": c.get("pdp.integrate_site_steps", 0),
        "pdp.budget_gap": c.get("pdp.budget_gap", 0.0),
        "pdp.sample_s": sample_s,
        "pdp.trajectories": trajectories,
        "pdp.us_per_trajectory": rate(sample_s, trajectories, 1e6),
        "pdp.detected_frac": c.get("pdp.detected", 0) / trajectories if trajectories else 0.0,
        "wavepacket.eval_s": eval_s,
        "wavepacket.eval_points": c.get("wavepacket.eval_points", 0),
        "wavepacket.ns_per_point_node": rate(eval_s, c.get("wavepacket.point_nodes"), 1e9),
        "point_analytic.density_s": density_s,
        "point_analytic.tau_points": c.get("point_analytic.tau_points", 0),
        "point_analytic.ns_per_tau_node": rate(density_s, c.get("point_analytic.tau_nodes"), 1e9),
        "cli.csv_s": t.get("cli.csv", 0.0),
        "cli.csv_rows": c.get("cli.csv_rows", 0),
        "cli.csv_bytes": c.get("cli.csv_bytes", 0),
        "arrival.reduce_s": t.get("arrival", 0.0),
        "studies.self_s": t.get(OP_LAYER, 0.0),
        "trace.wall_s": trace["wall_s"],
        "trace.overhead_frac": trace["wall_s"] / untraced_wall_s - 1.0,
    }
