"""Per-layer metrics from the spans and counts a traced run wrote.

A layer is a ``qxform`` module.  A span's self time is its duration minus the
part of it that its child spans cover; a layer's ``self_s`` sums the self time
of every span of that layer, so the layer totals plus ``trace.unattributed_s``
add up to the traced wall time.  An ``.s`` metric is inclusive: the summed
duration of the named spans that are not nested inside another span of the
same group, so recursion is not counted twice.
"""

from __future__ import annotations

import json

import numpy as np

from tracer import is_schedule_call

LAYERS = ("cli", "experiments", "hamiltonians", "schedules", "propagation", "operators", "transform")

# Spans whose layer is not the module that defines them.  The CSV writer lives
# in transform but only the CLI's output step calls it.
LAYER_OF = {"transform.write_csv_curve": "cli"}

GROUPS = {
    "cli.csv": ("transform.write_csv_curve",),
    "experiments.track_ground_state": ("experiments.track_ground_state",),
    "hamiltonians.matrix_stack": ("hamiltonians.TimeDependentHamiltonian.matrix_stack",),
    "hamiltonians.eigensystem": ("hamiltonians.instantaneous_eigensystem",),
    "propagation.propagate": ("propagation.propagate",),
    "propagation.sample_trace": ("propagation.sample_trace",),
    "propagation.closed_form": ("propagation.nmr_fast_propagator", "propagation.nmr_slow_propagator"),
    "operators.hermitian_expm": ("operators.hermitian_expm",),
    "operators.phase_align": ("operators.phase_align",),
    "transform.compose_transform": ("transform.compose_transform",),
    "transform.sampled_transform": ("transform.sampled_transform",),
    "transform.frame_change": ("transform.transform_into_frame", "transform.transform_out_of_frame"),
    "transform.verify_transform": ("transform.verify_transform",),
    "transform.rescale": ("transform.time_rescaling_equivalence", "transform.verify_rescaled_drive"),
}


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct children.

    Spans of one thread nest, so the direct children of a span never overlap
    and their summed duration is the part of the span they cover.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(parent))
    return duration - covered


def outermost(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Mask of member spans that have no member span among their ancestors."""
    inside = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        inside[live] |= member[anc[live]]
        anc[live] = parent[anc[live]]
    return member & ~inside


class SpanSet:
    """The spans of one traced run, with self times and layer labels."""

    def __init__(self, prefix: str):
        with np.load(prefix + ".npz") as data:
            self.name_id = data["name_id"].astype(np.int64)
            self.parent = data["parent"].astype(np.int64)
            start, end = data["start"], data["end"]
        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        self.run_id = meta["run_id"]
        self.names = meta["names"]
        self.tallies = meta["tallies"]
        self.unique = meta["unique"]
        self.duration = end - start
        self.self_time = self_times(self.parent, self.duration)
        layer_of_name = np.asarray(
            [LAYER_OF.get(n, n.split(".", 1)[0]) for n in self.names], dtype=object
        )
        self.layer = layer_of_name[self.name_id] if len(self.name_id) else layer_of_name[:0]

    def mask(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name_id, ids)

    def schedule_mask(self) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if is_schedule_call(n)]
        return np.isin(self.name_id, ids)

    def inclusive(self, member: np.ndarray) -> float:
        return float(self.duration[outermost(self.parent, member)].sum())

    def top_level_s(self) -> float:
        return float(self.duration[self.parent < 0].sum())


def raw_counts(spans: SpanSet) -> dict:
    """Additive per-run quantities; workload metrics are built from their sums."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(spans.self_time[spans.layer == layer].sum())
    for group, names in GROUPS.items():
        member = spans.mask(names)
        out[f"{group}.s"] = spans.inclusive(member)
        out[f"{group}.self_s"] = float(spans.self_time[member].sum())
        out[f"{group}.calls"] = int(member.sum())
    sched = spans.schedule_mask()
    out["schedules.s"] = spans.inclusive(sched)
    out["schedules.calls"] = int(sched.sum())
    out["top_level_s"] = spans.top_level_s()
    for key, value in spans.tallies.items():
        out[key] = value
    for key, value in spans.unique.items():
        out[key] = value
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def workload_metrics(runs: list, traced_wall_s: float, overhead_s: float, output_bytes: int) -> dict:
    """The per-layer metrics of one workload from the raw counts of its configs."""
    total: dict = {}
    for counts in runs:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    g = lambda key: total.get(key, 0)  # noqa: E731
    prop_s = g("propagation.propagate.s")
    gflop = g("propagation.propagate.flop") / 1e9
    return {
        "cli.self_s": g("cli.self_s"),
        "cli.csv_s": g("cli.csv.s"),
        "cli.output_bytes": output_bytes,
        "experiments.self_s": g("experiments.self_s"),
        "experiments.track_ground_state.self_s": g("experiments.track_ground_state.self_s"),
        "experiments.track_ground_state.nodes": g("experiments.track_ground_state.nodes"),
        "hamiltonians.self_s": g("hamiltonians.self_s"),
        "hamiltonians.matrix_stack.s": g("hamiltonians.matrix_stack.s"),
        "hamiltonians.matrix_stack.calls": g("hamiltonians.matrix_stack.calls"),
        "hamiltonians.matrix_stack.rows": g("hamiltonians.matrix_stack.rows"),
        "hamiltonians.matrix_stack.unique_frac": _ratio(
            g("hamiltonians.matrix_stack.unique_rows"), g("hamiltonians.matrix_stack.rows")
        ),
        "hamiltonians.eigensystem.self_s": g("hamiltonians.eigensystem.self_s"),
        "hamiltonians.eigensystem.calls": g("hamiltonians.eigensystem.calls"),
        "hamiltonians.eigensystem.unique_frac": _ratio(
            g("hamiltonians.eigensystem.unique"), g("hamiltonians.eigensystem.calls")
        ),
        "schedules.self_s": g("schedules.self_s"),
        "schedules.s": g("schedules.s"),
        "schedules.calls": g("schedules.calls"),
        "schedules.points": g("schedules.points"),
        "propagation.self_s": g("propagation.self_s"),
        "propagation.propagate.self_s": g("propagation.propagate.self_s"),
        "propagation.propagate.calls": g("propagation.propagate.calls"),
        "propagation.propagate.steps": g("propagation.propagate.steps"),
        "propagation.propagate.stored": g("propagation.propagate.stored"),
        "propagation.propagate.steps_per_s": _ratio(g("propagation.propagate.steps"), prop_s),
        "propagation.propagate.gflop": gflop,
        "propagation.propagate.gflop_per_s": _ratio(gflop, prop_s),
        "propagation.propagate.stored_bytes": g("propagation.propagate.stored_bytes"),
        "propagation.sample_trace.self_s": g("propagation.sample_trace.self_s"),
        "propagation.sample_trace.nodes": g("propagation.sample_trace.nodes"),
        "propagation.closed_form.s": g("propagation.closed_form.s"),
        "propagation.closed_form.calls": g("propagation.closed_form.calls"),
        "operators.self_s": g("operators.self_s"),
        "operators.hermitian_expm.s": g("operators.hermitian_expm.s"),
        "operators.hermitian_expm.calls": g("operators.hermitian_expm.calls"),
        "operators.phase_align.s": g("operators.phase_align.s"),
        "operators.phase_align.calls": g("operators.phase_align.calls"),
        "transform.self_s": g("transform.self_s"),
        "transform.compose_transform.s": g("transform.compose_transform.s"),
        "transform.sampled_transform.self_s": g("transform.sampled_transform.self_s"),
        "transform.sampled_transform.nodes": g("transform.sampled_transform.nodes"),
        "transform.frame_change.self_s": g("transform.frame_change.self_s"),
        "transform.frame_change.calls": g("transform.frame_change.calls"),
        "transform.frame_change.unique_frac": _ratio(
            g("transform.frame_change.unique"), g("transform.frame_change.calls")
        ),
        "transform.verify_transform.self_s": g("transform.verify_transform.self_s"),
        "transform.rescale.self_s": g("transform.rescale.self_s"),
        "trace.unattributed_s": traced_wall_s - g("top_level_s"),
        "trace.overhead_s": overhead_s,
    }
