"""Span recorder that wraps qxform's public functions from outside the package.

``install`` replaces every public function of every ``qxform`` module, and
every public method of every public class they define, with a wrapper that
records one span (name, start, end, parent) per call.  Modules bind each
other's functions with ``from .x import y``, so a function is replaced in every
``qxform`` namespace that holds it, not only where it is defined; methods are
replaced on the class that defines them.  Class methods, static methods and
properties are left alone.

Spans are kept in memory in flat arrays and written out once by ``dump`` when
the run ends.  Work counts (rows, points, steps, nodes) are tallied at the
same call boundaries, and the distinct-input counts behind the
``unique_frac`` metrics are computed at dump time.

Only the standard library is imported here; numpy is imported by ``dump``,
after the traced run has loaded it anyway.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time

MODULES = ("operators", "schedules", "hamiltonians", "propagation", "transform", "experiments", "cli")

# Real-arithmetic operations per propagation step of dimension d (labelled
# "computed" wherever it is reported): a complex Hermitian eigendecomposition
# with vectors (~36 d^3), then three complex d x d products at 8 d^3 each:
# the exponential assembly V diag V^dag, the Gram check U^dag U and the
# accumulation U <- step U.  Lower-order terms are dropped.
FLOP_PER_STEP_PER_DIM3 = 60


def _rows(tracer, args, kwargs, result):
    tracer.tally("hamiltonians.matrix_stack.rows", len(result))
    tracer.remember("matrix_stack", args[0], args[1] if len(args) > 1 else kwargs["ts"])


def _eigensystem(tracer, args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.remember("eigensystem", args[0], t)


def _points(tracer, args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.tally("schedules.points", getattr(t, "size", 1))


def _propagate(tracer, args, kwargs, result):
    dim = result.dim
    steps = result.grid.n_steps
    stored = len(result.times)
    tracer.tally("propagation.propagate.steps", steps)
    tracer.tally("propagation.propagate.stored", stored)
    tracer.tally("propagation.propagate.flop", FLOP_PER_STEP_PER_DIM3 * dim**3 * steps)
    tracer.tally("propagation.propagate.stored_bytes", stored * dim * dim * 16)


def _nodes(key):
    def measure(tracer, args, kwargs, result):
        tracer.tally(key, len(result.times))

    return measure


def _tracked_nodes(tracer, args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    tracer.tally("experiments.track_ground_state.nodes", len(trace.times))


def _frame_change(kind):
    def measure(tracer, args, kwargs, result):
        tracer.remember(kind, args[0], args[1])

    return measure


# Span name -> counter recorded after each call.
MEASURES = {
    "hamiltonians.TimeDependentHamiltonian.matrix_stack": _rows,
    "hamiltonians.instantaneous_eigensystem": _eigensystem,
    "propagation.propagate": _propagate,
    "propagation.sample_trace": _nodes("propagation.sample_trace.nodes"),
    "transform.sampled_transform": _nodes("transform.sampled_transform.nodes"),
    "experiments.track_ground_state": _tracked_nodes,
    "transform.transform_into_frame": _frame_change("into_frame"),
    "transform.transform_out_of_frame": _frame_change("out_of_frame"),
}


def is_schedule_call(name: str) -> bool:
    return name.startswith("schedules.") and name.endswith((".value", ".derivative"))


def _measure_for(name: str):
    if is_schedule_call(name):
        return _points
    return MEASURES.get(name)


class Tracer:
    """In-memory span store for one run; ``run_id`` tags everything it writes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.tallies: dict[str, float] = {}
        # kind -> list of (object, argument) pairs; holding the objects keeps
        # their ids from being reused while the run lasts
        self.inputs: dict[str, list] = {}
        self._stack: list[int] = []

    def tally(self, key: str, amount) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def remember(self, kind: str, obj, arg) -> None:
        self.inputs.setdefault(kind, []).append((obj, arg))

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        nid = len(self.names)
        self.names.append(name)
        measure = _measure_for(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if measure is not None:
                measure(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the qxform modules."""
        package = importlib.import_module("qxform")
        modules = [importlib.import_module(f"qxform.{m}") for m in MODULES]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(member):
                            continue
                        setattr(obj, attr, self.wrap(f"{layer}.{obj.__qualname__}.{attr}", member))
        for ns in [package, *modules]:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, name, wrapped[obj])

    def unique_counts(self) -> dict:
        """Distinct inputs seen by the layers that can repeat work."""
        import numpy as np

        out = {}
        by_h: dict[int, list] = {}
        for h, ts in self.inputs.get("matrix_stack", ()):
            by_h.setdefault(id(h), []).append(np.atleast_1d(np.asarray(ts, dtype=float)))
        out["hamiltonians.matrix_stack.unique_rows"] = sum(
            int(np.unique(np.concatenate(parts)).size) for parts in by_h.values()
        )
        eig = self.inputs.get("eigensystem", ())
        out["hamiltonians.eigensystem.unique"] = len({(id(h), float(t)) for h, t in eig})
        out["transform.frame_change.unique"] = sum(
            len({(id(h), id(s)) for h, s in self.inputs.get(kind, ())})
            for kind in ("into_frame", "out_of_frame")
        )
        return out

    def dump(self, prefix: str) -> None:
        """Write the spans to ``prefix.npz`` and the counts to ``prefix.json``."""
        import numpy as np

        np.savez(
            prefix + ".npz",
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        meta = {
            "run_id": self.run_id,
            "names": self.names,
            "tallies": self.tallies,
            "unique": self.unique_counts(),
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)
