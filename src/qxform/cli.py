"""Command-line front end: declarative experiment configs in, deterministic
structured results out.

One table, ``EXPERIMENTS``, declares each experiment kind's fields and
tolerances; it checks configs, builds verdicts and renders ``qxform list``.
Configs are strict JSON, checked in full before any numerics run: unknown
or repeated keys, wrong types, numbers outside the envelope (also from
``--set``) and tolerances that are unknown or lack their block are
rejected, naming the field.  A result record with per-tolerance verdicts is written as
``result.json`` next to optional CSV curves.  Exit codes: 0 all verdicts
pass; 1 usage, config, input or numerical-input error, as one stderr line;
2 a verdict failed.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .hamiltonians import (
    GroverProblem,
    IsingProblem,
    annealing_hamiltonian,
    default_transverse_strength,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from .operators import ENVELOPE, check_envelope, check_qubit_count
from .propagation import TimeGrid
from .schedules import Constant, CosineRamp, Harmonic, LinearRamp, NmrParams, Tabulated
from .transform import (
    TimeScaling,
    control_residual,
    identity_transform,
    nmr_closed_form_transform,
    time_rescaling_equivalence,
    verify_rescaled_drive,
    verify_transform,
)
from .experiments import (
    anneal_grid,
    annealing_doubling_sweep,
    check_counterpart_phase,
    nmr_grid,
    quarter_turn_time,
    run_annealing_experiment,
    run_fast_counterpart_comparison,
    run_nmr_experiment,
    sweep_runtimes,
)

# Health gate applied to every run of a kind that declares it, independent of
# user tolerances.
UNITARITY_GATE = 1e-10


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path or "<root>"
        super().__init__(f"config field '{self.path}': {message}")


@contextmanager
def _field(path):
    """Re-raise a ValueError or OSError of the block as a ConfigError
    naming ``path``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


# ---------------------------------------------------------------------------
# Declarations: a field, a tolerance, an experiment kind


class Field(NamedTuple):
    """One config key.  ``type`` names a parser in ``_PARSERS`` or is a dict
    of fields for a sub-block; a missing or null key takes ``default``, or is
    an error when the default is ``...`` (required)."""

    type: str | dict
    default: object = ...
    choices: tuple = ()


class Tolerance(NamedTuple):
    """One ``tolerances`` key: the verdict it adds, the value that verdict
    compares (a metric key, or a function of the metrics dict), the comparison
    (``"is"`` marks a ``require_*`` flag whose ``true`` asks for a passing
    check), and the sub-block the metric needs."""

    verdict: str
    value: str | Callable[[dict], object]
    comparison: str
    needs: str | None = None


class Experiment(NamedTuple):
    description: str
    fields: dict
    tolerances: dict
    # (parsed fields, jobs) -> (metrics, curves)
    run: Callable
    # builds the parsed "problem" from the top-level fields
    problem: str | None = None
    # adds the "unitarity" verdict on max_unitarity_defect to every run
    unitarity_gate: bool = False


# ---------------------------------------------------------------------------
# Strict parsing against the declarations


def _join(path, key):
    return f"{path}.{key}" if path else key


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _parse(obj, fields, path, extra=()):
    """Check obj's keys against fields and return every field's parsed value."""
    allowed = {*fields, *extra}
    unknown = sorted(set(_require_mapping(obj, path)) - allowed)
    if unknown:
        raise ConfigError(
            _join(path, unknown[0]), f"unknown key (allowed: {', '.join(sorted(allowed))})"
        )
    return {name: _value(obj, name, path, field) for name, field in fields.items()}


def _value(obj, key, path, field):
    where = _join(path, key)
    raw = obj.get(key)
    if raw is None:
        if field.default is ...:
            raise ConfigError(where, "required field is missing")
        return field.default
    if isinstance(field.type, dict):
        return _parse(raw, field.type, where)
    value = _PARSERS[field.type](raw, where)
    if field.choices and value not in field.choices:
        raise ConfigError(where, f"expected one of {', '.join(field.choices)}, got {value!r}")
    return value


def _expect(ok, value, where, what):
    if not ok:
        raise ConfigError(where, f"expected {what}, got {value!r}")
    return value


def _number(value, where):
    _expect(type(value) in (int, float), value, where, "a number")
    with _field(where):
        return float(check_envelope(value))


def _positive_number(value, where):
    value = _number(value, where)
    return _expect(value > 0, value, where, "a positive number")


def _numbers(value, where):
    if not isinstance(value, list) or not value:
        raise ConfigError(where, "expected a non-empty list of numbers")
    return tuple(_number(v, f"{where}[{k}]") for k, v in enumerate(value))


def _couplings(value, where):
    if not isinstance(value, list):
        raise ConfigError(where, "expected a list of [i, j, J] triples")
    out = []
    for k, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"{where}[{k}]", f"expected [i, j, J], got {entry!r}")
        i, j, coupling = _numbers(entry, f"{where}[{k}]")
        for m, index in enumerate((i, j)):
            _expect(index.is_integer(), entry[m], f"{where}[{k}][{m}]", "an integral qubit index")
        out.append((int(i), int(j), coupling))
    return tuple(out)


# kind -> (constructor, parameter names); every parameter is a number except
# tabulated's sample lists.
_SCHEDULES = {
    "constant": (Constant, ("value",)),
    "linear_ramp": (LinearRamp, ("start", "stop", "duration")),
    "cosine_ramp": (CosineRamp, ("start", "stop", "duration")),
    "harmonic": (Harmonic, ("rate",)),
    "tabulated": (Tabulated, ("times", "values")),
}


def _schedule(obj, path):
    kind = _value(_require_mapping(obj, path), "kind", path, Field("string"))
    if kind not in _SCHEDULES:
        raise ConfigError(
            _join(path, "kind"),
            f"unknown schedule kind {kind!r} (one of: {', '.join(sorted(_SCHEDULES))})",
        )
    cls, names = _SCHEDULES[kind]
    param = Field("number list" if kind == "tabulated" else "number")
    args = _parse(obj, dict.fromkeys(names, param), path, extra={"kind"})
    with _field(path):
        return cls(*args.values())


def _grover_problem(p, path):
    with _field(_join(path, "n_qubits")):  # the cap, before anything is built for it
        check_qubit_count(p["n_qubits"])
    with _field(_join(path, "marked")):
        return GroverProblem(n_qubits=p["n_qubits"], marked=p["marked"])


def _ising_problem(p, path):
    with _field(_join(path, "n_qubits")):  # the cap, before anything is built for it
        check_qubit_count(p["n_qubits"])
    inline = p["fields"] is not None
    if inline == (p["problem_file"] is not None):
        raise ConfigError(
            _join(path, "fields"),
            "give exactly one of 'fields' (with optional 'couplings') or 'problem_file'",
        )
    if not inline and p["couplings"] is not None:
        raise ConfigError(
            _join(path, "couplings"), "conflicts with 'problem_file', which holds the couplings"
        )
    if not inline:
        with _field(_join(path, "problem_file")):
            return IsingProblem.from_edge_list(p["problem_file"], n_qubits=p["n_qubits"])
    with _field(_join(path, "fields")):
        IsingProblem(p["n_qubits"], p["fields"])  # the fields alone: their count, sum and span
    with _field(_join(path, "couplings")):
        return IsingProblem(p["n_qubits"], p["fields"], p["couplings"] or ())


_GROVER = {"n_qubits": Field("positive integer"), "marked": Field("integer")}
_ISING = {
    "n_qubits": Field("positive integer"),
    "fields": Field("number list", None),
    "couplings": Field("coupling list", None),
    "problem_file": Field("string", None),
}
# problem kind -> (fields, builder taking the parsed fields and their path)
_PROBLEMS = {"grover": (_GROVER, _grover_problem), "ising": (_ISING, _ising_problem)}


def _problem(obj, path):
    kind_field = Field("string", choices=tuple(_PROBLEMS))
    kind = _value(_require_mapping(obj, path), "kind", path, kind_field)
    fields, build = _PROBLEMS[kind]
    return build(_parse(obj, fields, path, extra={"kind"}), path)


_PARSERS = {
    "number": _number,
    "positive number": _positive_number,
    "integer": lambda v, where: _expect(type(v) is int, v, where, "an integer"),
    "positive integer": lambda v, where: _expect(
        type(v) is int and v >= 1, v, where, "a positive integer"
    ),
    "boolean": lambda v, where: _expect(isinstance(v, bool), v, where, "true/false"),
    "string": lambda v, where: _expect(isinstance(v, str), v, where, "a string"),
    "number list": _numbers,
    "coupling list": _couplings,
    "schedule": _schedule,
    "problem": _problem,
}


def _parse_config(cfg):
    """Check a whole config against its kind's entry in EXPERIMENTS; return
    that entry, the parsed fields and the given tolerances."""
    kind = _value(cfg, "experiment", "", Field("string", choices=tuple(EXPERIMENTS)))
    exp = EXPERIMENTS[kind]
    tolerances = {
        key: Field("boolean" if tol.comparison == "is" else "number", None)
        for key, tol in exp.tolerances.items()
    }
    fields = {**exp.fields, "tolerances": Field(tolerances, {})}
    params = _parse(cfg, fields, "", extra={"experiment"})
    tols = {key: v for key, v in params.pop("tolerances").items() if v is not None}
    for key in tols:
        needs = exp.tolerances[key].needs
        if needs and params[needs] is None:
            raise ConfigError(_join("tolerances", key), f"needs a {needs} block in the config")
    if exp.problem:
        params["problem"] = _PROBLEMS[exp.problem][1](params, "")
    return exp, params, tols


# ---------------------------------------------------------------------------
# Experiment runners (parsed fields -> metrics, curves)


def _grid(build, t_final, n_steps, prefix=""):
    """``build(t_final, n_steps)``, the grid of a run on [0, t_final], refused
    by the ``n_steps`` given, else by the ``t_final`` that sets its step
    count; ``prefix`` is their block's path."""
    with _field(prefix + ("t_final" if n_steps is None else "n_steps")):
        return build(t_final, n_steps)


def _drive_and_grid(p):
    """The drive of an nmr or verify-transform config and the grid of its
    frame change, ``t_final`` defaulting to a quarter turn of the frame."""
    params = NmrParams.harmonic(p["qubit_splitting"], p["drive_rate"], p["drive_strength"])
    with _field("t_final"):
        t_final = quarter_turn_time(params.detuning) if p["t_final"] is None else p["t_final"]
    return params, _grid(nmr_grid, t_final, p["n_steps"])


def _run_nmr(p, jobs):
    _, grid = _drive_and_grid(p)
    return run_nmr_experiment(**{key: p[key] for key in _DRIVE}, grid=grid)


def _run_annealing(p, jobs):
    problem, transverse0 = p["problem"], p["transverse0"]  # None: each run takes the problem's default
    grid = _grid(anneal_grid, p["t_final"], p["n_steps"])
    sweep = p["sweep"]
    if sweep is not None:
        # refused before any run, naming t_initial when its first point is already too long
        for field, doublings in (("t_initial", 0), ("doublings", sweep["doublings"])):
            with _field(f"sweep.{field}"):
                sweep_runtimes(sweep["t_initial"], doublings)
    fc = p["fast_counterpart"]
    if fc is not None:
        fc_grid = _grid(anneal_grid, fc["t_final"], fc["n_steps"], "fast_counterpart.")
        with _field("fast_counterpart.phase"):
            check_counterpart_phase(fc["phase"], fc_grid.t_end)
    metrics = run_annealing_experiment(problem, grid, transverse0)
    curves = {}
    if sweep is not None:
        points = annealing_doubling_sweep(
            problem, sweep["t_initial"], sweep["doublings"], transverse0=transverse0, jobs=jobs
        )
        runtimes = [pt["runtime_t"] for pt in points]
        success = [pt["success_probability"] for pt in points]
        metrics["sweep_runtimes"] = runtimes
        metrics["sweep_success"] = success
        hit = [t for t, s in zip(runtimes, success) if s >= sweep["success_threshold"]]
        metrics["sweep_threshold_runtime"] = hit[0] if hit else None
        curves["sweep_success"] = (np.asarray(runtimes), np.asarray(success))
    if fc is not None:
        metrics.update(run_fast_counterpart_comparison(problem, fc["phase"], fc_grid, transverse0))
    return metrics, curves


def _run_verify_transform(p, jobs):
    params, grid = _drive_and_grid(p)
    lab = nmr_hamiltonian(params)
    if p["pair"] == "self":
        frame, build = lab, lambda g: identity_transform(g, lab.dim)
    else:
        frame, build = rotating_frame_hamiltonian(params), lambda g: nmr_closed_form_transform(params, g)
    # the control, twice as fine, is reduced to its residual before the transform is built
    control = control_residual(lab, frame, build(grid.refined()))
    metrics, curves = verify_transform(lab, frame, build(grid), control)
    return {"pair": p["pair"], **metrics}, curves


def _run_rescale(p, jobs):
    with _field("fast_time"):
        scaling = TimeScaling(p["fast_time"], p["slow_time"])
    problem = p["problem"]
    transverse0 = default_transverse_strength(problem) if p["transverse0"] is None else p["transverse0"]
    frame_h = annealing_hamiltonian(LinearRamp(transverse0, 0.0, 1.0), problem)
    with _field("n_steps"):
        grid = TimeGrid(0.0, 1.0, p["n_steps"])
    dc = p["drive_check"]
    if dc is not None:  # closed forms only, checked before any propagation
        with _field("drive_check.n_nodes"):
            if dc["n_nodes"] < 2:
                raise ValueError(f"the drive check needs at least 2 nodes, got {dc['n_nodes']}")
            drive_grid = TimeGrid(0.0, 1.0, dc["n_nodes"] - 1)
        with _field("drive_check.drive_strength"):
            drive_max_distance = verify_rescaled_drive(dc["drive_strength"], scaling, drive_grid)
    metrics, curves = time_rescaling_equivalence(frame_h, scaling, grid, stride=max(1, grid.n_steps // 1000))
    metrics.update(time_ratio=scaling.ratio, n_steps=grid.n_steps)
    if dc is not None:
        metrics["drive_max_distance"] = drive_max_distance
    return metrics, curves


# ---------------------------------------------------------------------------
# The experiment table

_DRIVE = {
    "qubit_splitting": Field("number"),
    "drive_rate": Field("number"),
    "drive_strength": Field("positive number"),
}

_SWEEP = {
    "t_initial": Field("positive number", 1.0),
    "doublings": Field("positive integer", 6),
    "success_threshold": Field("number", 0.9),
}

_FAST_COUNTERPART = {
    "phase": Field("schedule"),
    "t_final": Field("positive number", 2.0),
    "n_steps": Field("positive integer", 100_000),
}

_ANNEALING = {
    "transverse0": Field("number", None),
    "t_final": Field("positive number", 8.0),
    "n_steps": Field("positive integer", None),
    "sweep": Field(_SWEEP, None),
    "fast_counterpart": Field(_FAST_COUNTERPART, None),
}

_ANNEALING_TOLERANCES = {
    "min_success": Tolerance("success", "success_probability", ">="),
    "min_counterpart_fidelity": Tolerance(
        "counterpart_fidelity", "counterpart_fidelity", ">=", "fast_counterpart"
    ),
}

EXPERIMENTS = {
    "nmr": Experiment(
        "driven qubit vs its rotated frame: oracle distances, frame-change residuals, ground-branch fidelity, two-gate realization",
        {**_DRIVE, "t_final": Field("positive number", None), "n_steps": Field("positive integer", None)},
        {
            "min_fidelity": Tolerance("min_fidelity", "min_fidelity", ">="),
            "max_oracle_distance": Tolerance(
                "oracle_distance",
                lambda m: max(m["oracle_distance_fast"], m["oracle_distance_slow"]),
                "<=",
            ),
            "max_closed_form_distance": Tolerance("closed_form_distance", "composed_vs_closed_form", "<="),
            "max_two_gate_deficit_composed": Tolerance(
                "two_gate_composed", lambda m: 1.0 - m["two_gate_fidelity_composed"], "<="
            ),
            "max_two_gate_deficit_closed_form": Tolerance(
                "two_gate_closed_form", lambda m: 1.0 - m["two_gate_fidelity_closed_form"], "<="
            ),
            "max_correction_gate_distance": Tolerance("correction_gate", "correction_gate_distance", "<="),
            "require_transform_model": Tolerance("transform_model", "transform_model_passed", "is"),
        },
        _run_nmr,
        unitarity_gate=True,
    ),
    "grover": Experiment(
        "transverse-field anneal into a marked-state search term, optional runtime sweep and driven counterpart",
        {**_GROVER, **_ANNEALING},
        _ANNEALING_TOLERANCES,
        _run_annealing,
        problem="grover",
    ),
    "ising": Experiment(
        "transverse-field anneal into local fields plus ZZ couplings (inline, or from a problem_file edge list), optional sweep and driven counterpart",
        {**_ISING, **_ANNEALING},
        _ANNEALING_TOLERANCES,
        _run_annealing,
        problem="ising",
    ),
    "verify-transform": Experiment(
        "check that a frame change maps one Hamiltonian onto another, with the self-calibrated residual model",
        {
            "pair": Field("string", choices=("self", "nmr")),
            **_DRIVE,
            "t_final": Field("positive number", 10.0),
            "n_steps": Field("positive integer", 10_000),
        },
        {
            "max_residual": Tolerance("max_residual", "max_residual", "<="),
            "require_model": Tolerance("model", "model_passed", "is"),
        },
        _run_verify_transform,
    ),
    "rescale": Experiment(
        "amplitude-boosted fast generator vs the slow one on the shared normalized-time grid",
        {
            "problem": Field("problem"),
            "fast_time": Field("positive number"),
            "slow_time": Field("positive number"),
            "n_steps": Field("positive integer", 10_000),
            "transverse0": Field("number", None),
            "drive_check": Field(
                {"drive_strength": Field("positive number", 2.0), "n_nodes": Field("positive integer", 1001)},
                None,
            ),
        },
        {
            "max_distance": Tolerance("max_distance", "max_distance", "<="),
            "max_drive_distance": Tolerance("drive_distance", "drive_max_distance", "<=", "drive_check"),
        },
        _run_rescale,
        unitarity_gate=True,
    ),
}

_UNITARITY = Tolerance("unitarity", "max_unitarity_defect", "<=")

_COMPARE = {"<=": operator.le, ">=": operator.ge, "is": lambda value, _: value is True}


def _verdicts(exp, tols, metrics):
    checks = [(_UNITARITY, UNITARITY_GATE)] if exp.unitarity_gate else []
    checks += [(exp.tolerances[key], threshold) for key, threshold in tols.items()]
    verdicts = {}
    for tol, threshold in checks:
        if threshold is False:  # a require_* flag set to false asks for nothing
            continue
        value = tol.value(metrics) if callable(tol.value) else metrics[tol.value]
        verdicts[tol.verdict] = {
            "value": value,
            "threshold": threshold,
            "comparison": tol.comparison,
            "passed": bool(_COMPARE[tol.comparison](value, threshold)),
        }
    return verdicts


# ---------------------------------------------------------------------------
# qxform list, rendered from the table


def _row(indent, name, text):
    return f"{indent}{name}".ljust(44) + text


def _describe(fields, indent):
    lines = []
    for name, field in fields.items():
        if field.default is ...:
            state = "required"
        elif field.default is None:
            state = "optional"
        else:
            state = f"default {field.default!r}"
        if isinstance(field.type, dict):
            lines.append(_row(indent, name, f"block, {state}"))
            lines += _describe(field.type, indent + "  ")
        elif field.type == "problem":
            lines.append(_row(indent, name, f"block, {state}; its kind picks the fields"))
            lines.append(_row(indent + "  ", "kind", f"{' or '.join(_PROBLEMS)}, required"))
            for kind, (sub, _) in _PROBLEMS.items():
                lines.append(f"{indent}  with kind {kind}:")
                lines += _describe(sub, indent + "    ")
        else:
            kind = " or ".join(field.choices) or field.type
            lines.append(_row(indent, name, f"{kind}, {state}"))
    return lines


def list_experiments() -> str:
    lines = [
        "Every number, also in lists, schedules, tolerances, --set values and problem_file",
        f"edge lists, is 0 or has a magnitude in [{ENVELOPE[0]:g}, {ENVELOPE[1]:g}].",
        "",
        "Available experiments:",
        "",
    ]
    for kind, exp in EXPERIMENTS.items():
        lines += [f"  {kind}", f"      {exp.description}"]
        lines += _describe(exp.fields, "      ")
        lines.append(_row("      ", "tolerances", "block, optional"))
        if exp.unitarity_gate:
            lines.append(_row(
                "        ", "(always)",
                f"verdict unitarity: max_unitarity_defect <= {UNITARITY_GATE:g}",
            ))
        for key, tol in exp.tolerances.items():
            if tol.comparison == "is":
                text = f"boolean; true adds verdict {tol.verdict}"
            else:
                text = f"number; verdict {tol.verdict}: value {tol.comparison} tolerance"
            if tol.needs:
                text += f"; needs {tol.needs}"
            lines.append(_row("        ", key, text))
        lines.append("")
    lines.append("Schedule kinds (fast_counterpart.phase) and their fields:")
    for kind, (_, names) in _SCHEDULES.items():
        lines.append(f"  {kind}: {', '.join(names)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run subcommand plumbing


def _json_loads(text, where, source):
    """json.loads of ``text``, refusing an object that repeats a key (json
    keeps the last one) as a ConfigError of ``where`` naming ``source``."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(where, f"{source}: duplicate key {key!r}")
            obj[key] = value
        return obj

    return json.loads(text, object_pairs_hook=unique)


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    try:
        cfg = _json_loads(text, "<file>", path)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "<file>", f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return _require_mapping(cfg, "")


def _apply_overrides(cfg, overrides):
    for item in overrides:
        if "=" not in item:
            raise ConfigError("<override>", f"expected KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        parts = key.split(".")
        if "" in parts:
            raise ConfigError("<override>", f"expected KEY=VALUE with no empty name in KEY, got {item!r}")
        try:
            value = _json_loads(raw, "<override>", repr(item))
        except json.JSONDecodeError:  # not JSON: the text itself; a repeated key stays refused
            value = raw
        node = cfg
        for depth, part in enumerate(parts[:-1]):
            if node.get(part) is None:
                node[part] = {}
            elif not isinstance(node[part], dict):
                raise ConfigError(
                    ".".join(parts[: depth + 1]),
                    f"holds {node[part]!r}, not an object, so --set {key} cannot reach inside it",
                )
            node = node[part]
        node[parts[-1]] = value
    return cfg


def _sanitize(obj):
    """A strict-JSON copy of obj: keys sorted, numpy values as Python ones,
    and non-finite floats as None (written as null)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, np.generic):  # numpy scalars become the matching Python ones
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# Rows formatted per write call of write_csv_curve: bounds the Python floats
# and strings alive at once.
_CSV_CHUNK = 4096


def write_csv_curve(path, times, values) -> None:
    """Write a two-column ``t,value`` curve with full double precision (each
    number as the repr of its float64 value)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for lo in range(0, min(len(times), len(values)), _CSV_CHUNK):
            rows = zip(times[lo : lo + _CSV_CHUNK].tolist(), values[lo : lo + _CSV_CHUNK].tolist())
            fh.write("".join([f"{t!r},{v!r}\n" for t, v in rows]))


def run_experiment(config_path, overrides=(), out_dir=".", jobs=1) -> int:
    """Check one config in full, run it, and write result.json and CSV curves
    into out_dir.  Returns the exit code."""
    try:
        cfg = _apply_overrides(_load_config(config_path), overrides)
        exp, params, tols = _parse_config(cfg)
        metrics, curves = exp.run(params, int(jobs))
        verdicts = _verdicts(exp, tols, metrics)
        passed = all(v["passed"] for v in verdicts.values())
        record = {
            "experiment": cfg["experiment"],
            "config": _sanitize(cfg),
            "version": __version__,
            "metrics": _sanitize(metrics),
            "verdicts": _sanitize(verdicts),
            "passed": passed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        os.makedirs(out_dir, exist_ok=True)
        result_path = os.path.join(out_dir, "result.json")
        with open(result_path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        for name, (ts, vs) in curves.items():
            write_csv_curve(os.path.join(out_dir, f"{name}.csv"), ts, vs)
    except (ValueError, RuntimeError, OSError) as exc:
        # ValueError covers ConfigError and LinAlgError, RuntimeError the
        # unitarity and Hermiticity gates, OSError reading and writing files.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, verdict in sorted(verdicts.items()):
        state = "pass" if verdict["passed"] else "FAIL"
        print(f"{state}  {name}: value={verdict['value']!r} {verdict['comparison']} {verdict['threshold']!r}")
    print(f"result written to {result_path}")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# argparse front end


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = _Parser(prog="qxform", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config field (dotted path, repeatable)",
    )
    run_p.add_argument("--out", default=".", help="output directory for result files")
    run_p.add_argument("--jobs", type=int, default=1, help="workers for parameter sweeps")
    sub.add_parser("list", help="list experiment kinds and their parameters")
    sub.add_parser("version", help="print the package version")

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.jobs < 1:
            print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
            return 1
        return run_experiment(args.config, args.overrides, args.out, args.jobs)
    if args.command == "list":
        print(list_experiments())
        return 0
    if args.command == "version":
        print(__version__)
        return 0
    parser.print_usage(sys.stderr)
    return 1


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull so
        # the flush at exit raises nothing either (the recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
