"""Command-line front end: declarative experiment configs in, deterministic
structured results out.

Configs are strict JSON: unknown keys are rejected, schedules are declared by
kind name plus parameters, and a result record with per-tolerance verdicts is
written as ``result.json`` next to optional CSV curves.  Exit codes: 0 all
verdicts pass, 1 usage or config error, 2 a verdict failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

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
from .schedules import Constant, CosineRamp, Harmonic, LinearRamp, NmrParams, Tabulated
from .propagation import TimeGrid
from .transform import (
    TimeScaling,
    identity_transform,
    nmr_closed_form_transform,
    time_rescaling_equivalence,
    verify_rescaled_drive,
    verify_transform,
    write_csv_curve,
)
from .experiments import (
    annealing_doubling_sweep,
    run_annealing_experiment,
    run_fast_counterpart_comparison,
    run_nmr_experiment,
)

EXPERIMENT_KINDS = ("nmr", "grover", "ising", "verify-transform", "rescale")

# Health gate applied to every run, independent of user tolerances.
UNITARITY_GATE = 1e-10


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path or "<root>"
        super().__init__(f"config field '{self.path}': {message}")


# ---------------------------------------------------------------------------
# Strict config parsing


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj, allowed, path):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path + '.' if path else ''}{unknown[0]}",
            f"unknown key (allowed: {', '.join(sorted(allowed))})",
        )


def _field(obj, key, path, kind, required=False, default=None, allow_null=False):
    if key not in obj or obj[key] is None:
        if key in obj and obj[key] is None and allow_null:
            return None
        if required:
            raise ConfigError(f"{path + '.' if path else ''}{key}", "required field is missing")
        return default
    value = obj[key]
    where = f"{path + '.' if path else ''}{key}"
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(where, f"expected a number, got {value!r}")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(where, f"expected an integer, got {value!r}")
        return int(value)
    if kind == "positive_int":
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(where, f"expected a positive integer, got {value!r}")
        return int(value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(where, f"expected true/false, got {value!r}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(where, f"expected a string, got {value!r}")
        return value
    raise AssertionError(kind)


def _number_list(obj, key, path, required=False):
    where = f"{path + '.' if path else ''}{key}"
    if key not in obj:
        if required:
            raise ConfigError(where, "required field is missing")
        return None
    value = obj[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(where, "expected a non-empty list of numbers")
    out = []
    for k, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{where}[{k}]", f"expected a number, got {v!r}")
        out.append(float(v))
    return out


_SCHEDULE_KEYS = {
    "constant": {"value"},
    "linear_ramp": {"start", "stop", "duration"},
    "cosine_ramp": {"start", "stop", "duration"},
    "harmonic": {"rate"},
    "tabulated": {"times", "values"},
}


def _schedule(obj, path):
    _require_mapping(obj, path)
    kind = _field(obj, "kind", path, "str", required=True)
    if kind not in _SCHEDULE_KEYS:
        raise ConfigError(
            f"{path}.kind",
            f"unknown schedule kind {kind!r} (one of: {', '.join(sorted(_SCHEDULE_KEYS))})",
        )
    _check_keys(obj, {"kind"} | _SCHEDULE_KEYS[kind], path)
    if kind == "constant":
        return Constant(_field(obj, "value", path, "number", required=True))
    if kind == "harmonic":
        return Harmonic(_field(obj, "rate", path, "number", required=True))
    if kind == "linear_ramp":
        return LinearRamp(
            _field(obj, "start", path, "number", required=True),
            _field(obj, "stop", path, "number", required=True),
            _field(obj, "duration", path, "number", required=True),
        )
    if kind == "cosine_ramp":
        return CosineRamp(
            _field(obj, "start", path, "number", required=True),
            _field(obj, "stop", path, "number", required=True),
            _field(obj, "duration", path, "number", required=True),
        )
    times = _number_list(obj, "times", path, required=True)
    values = _number_list(obj, "values", path, required=True)
    return Tabulated(tuple(times), tuple(values))


def _tolerances(obj, path, allowed):
    if obj is None:
        return {}
    _require_mapping(obj, path)
    _check_keys(obj, allowed, path)
    out = {}
    for key in obj:
        if key.startswith("require_"):
            out[key] = _field(obj, key, path, "bool", required=True)
        else:
            out[key] = _field(obj, key, path, "number", required=True)
    return out


def _grover_problem(cfg, path=""):
    n = _field(cfg, "n_qubits", path, "positive_int", required=True)
    marked = _field(cfg, "marked", path, "int", required=True)
    try:
        return GroverProblem(n_qubits=n, marked=marked)
    except ValueError as exc:
        raise ConfigError(f"{path + '.' if path else ''}marked", str(exc)) from None


def _ising_problem(cfg, path=""):
    n = _field(cfg, "n_qubits", path, "positive_int", required=True)
    problem_file = _field(cfg, "problem_file", path, "str")
    fields = _number_list(cfg, "fields", path)
    if (problem_file is None) == (fields is None):
        raise ConfigError(
            f"{path + '.' if path else ''}fields",
            "give exactly one of 'fields' (with optional 'couplings') or 'problem_file'",
        )
    if problem_file is not None:
        try:
            return IsingProblem.from_edge_list(problem_file, n_qubits=n)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path + '.' if path else ''}problem_file", str(exc)) from None
    couplings = []
    raw = cfg.get("couplings", [])
    where = f"{path + '.' if path else ''}couplings"
    if not isinstance(raw, list):
        raise ConfigError(where, "expected a list of [i, j, J] triples")
    for k, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or any(isinstance(x, bool) for x in entry)
            or not all(isinstance(x, (int, float)) for x in entry)
        ):
            raise ConfigError(f"{where}[{k}]", f"expected [i, j, J], got {entry!r}")
        couplings.append((int(entry[0]), int(entry[1]), float(entry[2])))
    try:
        return IsingProblem(n_qubits=n, fields=tuple(fields), couplings=tuple(couplings))
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None


# ---------------------------------------------------------------------------
# Experiment runners (config dict -> metrics, verdicts, curves)


def _verdict(value, threshold, comparison):
    if comparison == "<=":
        passed = value <= threshold
    elif comparison == ">=":
        passed = value >= threshold
    else:  # "is"
        passed = value is True
    return {
        "value": value,
        "threshold": threshold,
        "comparison": comparison,
        "passed": bool(passed),
    }


_NMR_TOLS = {
    "min_fidelity",
    "max_oracle_distance",
    "max_closed_form_distance",
    "max_two_gate_deficit_composed",
    "max_two_gate_deficit_closed_form",
    "max_correction_gate_distance",
    "require_transform_model",
}


def _run_nmr(cfg, jobs):
    _check_keys(
        cfg,
        {"experiment", "qubit_splitting", "drive_rate", "drive_strength", "t_final",
         "n_steps", "tolerances"},
        "",
    )
    report = run_nmr_experiment(
        qubit_splitting=_field(cfg, "qubit_splitting", "", "number", required=True),
        drive_rate=_field(cfg, "drive_rate", "", "number", required=True),
        drive_strength=_field(cfg, "drive_strength", "", "number", required=True),
        t_final=_field(cfg, "t_final", "", "number", allow_null=True),
        n_steps=_field(cfg, "n_steps", "", "positive_int", allow_null=True),
    )
    tr = report.transform_report
    metrics = {
        "detuning": report.detuning,
        "t_final": report.t_final,
        "n_steps": report.n_steps,
        "adiabaticity_ratio": report.fidelity_curve.adiabaticity_ratio,
        "oracle_distance_fast": report.oracle_distance_fast,
        "oracle_distance_slow": report.oracle_distance_slow,
        "composed_vs_closed_form": report.composed_vs_closed_form,
        "transform_max_residual": tr.max_residual,
        "transform_threshold": tr.threshold,
        "transform_control_max_residual": tr.control_max_residual,
        "transform_model_passed": tr.passed,
        "transform_max_antihermitian_defect": tr.max_antihermitian_defect,
        "round_trip_max_residual": report.round_trip_max_residual,
        "min_fidelity": report.min_fidelity,
        "expected_min_fidelity": report.expected_min_fidelity,
        "numeric_min_fidelity": report.numeric_min_fidelity,
        "two_gate_fidelity_composed": report.two_gate_fidelity_composed,
        "two_gate_fidelity_closed_form": report.two_gate_fidelity_closed_form,
        "correction_gate_distance": report.correction_gate_distance,
        "max_unitarity_defect": report.max_unitarity_defect,
    }
    tols = _tolerances(cfg.get("tolerances"), "tolerances", _NMR_TOLS)
    verdicts = {"unitarity": _verdict(report.max_unitarity_defect, UNITARITY_GATE, "<=")}
    if "min_fidelity" in tols:
        verdicts["min_fidelity"] = _verdict(report.min_fidelity, tols["min_fidelity"], ">=")
    if "max_oracle_distance" in tols:
        verdicts["oracle_distance"] = _verdict(
            max(report.oracle_distance_fast, report.oracle_distance_slow),
            tols["max_oracle_distance"], "<=",
        )
    if "max_closed_form_distance" in tols:
        verdicts["closed_form_distance"] = _verdict(
            report.composed_vs_closed_form, tols["max_closed_form_distance"], "<="
        )
    if "max_two_gate_deficit_composed" in tols:
        verdicts["two_gate_composed"] = _verdict(
            1.0 - report.two_gate_fidelity_composed,
            tols["max_two_gate_deficit_composed"], "<=",
        )
    if "max_two_gate_deficit_closed_form" in tols:
        verdicts["two_gate_closed_form"] = _verdict(
            1.0 - report.two_gate_fidelity_closed_form,
            tols["max_two_gate_deficit_closed_form"], "<=",
        )
    if "max_correction_gate_distance" in tols:
        verdicts["correction_gate"] = _verdict(
            report.correction_gate_distance, tols["max_correction_gate_distance"], "<="
        )
    if tols.get("require_transform_model"):
        verdicts["transform_model"] = _verdict(tr.passed, True, "is")
    curves = {
        "fidelity": (report.fidelity_curve.times, report.fidelity_curve.values),
        "residuals": (tr.times, tr.residuals),
    }
    return metrics, verdicts, curves


def _annealing_common(cfg, problem, jobs):
    result = run_annealing_experiment(
        problem,
        transverse0=_field(cfg, "transverse0", "", "number", allow_null=True),
        t_final=_field(cfg, "t_final", "", "number", default=8.0),
        n_steps=_field(cfg, "n_steps", "", "positive_int", allow_null=True),
    )
    metrics = {
        "success_probability": result.success_probability,
        "min_gap": result.min_gap,
        "runtime_t": result.runtime_t,
        "initial_minus_overlap": result.initial_minus_overlap,
        "adiabaticity_ratio": result.adiabaticity_ratio,
    }
    if result.final_fidelity_vs_marked is not None:
        metrics["final_fidelity_vs_marked"] = result.final_fidelity_vs_marked
    curves = {}
    if "sweep" in cfg and cfg["sweep"] is not None:
        sweep_cfg = _require_mapping(cfg["sweep"], "sweep")
        _check_keys(sweep_cfg, {"t_initial", "doublings", "success_threshold"}, "sweep")
        threshold = _field(sweep_cfg, "success_threshold", "sweep", "number", default=0.9)
        points = annealing_doubling_sweep(
            problem,
            t_initial=_field(sweep_cfg, "t_initial", "sweep", "number", default=1.0),
            doublings=_field(sweep_cfg, "doublings", "sweep", "positive_int", default=6),
            transverse0=_field(cfg, "transverse0", "", "number", allow_null=True),
            jobs=jobs,
        )
        metrics["sweep_runtimes"] = [p.runtime_t for p in points]
        metrics["sweep_success"] = [p.success_probability for p in points]
        hit = [p.runtime_t for p in points if p.success_probability >= threshold]
        metrics["sweep_threshold_runtime"] = hit[0] if hit else None
        curves["sweep_success"] = (
            np.asarray([p.runtime_t for p in points]),
            np.asarray([p.success_probability for p in points]),
        )
    if "fast_counterpart" in cfg and cfg["fast_counterpart"] is not None:
        fc = _require_mapping(cfg["fast_counterpart"], "fast_counterpart")
        _check_keys(fc, {"phase", "t_final", "n_steps"}, "fast_counterpart")
        if "phase" not in fc:
            raise ConfigError("fast_counterpart.phase", "required field is missing")
        fc_report = run_fast_counterpart_comparison(
            problem,
            phase=_schedule(fc["phase"], "fast_counterpart.phase"),
            transverse0=_field(cfg, "transverse0", "", "number", allow_null=True),
            t_final=_field(fc, "t_final", "fast_counterpart", "number", default=2.0),
            n_steps=_field(fc, "n_steps", "fast_counterpart", "positive_int", allow_null=True),
        )
        metrics["counterpart_fidelity"] = fc_report.equivalence_fidelity
        metrics["counterpart_two_gate_fidelity"] = fc_report.two_gate_fidelity_composed
        metrics["counterpart_transform_distance"] = fc_report.transform_distance
        metrics["counterpart_max_unitarity_defect"] = fc_report.max_unitarity_defect
    return metrics, curves


_AQC_TOLS = {"min_success", "min_counterpart_fidelity"}


def _aqc_verdicts(cfg, metrics):
    tols = _tolerances(cfg.get("tolerances"), "tolerances", _AQC_TOLS)
    verdicts = {}
    if "min_success" in tols:
        verdicts["success"] = _verdict(metrics["success_probability"], tols["min_success"], ">=")
    if "min_counterpart_fidelity" in tols:
        if "counterpart_fidelity" not in metrics:
            raise ConfigError(
                "tolerances.min_counterpart_fidelity",
                "needs a fast_counterpart block in the config",
            )
        verdicts["counterpart_fidelity"] = _verdict(
            metrics["counterpart_fidelity"], tols["min_counterpart_fidelity"], ">="
        )
    return verdicts


def _run_grover(cfg, jobs):
    _check_keys(
        cfg,
        {"experiment", "n_qubits", "marked", "transverse0", "t_final", "n_steps",
         "sweep", "fast_counterpart", "tolerances"},
        "",
    )
    problem = _grover_problem(cfg)
    metrics, curves = _annealing_common(cfg, problem, jobs)
    return metrics, _aqc_verdicts(cfg, metrics), curves


def _run_ising(cfg, jobs):
    _check_keys(
        cfg,
        {"experiment", "n_qubits", "fields", "couplings", "problem_file", "transverse0",
         "t_final", "n_steps", "sweep", "fast_counterpart", "tolerances"},
        "",
    )
    problem = _ising_problem(cfg)
    metrics, curves = _annealing_common(cfg, problem, jobs)
    return metrics, _aqc_verdicts(cfg, metrics), curves


def _run_verify_transform(cfg, jobs):
    _check_keys(
        cfg,
        {"experiment", "pair", "qubit_splitting", "drive_rate", "drive_strength",
         "t_final", "n_steps", "tolerances"},
        "",
    )
    pair = _field(cfg, "pair", "", "str", required=True)
    if pair not in ("self", "nmr"):
        raise ConfigError("pair", f"expected 'self' or 'nmr', got {pair!r}")
    p = NmrParams.harmonic(
        _field(cfg, "qubit_splitting", "", "number", required=True),
        _field(cfg, "drive_rate", "", "number", required=True),
        _field(cfg, "drive_strength", "", "number", required=True),
    )
    grid = TimeGrid(
        0.0,
        _field(cfg, "t_final", "", "number", default=10.0),
        _field(cfg, "n_steps", "", "positive_int", default=10_000),
    )
    lab = nmr_hamiltonian(p)
    if pair == "self":
        frame = lab
        transform = identity_transform(grid, lab.dim)
    else:
        frame = rotating_frame_hamiltonian(p)
        transform = nmr_closed_form_transform(p, grid)
    report = verify_transform(lab, frame, transform)
    metrics = {
        "pair": pair,
        "max_residual": report.max_residual,
        "control_max_residual": report.control_max_residual,
        "threshold": report.threshold,
        "model_passed": report.passed,
        "max_antihermitian_defect": report.max_antihermitian_defect,
        "inconsistent_transform": report.inconsistent_transform,
        "fd_step": report.fd_step,
    }
    tols = _tolerances(cfg.get("tolerances"), "tolerances", {"max_residual", "require_model"})
    verdicts = {}
    if "max_residual" in tols:
        verdicts["max_residual"] = _verdict(report.max_residual, tols["max_residual"], "<=")
    if tols.get("require_model"):
        verdicts["model"] = _verdict(report.passed, True, "is")
    return metrics, verdicts, {"residuals": (report.times, report.residuals)}


def _run_rescale(cfg, jobs):
    _check_keys(
        cfg,
        {"experiment", "problem", "fast_time", "slow_time", "n_steps", "transverse0",
         "drive_check", "tolerances"},
        "",
    )
    problem_cfg = _require_mapping(cfg.get("problem"), "problem")
    kind = _field(problem_cfg, "kind", "problem", "str", required=True)
    if kind == "grover":
        _check_keys(problem_cfg, {"kind", "n_qubits", "marked"}, "problem")
        problem = _grover_problem(problem_cfg, "problem")
    elif kind == "ising":
        _check_keys(
            problem_cfg, {"kind", "n_qubits", "fields", "couplings", "problem_file"}, "problem"
        )
        problem = _ising_problem(problem_cfg, "problem")
    else:
        raise ConfigError("problem.kind", f"expected 'grover' or 'ising', got {kind!r}")
    transverse0 = _field(cfg, "transverse0", "", "number", allow_null=True)
    if transverse0 is None:
        transverse0 = default_transverse_strength(problem)
    frame_h = annealing_hamiltonian(LinearRamp(transverse0, 0.0, 1.0), problem)
    scaling = TimeScaling(
        _field(cfg, "fast_time", "", "number", required=True),
        _field(cfg, "slow_time", "", "number", required=True),
    )
    n_steps = _field(cfg, "n_steps", "", "positive_int", default=10_000)
    stride = max(1, n_steps // 1000)
    report = time_rescaling_equivalence(frame_h, scaling, n_steps, stride=stride)
    metrics = {
        "max_distance": report.max_distance,
        "time_ratio": scaling.ratio,
        "n_steps": n_steps,
        "max_unitarity_defect": max(
            report.fast_trace.max_defect, report.slow_trace.max_defect
        ),
    }
    curves = {"distance": (report.times, report.distances)}
    if "drive_check" in cfg and cfg["drive_check"] is not None:
        dc = _require_mapping(cfg["drive_check"], "drive_check")
        _check_keys(dc, {"drive_strength", "n_nodes"}, "drive_check")
        drive = verify_rescaled_drive(
            _field(dc, "drive_strength", "drive_check", "number", default=2.0),
            scaling,
            _field(dc, "n_nodes", "drive_check", "positive_int", default=1001),
        )
        metrics["drive_max_distance"] = drive.max_distance
    tols = _tolerances(cfg.get("tolerances"), "tolerances", {"max_distance", "max_drive_distance"})
    verdicts = {
        "unitarity": _verdict(metrics["max_unitarity_defect"], UNITARITY_GATE, "<=")
    }
    if "max_distance" in tols:
        verdicts["max_distance"] = _verdict(report.max_distance, tols["max_distance"], "<=")
    if "max_drive_distance" in tols:
        if "drive_max_distance" not in metrics:
            raise ConfigError(
                "tolerances.max_drive_distance", "needs a drive_check block in the config"
            )
        verdicts["drive_distance"] = _verdict(
            metrics["drive_max_distance"], tols["max_drive_distance"], "<="
        )
    return metrics, verdicts, curves


_RUNNERS = {
    "nmr": _run_nmr,
    "grover": _run_grover,
    "ising": _run_ising,
    "verify-transform": _run_verify_transform,
    "rescale": _run_rescale,
}

_PARAM_SUMMARY = {
    "nmr": (
        "required: qubit_splitting, drive_rate, drive_strength",
        "optional: t_final, n_steps, tolerances{min_fidelity, max_oracle_distance, "
        "max_closed_form_distance, max_two_gate_deficit_composed, "
        "max_two_gate_deficit_closed_form, max_correction_gate_distance, "
        "require_transform_model}",
    ),
    "grover": (
        "required: n_qubits, marked",
        "optional: transverse0, t_final, n_steps, sweep{t_initial, doublings, "
        "success_threshold}, fast_counterpart{phase, t_final, n_steps}, "
        "tolerances{min_success, min_counterpart_fidelity}",
    ),
    "ising": (
        "required: n_qubits and fields (or problem_file)",
        "optional: couplings, transverse0, t_final, n_steps, sweep{...}, "
        "fast_counterpart{...}, tolerances{min_success, min_counterpart_fidelity}",
    ),
    "verify-transform": (
        "required: pair ('self' or 'nmr'), qubit_splitting, drive_rate, drive_strength",
        "optional: t_final, n_steps, tolerances{max_residual, require_model}",
    ),
    "rescale": (
        "required: problem{kind, ...}, fast_time, slow_time",
        "optional: n_steps, transverse0, drive_check{drive_strength, n_nodes}, "
        "tolerances{max_distance, max_drive_distance}",
    ),
}

_DESCRIPTIONS = {
    "nmr": "driven qubit vs its rotated frame: oracle distances, frame-change residuals, ground-branch fidelity, two-gate realization",
    "grover": "transverse-field anneal into a marked-state search term, optional runtime sweep and driven counterpart",
    "ising": "transverse-field anneal into local fields plus ZZ couplings, optional sweep and driven counterpart",
    "verify-transform": "check that a frame change maps one Hamiltonian onto another, with the self-calibrated residual model",
    "rescale": "amplitude-boosted fast generator vs the slow one on the shared normalized-time grid",
}


def list_experiments() -> str:
    lines = ["Available experiments:", ""]
    for kind in EXPERIMENT_KINDS:
        lines.append(f"  {kind}")
        lines.append(f"      {_DESCRIPTIONS[kind]}")
        for row in _PARAM_SUMMARY[kind]:
            lines.append(f"      {row}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run subcommand plumbing


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    try:
        cfg = json.loads(text)
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
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return cfg


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def run_experiment(config_path, overrides=(), out_dir=".", jobs=1) -> int:
    """Execute one config; write result.json and CSV curves into out_dir."""
    try:
        cfg = _apply_overrides(_load_config(config_path), overrides)
        kind = cfg.get("experiment")
        if kind not in _RUNNERS:
            raise ConfigError(
                "experiment",
                f"expected one of {', '.join(EXPERIMENT_KINDS)}, got {kind!r}",
            )
        metrics, verdicts, curves = _RUNNERS[kind](cfg, int(jobs))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passed = all(v["passed"] for v in verdicts.values()) if verdicts else True
    record = {
        "experiment": kind,
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
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, (ts, vs) in curves.items():
        write_csv_curve(os.path.join(out_dir, f"{name}.csv"), ts, vs)
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
    raise SystemExit(main())
