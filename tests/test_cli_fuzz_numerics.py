"""Configs drawn from the ``EXPERIMENTS`` table and run through ``cli.main``
with the real numerics: every step and node count in [2, 64], no sweeps, and
numbers that are ordinary, zero, or log-uniform over a range of magnitudes,
and Ising problems given inline or as a ``problem_file`` edge list.
Every run ends in exit code 0, 1 or 2 with no traceback and no warning, and
a refusal is one stderr line that names its config field.  The magnitudes
span either the whole float range, from the subnormals to 1e308, or the
envelope, 1e-100 to 1e100, inside which no refusal is about the float range.
The envelope's corners run to a verdict."""

import contextlib
import io
import itertools
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qxform.cli as cli
from qxform.operators import ENVELOPE

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COUNT_FIELDS = ("n_steps", "n_nodes")
COUNT = st.integers(2, 64)
ORDINARY = st.floats(1e-3, 30.0)
# 10^e for e drawn over [-323, 308]: from the subnormals (or 0) to 1e308
FULL = st.builds(lambda k, f: 10.0 ** (k + f), st.integers(-323, 307), st.floats(0.0, 1.0))
# 10^e for e drawn over [-100, 100], clamped to the envelope, and its two ends
INSIDE = st.one_of(
    st.sampled_from(ENVELOPE),
    st.builds(lambda k, f: min(max(10.0 ** (k + f), ENVELOPE[0]), ENVELOPE[1]), st.integers(-100, 99), st.floats(0.0, 1.0)),
)
# what an exit 1 says when it is about the float range, or refuses a number outside the envelope
FLOAT_RANGE = re.compile(r"float range|overflow|not finite|\bnan\b|\binf\b|expected 0 or a magnitude")


class Numbers(NamedTuple):
    """The number strategies of one range of magnitudes."""

    positive: st.SearchStrategy
    number: st.SearchStrategy
    # a counterpart phase is refused unless it starts at 0, so it mostly does
    start: st.SearchStrategy


def numbers(extreme):
    number = st.builds(
        lambda sign, v: sign * v, st.sampled_from([1.0, -1.0]), st.one_of(ORDINARY, st.just(0.0), extreme)
    )
    return Numbers(st.one_of(ORDINARY, extreme).filter(lambda v: v > 0.0), number, st.one_of(st.just(0.0), number))


@st.composite
def schedules(draw, nums):
    kind = draw(st.sampled_from(sorted(cli._SCHEDULES)))
    if kind == "tabulated":
        steps = draw(st.lists(nums.positive, min_size=3, max_size=5))
        values = draw(st.lists(nums.number, min_size=len(steps), max_size=len(steps)))
        return {"kind": kind, "times": [0.0, *itertools.accumulate(steps)], "values": [draw(nums.start), *values]}
    names = cli._SCHEDULES[kind][1]
    strategies = {"start": nums.start, "value": nums.start, "duration": nums.positive}
    return {"kind": kind, **{name: draw(strategies.get(name, nums.number)) for name in names}}


@st.composite
def problems(draw, kind, nums):
    """The fields of a problem of ``kind`` that its parser accepts, but for
    the magnitudes."""
    n = draw(st.integers(1, 4))
    if kind == "grover":
        return {"n_qubits": n, "marked": draw(st.integers(0, 2**n - 1))}
    pairs = list(itertools.combinations(range(n), 2))
    coupled = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    fields = draw(st.lists(nums.number, min_size=n, max_size=n))
    couplings = [[i, j, draw(nums.number)] for i, j in coupled]
    if draw(st.booleans()):  # as an edge list, which run() writes out as the problem_file
        lines = [f"{i} {h!r}" for i, h in enumerate(fields)] + [f"{i} {j} {c!r}" for i, j, c in couplings]
        return {"n_qubits": n, "problem_file": "\n".join(lines) + "\n"}
    return {"n_qubits": n, "fields": fields, "couplings": couplings}


def values(name, field, nums):
    if name in COUNT_FIELDS:
        return COUNT
    if name == "sweep":
        return st.none()
    if isinstance(field.type, dict):
        return block(field.type, nums)
    if field.choices:
        return st.sampled_from(field.choices)
    if field.type == "problem":
        kinds = st.sampled_from(sorted(cli._PROBLEMS))
        return kinds.flatmap(lambda kind: problems(kind, nums).map(lambda p: {"kind": kind, **p}))
    return {"number": nums.number, "positive number": nums.positive, "schedule": schedules(nums)}[field.type]


def block(fields, nums, skip=()):
    """A sub-config of ``fields``: the required fields and every step or node
    count always, the others maybe."""
    always = {name for name, f in fields.items() if f.default is ... or name in COUNT_FIELDS}
    drawn = {name: values(name, f, nums) for name, f in fields.items() if name not in skip}
    return st.fixed_dictionaries(
        {k: v for k, v in drawn.items() if k in always}, optional={k: v for k, v in drawn.items() if k not in always}
    )


@st.composite
def configs(draw, nums):
    kind = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    exp = cli.EXPERIMENTS[kind]
    problem, skip = (draw(problems(exp.problem, nums)), cli._PROBLEMS[exp.problem][0]) if exp.problem else ({}, ())
    cfg = {"experiment": kind, **problem, **draw(block(exp.fields, nums, skip))}
    if kind == "rescale":  # a fast time not below the slow one is refused before any numerics
        cfg["fast_time"], cfg["slow_time"] = sorted((cfg["fast_time"], cfg["slow_time"]))
    tolerances = {
        key: st.booleans() if tol.comparison == "is" else nums.number
        for key, tol in exp.tolerances.items()
        if tol.needs is None or cfg.get(tol.needs) is not None
    }
    cfg["tolerances"] = draw(st.fixed_dictionaries({}, optional=tolerances))
    return cfg


def write_problem_file(tmp, problem):
    """``problem`` with the edge list its ``problem_file`` holds written into
    ``tmp``, and the file's path in its place."""
    if "problem_file" not in problem:
        return problem
    path = os.path.join(tmp, "problem.txt")
    with open(path, "w") as fh:
        fh.write(problem["problem_file"])
    return {**problem, "problem_file": path}


def run(cfg):
    """Exit code, stderr and warnings of ``qxform run`` on ``cfg``, whose
    problem may be given as the text of its edge list."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(cfg.get("problem"), dict):
            cfg = {**cfg, "problem": write_problem_file(tmp, cfg["problem"])}
        cfg = write_problem_file(tmp, cfg)
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
    return code, err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


def exits_cleanly(code, err, caught):
    assert code in (0, 1, 2)
    assert not caught, caught
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: config field '"), err
    else:
        assert err == "", err


@pytest.mark.parametrize("extreme", [FULL, INSIDE], ids=["full-range", "envelope"])
@settings(max_examples=250)
@given(data=st.data())
def test_real_runs_exit_cleanly_and_name_their_field(extreme, data):
    cfg = data.draw(configs(numbers(extreme)))
    code, err, caught = run(cfg)
    exits_cleanly(code, err, caught)
    if extreme is INSIDE and code == 1:
        # a tabulated phase aside: its spline's divided differences can still
        # overflow, and its times, sums of drawn steps, can leave the envelope
        phase = (cfg.get("fast_counterpart") or {}).get("phase") or {}
        if not (phase.get("kind") == "tabulated" and err.startswith("error: config field 'fast_counterpart.phase")):
            assert not FLOAT_RANGE.search(err), err


def shipped(name, **changes):
    with open(CONFIGS / f"{name}.json") as fh:
        return {**json.load(fh), **changes}


ALL_1E100 = {
    "kind": "ising", "n_qubits": 4, "fields": [1e100] * 4,
    "couplings": [[i, j, 1e100] for i, j in itertools.combinations(range(4), 2)],
}
# the smallest detuning of two envelope numbers, 2^-385: its quarter turn is about 1.2e116
SLOW_DRIVE = {"qubit_splitting": 1e-100, "drive_rate": 1.0000000000000002e-100, "drive_strength": 1e100}


@pytest.mark.parametrize(
    "cfg",
    [
        shipped("nmr", **SLOW_DRIVE, n_steps=64),
        shipped("verify_transform", **SLOW_DRIVE, t_final=None, n_steps=64),
        shipped(
            "ising", fields=[1e100, -1e100, 1e100, -1e100], couplings=[[0, 1, 1e100], [1, 2, -1e100], [2, 3, 1e100]],
            transverse0=1e100, n_steps=64,
            fast_counterpart={"phase": {"kind": "harmonic", "rate": 1e100}, "t_final": 1e100, "n_steps": 64},
        ),
        shipped(
            "ising", n_steps=64,
            fast_counterpart={
                "phase": {"kind": "linear_ramp", "start": 0.0, "stop": -1e100, "duration": 1e-100},
                "t_final": 1e-100, "n_steps": 64,
            },
        ),
        shipped(
            "rescale", fast_time=1e-100, slow_time=1e100, problem=ALL_1E100, n_steps=64,
            drive_check={"drive_strength": 1e100, "n_nodes": 65},
        ),
    ],
    ids=["nmr-slow-drive", "verify-slow-drive", "ising-1e100", "ising-steep-ramp", "rescale-1e100"],
)
def test_envelope_corners_run_to_a_verdict(cfg):
    code, err, caught = run(cfg)
    assert code in (0, 2) and err == "", err
    assert not caught, caught
