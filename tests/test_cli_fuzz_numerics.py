"""Configs drawn from the ``EXPERIMENTS`` table and run through ``cli.main``
with the real numerics: every step and node count in [2, 64], no sweeps, and
numbers that are ordinary, zero, or log-uniform from the subnormals to 1e308,
and Ising problems given inline or as a ``problem_file`` edge list.
Every run ends in exit code 0, 1 or 2 with no traceback and no warning, and
a refusal is one stderr line that names its config field."""

import contextlib
import io
import itertools
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

import qxform.cli as cli

COUNT_FIELDS = ("n_steps", "n_nodes")
COUNT = st.integers(2, 64)
ORDINARY = st.floats(1e-3, 30.0)
# 10^e for e drawn over [-323, 308]: from the subnormals (or 0) to 1e308
EXTREME = st.builds(lambda k, f: 10.0 ** (k + f), st.integers(-323, 307), st.floats(0.0, 1.0))
POSITIVE = st.one_of(ORDINARY, EXTREME).filter(lambda v: v > 0.0)
NUMBER = st.builds(
    lambda sign, v: sign * v, st.sampled_from([1.0, -1.0]), st.one_of(ORDINARY, st.just(0.0), EXTREME)
)
# a counterpart phase is refused unless it starts at 0, so it mostly does
START = st.one_of(st.just(0.0), NUMBER)


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(sorted(cli._SCHEDULES)))
    if kind == "tabulated":
        steps = draw(st.lists(POSITIVE, min_size=3, max_size=5))
        values = draw(st.lists(NUMBER, min_size=len(steps), max_size=len(steps)))
        return {"kind": kind, "times": [0.0, *itertools.accumulate(steps)], "values": [draw(START), *values]}
    names = cli._SCHEDULES[kind][1]
    strategies = {"start": START, "value": START, "duration": POSITIVE}
    return {"kind": kind, **{name: draw(strategies.get(name, NUMBER)) for name in names}}


@st.composite
def problems(draw, kind):
    """The fields of a problem of ``kind`` that its parser accepts, but for
    the magnitudes."""
    n = draw(st.integers(1, 4))
    if kind == "grover":
        return {"n_qubits": n, "marked": draw(st.integers(0, 2**n - 1))}
    pairs = list(itertools.combinations(range(n), 2))
    coupled = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    fields = draw(st.lists(NUMBER, min_size=n, max_size=n))
    couplings = [[i, j, draw(NUMBER)] for i, j in coupled]
    if draw(st.booleans()):  # as an edge list, which run() writes out as the problem_file
        lines = [f"{i} {h!r}" for i, h in enumerate(fields)] + [f"{i} {j} {c!r}" for i, j, c in couplings]
        return {"n_qubits": n, "problem_file": "\n".join(lines) + "\n"}
    return {"n_qubits": n, "fields": fields, "couplings": couplings}


def values(name, field):
    if name in COUNT_FIELDS:
        return COUNT
    if name == "sweep":
        return st.none()
    if isinstance(field.type, dict):
        return block(field.type)
    if field.choices:
        return st.sampled_from(field.choices)
    if field.type == "problem":
        kinds = st.sampled_from(sorted(cli._PROBLEMS))
        return kinds.flatmap(lambda kind: problems(kind).map(lambda p: {"kind": kind, **p}))
    return {"number": NUMBER, "positive number": POSITIVE, "schedule": schedules()}[field.type]


def block(fields, skip=()):
    """A sub-config of ``fields``: the required fields and every step or node
    count always, the others maybe."""
    always = {name for name, f in fields.items() if f.default is ... or name in COUNT_FIELDS}
    drawn = {name: values(name, f) for name, f in fields.items() if name not in skip}
    return st.fixed_dictionaries(
        {k: v for k, v in drawn.items() if k in always}, optional={k: v for k, v in drawn.items() if k not in always}
    )


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    exp = cli.EXPERIMENTS[kind]
    problem, skip = (draw(problems(exp.problem)), cli._PROBLEMS[exp.problem][0]) if exp.problem else ({}, ())
    cfg = {"experiment": kind, **problem, **draw(block(exp.fields, skip))}
    if kind == "rescale":  # a fast time not below the slow one is refused before any numerics
        cfg["fast_time"], cfg["slow_time"] = sorted((cfg["fast_time"], cfg["slow_time"]))
    tolerances = {
        key: st.booleans() if tol.comparison == "is" else NUMBER
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


@settings(max_examples=250)
@given(cfg=configs())
def test_real_runs_exit_cleanly_and_name_their_field(cfg):
    code, err, caught = run(cfg)
    assert code in (0, 1, 2)
    assert not caught, caught
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: config field '"), err
    else:
        assert err == "", err
