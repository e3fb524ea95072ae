"""Configs fuzzed within the ``EXPERIMENTS`` table, run with every experiment
stubbed: ``qxform run`` always ends in exit code 0, 1 or 2, never in a
traceback, and whatever result it writes is strict JSON."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qxform.cli as cli
from qxform.propagation import UnitarityError

# what an override may put anywhere
JUNK = ["null", "true", '"x"', "-1", "0", "2.5", "1e999", "NaN", "[]", '[1, "a"]', "{}", '{"kind": 1}']
NUMBER = st.floats(-20.0, 20.0) | st.integers(-3, 3)
NUMBER_LIST = st.lists(NUMBER, min_size=1, max_size=4) | st.just([0.0, 0.5, 1.0, 1.5])
# values a stubbed run reports: anything a float can hold
METRIC = st.floats(allow_nan=True, allow_infinity=True)


def block(table, **fixed):
    """A sub-config of ``table``: required fields always, the others maybe."""
    required = {name: values(f) for name, f in table.items() if f.default is ...}
    optional = {name: values(f) for name, f in table.items() if f.default is not ...}
    return st.fixed_dictionaries({**required, **fixed}, optional=optional)


def schedules():
    def build(kind):
        names = cli._SCHEDULES[kind][1]
        param = NUMBER_LIST if kind == "tabulated" else NUMBER
        return st.fixed_dictionaries({"kind": st.just(kind), **dict.fromkeys(names, param)})

    return st.sampled_from(sorted(cli._SCHEDULES)).flatmap(build)


def problems():
    kinds = st.sampled_from(sorted(cli._PROBLEMS))
    return kinds.flatmap(lambda kind: block(cli._PROBLEMS[kind][0], kind=st.just(kind)))


VALUES = {
    "number": NUMBER,
    "positive number": NUMBER,
    "integer": st.integers(-1, 20),
    "positive integer": st.integers(1, 4),
    "boolean": st.booleans(),
    "string": st.text("ab", max_size=2),
    "number list": NUMBER_LIST,
    "coupling list": st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 3), NUMBER).map(list), max_size=3),
    "schedule": st.deferred(schedules),
    "problem": st.deferred(problems),
}


def values(field):
    if isinstance(field.type, dict):
        return block(field.type)
    if field.choices:
        return st.sampled_from(field.choices)
    return VALUES[field.type]


def dotted_keys(table, prefix=""):
    for name, field in table.items():
        yield prefix + name
        if isinstance(field.type, dict):
            yield from dotted_keys(field.type, f"{prefix}{name}.")


@st.composite
def configs(draw):
    """A config built from one kind's declarations, and up to two ``--set``
    overrides, which may put anything anywhere."""
    kind = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    exp = cli.EXPERIMENTS[kind]
    tolerances = {
        key: st.booleans() if tol.comparison == "is" else NUMBER for key, tol in exp.tolerances.items()
    }
    cfg = {"experiment": kind, **draw(block(exp.fields))}
    cfg["tolerances"] = draw(st.fixed_dictionaries({}, optional=tolerances))
    keys = ["bogus", *dotted_keys(exp.fields), *(f"tolerances.{key}" for key in exp.tolerances)]
    raw = st.sampled_from(["1", "-4", "1.5", *JUNK])
    overrides = draw(st.lists(st.tuples(st.sampled_from(keys), raw), max_size=2))
    return cfg, [f"{key}={value}" for key, value in overrides]


class Metrics(dict):
    """A metrics dict that hands ``default`` to every verdict computed from
    keys it does not hold."""

    def __init__(self, default):
        super().__init__()
        self.default = default

    def __missing__(self, key):
        return self.default


def stubbed_run(data, exp):
    def run(params, jobs):
        failure = data.draw(st.sampled_from([None] * 3 + [ValueError, RuntimeError, UnitarityError]))
        if failure is UnitarityError:
            raise UnitarityError("stored unitary at step 3 has unitarity defect 1e-3", 3, 1e-3)
        if failure is not None:
            raise failure("numerics rejected the input")
        checks = [*exp.tolerances.values(), cli._UNITARITY]
        metrics = Metrics(data.draw(METRIC))
        for tol in checks:
            if isinstance(tol.value, str):
                drawn = st.sampled_from([True, False, None]) if tol.comparison == "is" else METRIC
                metrics[tol.value] = data.draw(drawn)
        curve = np.array([0.0, 1.0]), np.array(data.draw(st.lists(METRIC, min_size=2, max_size=2)))
        return metrics, {"curve": curve}

    return run


def reject_constant(constant):
    raise ValueError(f"not strict JSON: {constant}")


@settings(max_examples=300)
@given(config=configs(), jobs=st.sampled_from([1, 1, 1, 2, 0]), data=st.data())
def test_fuzzed_configs_exit_cleanly(config, jobs, data):
    cfg, overrides = config
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for kind, exp in cli.EXPERIMENTS.items():
            mp.setitem(cli.EXPERIMENTS, kind, exp._replace(run=stubbed_run(data, exp)))
        mp.chdir(tmp)  # relative problem_file names resolve inside the scratch directory
        with open("cfg.json", "w") as fh:
            json.dump(cfg, fh)
        argv = ["run", "--config", "cfg.json", "--out", "out", "--jobs", str(jobs)]
        argv += [arg for item in overrides for arg in ("--set", item)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
        else:
            with open(os.path.join("out", "result.json")) as fh:
                record = json.load(fh, parse_constant=reject_constant)
            assert record["passed"] is (code == 0)
