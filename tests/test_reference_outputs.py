"""The shipped configs reproduce the benchmark's reference metrics: every
verdict passes and each metric lies within the gate's relative 1e-12 of the
value captured from the program, as the benchmark checks its seed-0 runs."""

import importlib.util
import json
from pathlib import Path

import pytest

from qxform.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def check_result():
    # loaded from its path: perfbench is a directory of scripts, not a package
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.check_result


@pytest.mark.parametrize("name", ["nmr", "verify_transform", "rescale"])
def test_shipped_config_matches_the_reference(tmp_path, check_result, name):
    out = tmp_path / name
    assert main(["run", "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)]) == 0
    record = json.loads((out / "result.json").read_text())
    assert check_result(name, 0, record) is None
