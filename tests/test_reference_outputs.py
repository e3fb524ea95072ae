"""The shipped configs reproduce the benchmark's reference metrics: every
verdict passes and each metric lies within the gate's relative 1e-12 of the
value captured from the program, as the benchmark checks its seed-0 runs."""

import importlib.util
import json
from pathlib import Path

import pytest

import qxform.operators as operators
from qxform.cli import main
from qxform.hamiltonians import nmr_hamiltonian, rotating_frame_hamiltonian
from qxform.propagation import TimeGrid
from qxform.schedules import NmrParams
from qxform.transform import control_residual, nmr_closed_form_transform, verify_transform

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


def test_verify_transform_returns_the_records_metrics():
    # the library's metrics are the verify-transform record's, which adds only the pair
    p = NmrParams.harmonic(1.0, 1.5, 2.0)
    lab, frame = nmr_hamiltonian(p), rotating_frame_hamiltonian(p)
    grid = TimeGrid(0.0, 1.0, 100)

    def build(g):
        return nmr_closed_form_transform(p, g)

    metrics, _ = verify_transform(lab, frame, build(grid), control_residual(lab, frame, build(grid.refined())))
    reference = json.loads((ROOT / "perfbench" / "reference" / "verify_transform.json").read_text())
    assert sorted({"pair", *metrics}) == sorted(reference)


# each shipped config at reduced step counts, small enough to run at three block budgets
REDUCED = {
    "nmr": ["n_steps=400"],
    "verify_transform": ["n_steps=400"],
    "rescale": ["n_steps=400", "drive_check.n_nodes=401"],
    "grover": ["t_final=4", "sweep.doublings=1"],
    "ising": ["t_final=2", "n_steps=200", "fast_counterpart.n_steps=400"],
}


def untimed_outputs(out):
    """The bytes of every file a run wrote, by name, with result.json's timestamp line dropped."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    lines = files["result.json"].splitlines(keepends=True)
    files["result.json"] = b"".join(line for line in lines if b'"timestamp"' not in line)
    assert len(files["result.json"]) < sum(map(len, lines))
    return files


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_outputs_do_not_depend_on_the_block_budget(tmp_path, monkeypatch, name):
    # at 2^9 elements a dim-16 block has two rows, one per member of ising's lockstep pair
    runs = {}
    for elements in (1 << 15, 1 << 11, 1 << 9):
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", elements)
        out = tmp_path / str(elements)
        overrides = [arg for key in REDUCED[name] for arg in ("--set", key)]
        code = main(["run", "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(out), *overrides])
        runs[elements] = code, untimed_outputs(out)
    (reference, *others) = runs.values()
    assert reference[0] in (0, 2)
    assert all(other == reference for other in others)
