"""Self-checks of the benchmark: span arithmetic, the speed scaling, the
tracer's coverage of qxform's import bindings, the workload generator and the
correctness gate.

    python3 -m pytest perfbench/tests -q

The two traced-run tests share one untraced and one traced ``nmr`` run,
about 25 s on a 2-core machine.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from layers import SpanSet, outermost, raw_counts, self_times  # noqa: E402
from workloads import check_result, config_text  # noqa: E402

SHIPPED = ("nmr", "ising", "verify_transform", "rescale")


def test_self_times_on_nested_tree():
    # root [0,10] holds a [1,4] > a1 [2,3] and b [5,9] > b1 [5.5,6], b2 [7,8.5]
    parent = np.array([-1, 0, 1, 0, 3, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.5, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.5])
    got = self_times(parent, end - start)
    assert got == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    assert got.sum() == pytest.approx(10.0)


def test_outermost_skips_members_nested_in_members():
    parent = np.array([-1, 0, 1, 2, 0])
    member = np.array([False, True, False, True, True])
    assert outermost(parent, member).tolist() == [False, True, False, False, True]


def test_speed_factor_uses_probe_calls_that_ended_during_the_child():
    child = run.Child(start=10.0, wall_s=2.0, setup_s=None, rss_kb=0, error=None)
    samples = [(9.5, 1.0), (10.5, 0.02), (11.0, 0.04), (12.5, 5.0)]
    assert run.speed_factor(samples, child) == pytest.approx(run.REFERENCE_S * (1 / 0.02 + 1 / 0.04) / 2)
    # no call ended inside the child: the whole run's calls
    assert run.speed_factor(samples[:1] + samples[3:], child) == pytest.approx(run.REFERENCE_S * (1 + 1 / 5) / 2)


@pytest.fixture(scope="module")
def nmr_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("nmr")
    (work / "nmr.json").write_text(config_text(run.ROOT, "nmr", 0))
    deadline = run.clock() + run.DEADLINE_S
    plain = run.run_config("nmr", 0, work, "plain", deadline)
    prefix = str(work / "spans")
    traced = run.run_config("nmr", 0, work, "traced", deadline, trace_prefix=prefix)
    assert plain.error is None and traced.error is None, (plain.error, traced.error)
    return plain, traced, raw_counts(SpanSet(prefix))


def test_traced_nmr_counts_match_the_unmodified_program(nmr_runs):
    # Counted by hand from the program's call structure; a binding the tracer
    # missed would lower one of them.
    _, _, counts = nmr_runs
    assert counts["propagation.propagate.calls"] == 4
    assert counts["operators.hermitian_expm.calls"] == 78_546
    assert counts["hamiltonians.eigensystem.calls"] == 31_418
    assert counts["hamiltonians.matrix_stack.rows"] == 251_324


def test_traced_result_equals_untraced_result(nmr_runs):
    plain, traced, _ = nmr_runs
    assert traced.record["metrics"] == plain.record["metrics"]
    assert traced.record["verdicts"] == plain.record["verdicts"]


@pytest.mark.parametrize("name", SHIPPED)
def test_seed_zero_is_the_shipped_config(name):
    assert config_text(run.ROOT, name, 0) == (run.ROOT / "configs" / f"{name}.json").read_text()


@pytest.mark.parametrize("name", ["ising", "verify_transform", "rescale"])
def test_nonzero_seed_varies_parameters_but_not_sizes(name):
    shipped = json.loads(config_text(run.ROOT, name, 0))
    varied = json.loads(config_text(run.ROOT, name, 7))
    assert config_text(run.ROOT, name, 7) == config_text(run.ROOT, name, 7)
    assert varied != shipped
    assert varied != json.loads(config_text(run.ROOT, name, 8))
    for key in ("n_qubits", "n_steps", "fast_counterpart", "tolerances", "problem"):
        assert varied.get(key) == shipped.get(key)
    if name == "rescale":
        assert varied["drive_check"]["n_nodes"] == shipped["drive_check"]["n_nodes"]


def _reference_record(name):
    metrics = json.loads((run.HERE / "reference" / f"{name}.json").read_text())
    return {"passed": True, "verdicts": {"v": {"passed": True}}, "metrics": metrics}


def test_gate_accepts_the_reference_and_rejects_drift():
    record = _reference_record("nmr")
    assert check_result("nmr", 0, record) is None
    record["metrics"]["oracle_distance_fast"] += 1e-11
    assert "oracle_distance_fast" in check_result("nmr", 0, record)
    # other seeds have no reference values, only verdicts and finiteness
    assert check_result("nmr", 3, record) is None
    record["metrics"]["min_fidelity"] = float("nan")
    assert "non-finite" in check_result("nmr", 3, record)


def test_gate_rejects_a_failed_verdict():
    record = _reference_record("rescale")
    record["verdicts"]["v"]["passed"] = False
    record["passed"] = False
    assert "verdicts failed" in check_result("rescale", 0, record)
