import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qxform
from qxform.cli import EXPERIMENTS, ConfigError, _sanitize, _schedule, list_experiments, main
from qxform.experiments import expected_min_fidelity, run_annealing_experiment
from qxform.hamiltonians import IsingProblem
from qxform.propagation import TimeGrid
from qxform.schedules import CosineRamp, Harmonic, Tabulated

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# a whole number of 401 digits, past the float range
HUGE = "1" + "0" * 400
# the refusal of a number outside the envelope, before the number itself
ENVELOPE = "expected 0 or a magnitude in [1e-100, 1e+100], got"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def small_nmr_config(**overrides):
    cfg = {
        "experiment": "nmr",
        "qubit_splitting": 1.0,
        "drive_rate": 2.0,
        "drive_strength": 25.0,
        "n_steps": 400,
        "tolerances": {
            "min_fidelity": 0.999,
            "max_closed_form_distance": 1e-8,
            "max_two_gate_deficit_composed": 1e-12,
        },
    }
    cfg.update(overrides)
    return cfg


def read_result(out_dir):
    with open(out_dir / "result.json") as fh:
        return json.load(fh)


def strip_timestamp(text):
    return re.sub(r'^\s*"timestamp": ".*",?$', "", text, flags=re.MULTILINE)


class TestRunNmr:
    def test_passes_and_writes_result(self, tmp_path):
        cfg = write_config(tmp_path, "nmr.json", small_nmr_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        record = read_result(out)
        assert record["experiment"] == "nmr"
        assert record["version"] == qxform.__version__
        assert record["passed"] is True
        assert record["metrics"]["min_fidelity"] == pytest.approx(0.99960016, abs=1e-6)
        assert record["verdicts"]["min_fidelity"]["passed"] is True
        assert record["verdicts"]["unitarity"]["passed"] is True
        assert (out / "fidelity.csv").read_text().splitlines()[0] == "t,value"
        assert (out / "residuals.csv").exists()

    def test_failing_verdict_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, "nmr.json",
            small_nmr_config(tolerances={"min_fidelity": 0.99999}),
        )
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        record = read_result(out)
        assert record["passed"] is False

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, "nmr.json", small_nmr_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        text1 = (out1 / "result.json").read_text()
        text2 = (out2 / "result.json").read_text()
        assert strip_timestamp(text1) == strip_timestamp(text2)
        assert (out1 / "fidelity.csv").read_bytes() == (out2 / "fidelity.csv").read_bytes()

    def test_override_equals_direct_edit(self, tmp_path):
        edited = write_config(tmp_path, "edited.json", small_nmr_config(drive_strength=50.0))
        base = write_config(tmp_path, "base.json", small_nmr_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", edited, "--out", str(out1)]) == 0
        assert main(
            ["run", "--config", base, "--set", "drive_strength=50.0", "--out", str(out2)]
        ) == 0
        r1, r2 = read_result(out1), read_result(out2)
        assert r1["metrics"] == r2["metrics"]

    def test_config_echo_round_trips(self, tmp_path):
        payload = small_nmr_config()
        cfg = write_config(tmp_path, "nmr.json", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        record = read_result(out)
        assert record["config"] == payload
        # parse -> serialize -> parse is the identity
        assert json.loads(json.dumps(record["config"])) == payload

    def test_non_finite_metric_is_written_as_null(self, tmp_path):
        # drive_rate = splitting: zero detuning makes the adiabaticity ratio infinite
        overrides = [
            "drive_rate=1.0", "t_final=0.5", "n_steps=1000",
            "tolerances.require_transform_model=false",
        ]
        out = tmp_path / "out"
        argv = ["run", "--config", str(CONFIGS / "nmr.json"), "--out", str(out)]
        assert main(argv + [arg for o in overrides for arg in ("--set", o)]) == 0

        def reject(constant):
            raise ValueError(f"result.json is not strict JSON: {constant}")

        with open(out / "result.json") as fh:
            record = json.load(fh, parse_constant=reject)
        assert record["metrics"]["adiabaticity_ratio"] is None


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", small_nmr_config(rate_of_drive=1.0))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "rate_of_drive" in capsys.readouterr().err

    def test_unknown_tolerance_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "bad.json", small_nmr_config(tolerances={"min_fidelityy": 0.9})
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "min_fidelityy" in capsys.readouterr().err

    def test_negative_steps_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", small_nmr_config(n_steps=-5))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "n_steps" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "experiment": "nmr",\n  oops\n}\n')
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"experiment": "teleport"})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "teleport" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path, "nmr.json", small_nmr_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--jobs" in err
        assert not out.exists()


class TestOtherExperiments:
    def test_verify_transform_self_pair(self, tmp_path):
        cfg = write_config(
            tmp_path, "vt.json",
            {
                "experiment": "verify-transform",
                "pair": "self",
                "qubit_splitting": 1.0,
                "drive_rate": 1.5,
                "drive_strength": 2.0,
                "t_final": 2.0,
                "n_steps": 200,
                "tolerances": {"max_residual": 1e-12, "require_model": True},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        record = read_result(out)
        assert record["metrics"]["max_residual"] <= 1e-12

    def test_verify_transform_nmr_pair(self, tmp_path):
        cfg = write_config(
            tmp_path, "vt.json",
            {
                "experiment": "verify-transform",
                "pair": "nmr",
                "qubit_splitting": 1.0,
                "drive_rate": 1.5,
                "drive_strength": 2.0,
                "t_final": 4.0,
                "n_steps": 2000,
                "tolerances": {"require_model": True},
            },
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_grover_run_with_sweep_and_jobs(self, tmp_path):
        payload = {
            "experiment": "grover",
            "n_qubits": 2,
            "marked": 3,
            "t_final": 16.0,
            "sweep": {"t_initial": 2.0, "doublings": 2, "success_threshold": 0.6},
            "tolerances": {"min_success": 0.9},
        }
        cfg = write_config(tmp_path, "grover.json", payload)
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
        r1, r2 = read_result(out1), read_result(out2)
        assert r1["metrics"] == r2["metrics"]
        assert (out1 / "sweep_success.csv").exists()
        # doubling sweep 2, 4, 8: the first runtime at or above 0.6 is 4
        assert r1["metrics"]["sweep_threshold_runtime"] == 4.0

    def test_ising_inline_problem(self, tmp_path):
        payload = {
            "experiment": "ising",
            "n_qubits": 2,
            "fields": [0.6, 0.6],
            "couplings": [[0, 1, -0.5]],
            "t_final": 24.0,
            "tolerances": {"min_success": 0.9},
        }
        cfg = write_config(tmp_path, "ising.json", payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_ising_problem_file(self, tmp_path):
        edge = tmp_path / "chain.txt"
        edge.write_text("0 0.6\n1 0.6\n0 1 -0.5\n")
        payload = {
            "experiment": "ising",
            "n_qubits": 2,
            "problem_file": str(edge),
            "t_final": 24.0,
            "tolerances": {"min_success": 0.9},
        }
        cfg = write_config(tmp_path, "ising.json", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0

    def test_rescale_small(self, tmp_path):
        payload = {
            "experiment": "rescale",
            "problem": {"kind": "grover", "n_qubits": 2, "marked": 3},
            "fast_time": 0.1,
            "slow_time": 10.0,
            "n_steps": 500,
            "drive_check": {"drive_strength": 2.0, "n_nodes": 101},
            "tolerances": {"max_distance": 1e-8, "max_drive_distance": 1e-8},
        }
        cfg = write_config(tmp_path, "rescale.json", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        record = read_result(out)
        assert record["metrics"]["max_distance"] <= 1e-8
        assert (out / "distance.csv").exists()


ANNEALING_KEYS = ["adiabaticity_ratio", "initial_minus_overlap", "min_gap", "runtime_t", "success_probability"]
SWEEP_KEYS = ["sweep_runtimes", "sweep_success", "sweep_threshold_runtime"]
COUNTERPART_KEYS = [
    "counterpart_fidelity", "counterpart_max_unitarity_defect",
    "counterpart_transform_distance", "counterpart_two_gate_fidelity",
]
SMALL_GROVER = {"experiment": "grover", "n_qubits": 2, "marked": 3, "t_final": 1.0, "n_steps": 400}
SMALL_ISING = {
    "experiment": "ising", "n_qubits": 2, "fields": [0.6, 0.6], "couplings": [[0, 1, -0.5]],
    "t_final": 1.0, "n_steps": 400,
}


@pytest.mark.parametrize(
    "payload, keys, verdicts",
    [
        (
            {**SMALL_GROVER, "tolerances": {"min_success": 0.0}},
            ANNEALING_KEYS + ["final_fidelity_vs_marked"],
            ["success"],
        ),
        (
            {**SMALL_GROVER, "sweep": {"t_initial": 0.5, "doublings": 1}},
            ANNEALING_KEYS + ["final_fidelity_vs_marked"] + SWEEP_KEYS,
            [],
        ),
        ({**SMALL_ISING, "tolerances": {"min_success": 0.0}}, ANNEALING_KEYS, ["success"]),
        (
            {
                **SMALL_ISING,
                "fast_counterpart": {"phase": {"kind": "harmonic", "rate": 6.0}, "t_final": 0.5, "n_steps": 500},
                "tolerances": {"min_success": 0.0, "min_counterpart_fidelity": 0.0},
            },
            ANNEALING_KEYS + COUNTERPART_KEYS,
            ["counterpart_fidelity", "success"],
        ),
        (
            {
                "experiment": "rescale", "problem": {"kind": "grover", "n_qubits": 2, "marked": 3},
                "fast_time": 0.1, "slow_time": 10.0, "n_steps": 200,
            },
            ["max_distance", "max_unitarity_defect", "n_steps", "time_ratio"],
            ["unitarity"],
        ),
    ],
    ids=["grover", "grover-sweep", "ising", "ising-fast-counterpart", "rescale-without-drive-check"],
)
def test_metric_keys_and_verdict_names_are_pinned(tmp_path, payload, keys, verdicts):
    # the kinds and blocks no benchmark reference pins
    cfg = write_config(tmp_path, "run.json", payload)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    record = read_result(out)
    assert sorted(record["metrics"]) == sorted(keys)
    assert sorted(record["verdicts"]) == sorted(verdicts)


class TestScheduleDeclarations:
    def test_harmonic(self):
        sched = _schedule({"kind": "harmonic", "rate": 2.5}, "phase")
        assert isinstance(sched, Harmonic)
        assert sched.rate == 2.5

    def test_cosine_ramp(self):
        sched = _schedule(
            {"kind": "cosine_ramp", "start": 2.0, "stop": 0.0, "duration": 4.0}, "g"
        )
        assert isinstance(sched, CosineRamp)
        assert sched.value(0.0) == 2.0

    def test_tabulated(self):
        sched = _schedule(
            {"kind": "tabulated", "times": [0.0, 0.5, 1.0, 1.5], "values": [0, 1, 0, -1]},
            "phase",
        )
        assert isinstance(sched, Tabulated)
        assert sched.t_max == 1.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown schedule kind"):
            _schedule({"kind": "spline"}, "phase")

    def test_extra_key_rejected(self):
        with pytest.raises(ConfigError, match="stop"):
            _schedule({"kind": "harmonic", "rate": 1.0, "stop": 2.0}, "phase")

    def test_non_number_sample_rejected(self):
        with pytest.raises(ConfigError, match=r"times\[1\]"):
            _schedule(
                {"kind": "tabulated", "times": [0.0, "x", 1.0, 1.5], "values": [0, 1, 0, 1]},
                "phase",
            )


class TestUsage:
    def test_list_names_all_kinds(self, capsys):
        assert main(["list"]) == 0
        text = capsys.readouterr().out
        for kind in ("nmr", "grover", "ising", "verify-transform", "rescale"):
            assert kind in text
        assert list_experiments() in text

    def test_list_states_the_envelope_once(self):
        assert list_experiments().count("is 0 or has a magnitude in [1e-100, 1e+100]") == 1

    def test_list_gives_the_counterpart_step_default(self):
        # a fast_counterpart block without n_steps takes 100,000 steps
        text = list_experiments()
        assert len(re.findall(r"^ {8}n_steps +positive integer, default 100000$", text, re.M)) == 2

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert qxform.__version__ in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["teleport"])
        assert exc.value.code == 1

    def test_run_requires_config_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 1


def run_python(*args, cwd, stdout=subprocess.PIPE):
    """Run a fresh interpreter that imports this checkout's qxform."""
    env = dict(os.environ)
    src = str(Path(qxform.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )


class TestModuleEntryPoint:
    """``python -m qxform.cli`` runs the same command line as ``qxform``."""

    def _run(self, *args, cwd):
        return run_python("-m", "qxform.cli", *args, cwd=cwd)

    def test_list_prints_every_kind(self, tmp_path):
        done = self._run("list", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        for kind in EXPERIMENTS:
            assert kind in done.stdout

    def test_import_loads_no_dataclasses(self, tmp_path):
        # dataclasses wrote and exec'd the methods of 19 classes at every launch
        done = run_python("-c", "import sys, qxform.cli; print('dataclasses' in sys.modules)", cwd=tmp_path)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_bad_run_exits_1(self, tmp_path):
        done = self._run("run", "--config", str(tmp_path / "missing.json"), cwd=tmp_path)
        assert done.returncode == 1
        assert "missing.json" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("command", ["list", "version"])
    def test_closed_stdout_exits_1_quietly(self, tmp_path, monkeypatch, command, unbuffered):
        # as in `qxform list | head -1`, but with the reader gone before the
        # first line, so the write fails every time: unbuffered in print,
        # buffered in the flush at exit
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_python("-m", "qxform.cli", command, cwd=tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""


    @pytest.mark.parametrize(
        "config, overrides, message",
        [
            ("grover.json", ["sweep.t_initial=1e300"], f"config field 'sweep.t_initial': {ENVELOPE} 1e+300"),
            (
                "grover.json", ["sweep.t_initial=1e100"],
                "config field 'sweep.t_initial': a grid of 2e+102 steps exceeds the limit",
            ),
            ("grover.json", ["sweep.doublings=1100"], "config field 'sweep.doublings': a grid of inf steps"),
            ("grover.json", ["sweep.doublings=40"], "config field 'sweep.doublings': a grid of 2.19902e+14 steps"),
            ("nmr.json", ["n_steps=1"], "config field 'n_steps': a frame change needs at least 2 steps"),
            ("verify_transform.json", ["n_steps=1"], "config field 'n_steps': a frame change needs at least 2 steps"),
            ("grover.json", ["t_final=1e307"], f"config field 't_final': {ENVELOPE} 1e+307"),
            ("grover.json", ["t_final=1e100"], "config field 't_final': a grid of 2e+102 steps exceeds the limit"),
            ("ising.json", ["t_final=1e307"], f"config field 't_final': {ENVELOPE} 1e+307"),
            ("ising.json", ["t_final=1e100"], "config field 't_final': a grid of 2e+102 steps exceeds the limit"),
            ("nmr.json", ["t_final=1e307", "n_steps=null"], f"config field 't_final': {ENVELOPE} 1e+307"),
            ("nmr.json", ["t_final=1e100", "n_steps=null"], "config field 't_final': a grid of 1e+103 steps exceeds the limit"),
            # with the shipped step count the closed-form phases once left the float range
            ("nmr.json", ["t_final=1e307"], f"config field 't_final': {ENVELOPE} 1e+307"),
            ("rescale.json", ["n_steps=1000000000000"], "config field 'n_steps': a grid of 1e+12 steps exceeds the limit"),
            # the drive check's nodes, for which np.linspace asked 7.28 TiB
            (
                "rescale.json", ["drive_check.n_nodes=1000000000000"],
                "config field 'drive_check.n_nodes': a grid of 1e+12 steps exceeds the limit",
            ),
            # a count no float holds
            ("nmr.json", [f"n_steps={HUGE}"], "config field 'n_steps': a grid of more than 1.79769e+308 steps"),
            ("rescale.json", [f"n_steps={HUGE}"], "config field 'n_steps': a grid of more than 1.79769e+308 steps"),
            ("ising.json", [f"n_steps={HUGE}"], "config field 'n_steps': a grid of more than 1.79769e+308 steps"),
            (
                "ising.json", [f"fast_counterpart.n_steps={HUGE}"],
                "config field 'fast_counterpart.n_steps': a grid of more than 1.79769e+308 steps",
            ),
            ("rescale.json", ["fast_time=20"], "config field 'fast_time'"),
            # a boost once past the float range, in the time ratio or in the Hamiltonian it scales
            ("rescale.json", ["fast_time=1e-320"], f"config field 'fast_time': {ENVELOPE} 1e-320"),
            ("rescale.json", ["slow_time=1e308"], f"config field 'slow_time': {ENVELOPE} 1e+308"),
            ("rescale.json", ["transverse0=1.7e308"], f"config field 'transverse0': {ENVELOPE} 1.7e+308"),
            # a finite frame Hamiltonian once carried past the float range by the time scale
            (
                "rescale.json",
                ["drive_check=null", "tolerances.max_drive_distance=null", "slow_time=1.7e308", "fast_time=1e308"],
                f"config field 'fast_time': {ENVELOPE} 1e+308",
            ),
            # the default quarter turn pi/(2|d|) once underflowed, or has no value
            ("nmr.json", ["qubit_splitting=1e308"], f"config field 'qubit_splitting': {ENVELOPE} 1e+308"),
            ("nmr.json", ["drive_rate=1.0"], "config field 't_final': t_final must be given"),
            # a step below the smallest normal float, or too many steps to store
            ("nmr.json", ["t_final=1e-310", "n_steps=16"], f"config field 't_final': {ENVELOPE} 1e-310"),
            ("nmr.json", ["t_final=1e-310", "n_steps=null"], f"config field 't_final': {ENVELOPE} 1e-310"),
            ("verify_transform.json", ["t_final=1e-310", "n_steps=16"], f"config field 't_final': {ENVELOPE} 1e-310"),
            # the control doubles the steps, and so once halved the configured step below the normal floats
            ("nmr.json", ["t_final=3.6e-307", "n_steps=16"], f"config field 't_final': {ENVELOPE} 3.6e-307"),
            ("verify_transform.json", ["t_final=3.6e-307", "n_steps=16"], f"config field 't_final': {ENVELOPE} 3.6e-307"),
            (
                "nmr.json", ["n_steps=60000000"],
                "config field 'n_steps': storing 120000001 unitaries of dimension 2 needs ~7.2 GiB; take fewer steps",
            ),
            (
                "verify_transform.json", ["n_steps=60000000"],
                "config field 'n_steps': storing 120000001 unitaries of dimension 2 needs ~7.2 GiB; take fewer steps",
            ),
            # a closed-form drive generator or a problem diagonal once past the float range
            ("nmr.json", ["drive_strength=1e308"], f"config field 'drive_strength': {ENVELOPE} 1e+308"),
            (
                "rescale.json", ["drive_check.drive_strength=1e308"],
                f"config field 'drive_check.drive_strength': {ENVELOPE} 1e+308",
            ),
            ("nmr.json", ["t_final=-1"], "config field 't_final': expected a positive number, got -1.0"),
            (
                "ising.json",
                ["fields=[1e308,1e308,1e308,1e308]", "fast_counterpart=null", "tolerances.min_counterpart_fidelity=null"],
                f"config field 'fields[0]': {ENVELOPE} 1e+308",
            ),
            # the same with the shipped fast counterpart left in
            ("ising.json", ["fields=[1e308,1e308,1e308,1e308]"], f"config field 'fields[0]': {ENVELOPE} 1e+308"),
            (
                "ising.json", ["fields=[1e308,1e308,1e308,1e308]", "transverse0=1"],
                f"config field 'fields[0]': {ENVELOPE} 1e+308",
            ),
            (
                "ising.json",
                [
                    "fields=[1e308,1e308,1e308,1e308]", "fast_counterpart=null",
                    "tolerances.min_counterpart_fidelity=null", "transverse0=1",
                ],
                f"config field 'fields[0]': {ENVELOPE} 1e+308",
            ),
            # a span once past the float range, before the default transverse0 overflowed
            ("ising.json", ["fields=[1e308,0,0,0]"], f"config field 'fields[0]': {ENVELOPE} 1e+308"),
            # a finite diagonal whose energies spanned past the float range
            (
                "ising.json",
                [
                    "fields=[1e308,0,0,0]", "transverse0=1", "fast_counterpart=null",
                    "tolerances.min_counterpart_fidelity=null",
                ],
                f"config field 'fields[0]': {ENVELOPE} 1e+308",
            ),
            ("ising.json", ["fields=[1e308,0,0,0]", "transverse0=1"], f"config field 'fields[0]': {ENVELOPE} 1e+308"),
            (
                "ising.json",
                [
                    "fields=[0,0,0,0]", "couplings=[[0,1,1e308]]", "transverse0=1", "fast_counterpart=null",
                    "tolerances.min_counterpart_fidelity=null",
                ],
                f"config field 'couplings[0][2]': {ENVELOPE} 1e+308",
            ),
            # the control's 2 n_steps + 1 unitaries would not fit the trace bound
            (
                "nmr.json", ["n_steps=17000000"],
                "config field 'n_steps': storing 34000001 unitaries of dimension 2 needs ~2.0 GiB",
            ),
            (
                "verify_transform.json", ["n_steps=17000000"],
                "config field 'n_steps': storing 34000001 unitaries of dimension 2 needs ~2.0 GiB",
            ),
            (
                "nmr.json", ["t_final=20000", "n_steps=null"],
                "config field 't_final': storing 40000001 unitaries of dimension 2 needs ~2.4 GiB",
            ),
            # an ising problem's field is named inside the rescale problem block
            (
                "rescale.json", ['problem={"kind":"ising","n_qubits":1,"fields":[1e308]}', "transverse0=1"],
                f"config field 'problem.fields[0]': {ENVELOPE} 1e+308",
            ),
            # a given transverse0 far below the problem energies that once overflowed
            (
                "rescale.json", ['problem={"kind":"ising","n_qubits":1,"fields":[5e307]}', "transverse0=1"],
                f"config field 'problem.fields[0]': {ENVELOPE} 5e+307",
            ),
            ("nmr.json", ["n_steps=1000000000"], "config field 'n_steps': a grid of 1e+09 steps exceeds"),
            (
                "verify_transform.json", ["n_steps=1000000000"],
                "config field 'n_steps': a grid of 1e+09 steps exceeds",
            ),
            # the counterpart's phase, refused on its own grid before the main anneal runs
            (
                "ising.json", ["n_steps=1000000", 'fast_counterpart.phase={"kind": "constant", "value": 1.0}'],
                "error: config field 'fast_counterpart.phase': frame phase must vanish at t=0",
            ),
            (
                "ising.json",
                [
                    "n_steps=1000000",
                    'fast_counterpart.phase={"kind": "linear_ramp", "start": 0.0, "stop": 3.0, "duration": 1.0}',
                ],
                "error: config field 'fast_counterpart.phase': time 2.0 outside schedule domain [0, 1.0]",
            ),
            (
                "ising.json", ["n_steps=1000000", 'fast_counterpart.phase={"kind": "harmonic", "rate": 1e308}'],
                f"error: config field 'fast_counterpart.phase.rate': {ENVELOPE} 1e+308",
            ),
            # g T and g T / T' once underflowed to 0, though the given strength is positive
            (
                "rescale.json",
                ["fast_time=1e-300", "slow_time=1e-299", "drive_check.drive_strength=1e-100"],
                f"config field 'fast_time': {ENVELOPE} 1e-300",
            ),
        ],
    )
    def test_out_of_range_run_exits_1_within_seconds(self, tmp_path, config, overrides, message):
        sets = [arg for item in overrides for arg in ("--set", item)]
        start = time.monotonic()
        done = self._run(
            "run", "--config", str(CONFIGS / config), *sets, "--out", str(tmp_path / "out"),
            cwd=tmp_path,
        )
        assert time.monotonic() - start < 10
        assert done.returncode == 1
        assert done.stderr.count("\n") == 1 and message in done.stderr, done.stderr
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "config, override, prefix",
        [
            ("verify_transform.json", "qubit_splitting=1e300", ""),
            ("verify_transform.json", "drive_strength=1e300", ""),
            ("nmr.json", "drive_strength=1e300", "transform_"),
            ("verify_transform.json", "qubit_splitting=1e100", ""),
            ("verify_transform.json", "drive_strength=1e100", ""),
            ("nmr.json", "drive_strength=1e100", "transform_"),
        ],
    )
    def test_non_finite_residuals_fail_the_model_quietly(self, tmp_path, config, override, prefix):
        # residuals that overflowed at 1e300 are out of reach: that input is
        # refused, and the envelope's end gives finite residuals that fail the model
        out = tmp_path / "out"
        done = self._run(
            "run", "--config", str(CONFIGS / config), "--set", override, "--out", str(out), cwd=tmp_path,
        )
        field, value = override.split("=")
        if float(value) > 1e100:
            assert done.returncode == 1
            assert done.stderr == f"error: config field '{field}': {ENVELOPE} {float(value)!r}\n"
            return
        assert done.returncode == 2, done.stderr
        assert done.stderr == ""  # no overflow warning
        metrics = read_result(out)["metrics"]
        assert metrics[f"{prefix}model_passed"] is False
        assert isinstance(metrics[f"{prefix}max_residual"], float)  # finite, so not written as null


    @pytest.mark.parametrize(
        "payload, field, formula, value",
        [
            # min_gap^2 T past the float range, written as null
            (
                {
                    "experiment": "ising", "n_qubits": 1, "fields": [5.2378363905399135e230], "couplings": [],
                    "t_final": 3.0, "n_steps": 4,
                },
                "fields[0]",
                lambda: run_annealing_experiment(IsingProblem(1, (5.2378363905399135e230,)), TimeGrid(0.0, 3.0, 4))[
                    "adiabaticity_ratio"
                ],
                None,
            ),
            # 4 g^2 + d^2 underflows to 0: the ratio 4 g^2 / (4 g^2 + d^2) is read at scale
            (
                {
                    "experiment": "nmr", "qubit_splitting": 0.0, "drive_rate": 9.1040982351965e-308,
                    "drive_strength": 6.8899391480219e-310, "n_steps": 27,
                },
                "drive_rate",
                lambda: expected_min_fidelity(6.8899391480219e-310, 9.1040982351965e-308),
                pytest.approx(2.2904320376e-4, rel=1e-9),
            ),
        ],
        ids=["adiabaticity_ratio", "expected_min_fidelity"],
    )
    def test_metric_formulas_past_the_float_range_run_quietly(self, tmp_path, payload, field, formula, value):
        # the CLI refuses these numbers, outside the envelope, naming the field;
        # the library formulas still give the metric as result.json would write it
        out = tmp_path / "out"
        config = write_config(tmp_path, "extreme.json", payload)
        done = self._run("run", "--config", config, "--out", str(out), cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: config field '{field}': {ENVELOPE} ") and done.stderr.count("\n") == 1
        assert _sanitize(formula()) == value


class TestImportFootprint:
    """scipy and the sweep's thread pool are imported only by the runs that use them."""

    def test_shipped_run_loads_no_scipy_or_process_pool(self, tmp_path):
        script = (
            "import sys\n"
            "from qxform.cli import main\n"
            f"code = main(['run', '--config', {str(CONFIGS / 'verify_transform.json')!r},"
            f" '--out', {str(tmp_path / 'out')!r}])\n"
            "print(code, sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'concurrent')))\n"
        )
        done = run_python("-c", script, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_tabulated_phase_matches_harmonic(self, tmp_path):
        # samples of rate * t: the not-a-knot spline through them is that line
        rate = 8.0
        times = [0.0, 0.5, 1.0, 1.5, 2.0]
        phases = {
            "harmonic": {"kind": "harmonic", "rate": rate},
            "tabulated": {"kind": "tabulated", "times": times, "values": [rate * t for t in times]},
        }
        metrics = {}
        for name, phase in phases.items():
            payload = {
                "experiment": "grover",
                "n_qubits": 2,
                "marked": 3,
                "t_final": 16.0,
                "fast_counterpart": {"phase": phase, "t_final": 2.0, "n_steps": 4000},
                "tolerances": {"min_counterpart_fidelity": 0.999999},
            }
            cfg = write_config(tmp_path, f"{name}.json", payload)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            metrics[name] = read_result(tmp_path / name)["metrics"]
        assert metrics["tabulated"].keys() == metrics["harmonic"].keys()
        for key, value in metrics["harmonic"].items():
            assert metrics["tabulated"][key] == pytest.approx(value, rel=1e-9, abs=1e-12), key
