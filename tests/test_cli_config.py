"""Config checking in ``qxform run``: every bad config exits 1 with one stderr
line naming the field, before any experiment function runs; errors raised
while running or writing never escape as tracebacks."""

import json
import warnings
from pathlib import Path

import pytest

import qxform.cli as cli
import qxform.experiments as experiments
from qxform.cli import main
from qxform.propagation import TimeGrid, UnitarityError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the refusal of a number outside the envelope, before the number itself
ENVELOPE = "expected 0 or a magnitude in [1e-100, 1e+100], got"

# The first call each runner makes into the numerics.
EXPERIMENT_FUNCTIONS = (
    "run_nmr_experiment",
    "run_annealing_experiment",
    "nmr_closed_form_transform",
    "identity_transform",
    "verify_transform",
    "time_rescaling_equivalence",
)


class Reached(Exception):
    """Raised by a stubbed experiment function: the config was accepted."""


@pytest.fixture
def no_numerics(monkeypatch):
    """Stub every experiment function so that reaching one raises Reached."""

    def reached(*args, **kwargs):
        raise Reached

    for name in EXPERIMENT_FUNCTIONS:
        monkeypatch.setattr(cli, name, reached)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def nmr_config(**overrides):
    cfg = {
        "experiment": "nmr",
        "qubit_splitting": 1.0,
        "drive_rate": 2.0,
        "drive_strength": 25.0,
        "n_steps": 400,
        "tolerances": {"min_fidelity": 0.999},
    }
    cfg.update(overrides)
    return cfg


def ising_config(**overrides):
    cfg = {
        "experiment": "ising",
        "n_qubits": 2,
        "fields": [0.6, 0.6],
        "couplings": [[0, 1, -0.5]],
        "t_final": 24.0,
        "tolerances": {"min_success": 0.9},
    }
    cfg.update(overrides)
    return cfg


SMALL_GROVER = {"experiment": "grover", "n_qubits": 2, "marked": 3, "t_final": 1.0, "n_steps": 400}
VERIFY = {
    "experiment": "verify-transform",
    "pair": "nmr",
    "qubit_splitting": 1.0,
    "drive_rate": 1.5,
    "drive_strength": 2.0,
}
# a whole number of 401 digits, past the float range
HUGE = "1" + "0" * 400


def rescale_config(**overrides):
    cfg = {
        "experiment": "rescale",
        "problem": {"kind": "grover", "n_qubits": 2, "marked": 3},
        "fast_time": 0.1,
        "slow_time": 10.0,
        "n_steps": 500,
        "tolerances": {"max_distance": 1e-8},
    }
    cfg.update(overrides)
    return cfg


def run_rejected(tmp_path, capsys, config_path, *extra):
    """Run a config that must be rejected; return its one stderr line."""
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert not (out / "result.json").exists()
    return err


def test_every_shipped_config_passes_validation(no_numerics, tmp_path):
    paths = sorted(CONFIGS.glob("*.json"))
    assert len(paths) == 5
    for path in paths:
        with pytest.raises(Reached):
            cli.run_experiment(str(path), out_dir=str(tmp_path / path.stem))


class TestToleranceCheckedBeforeRunning:
    @pytest.mark.parametrize(
        "payload, field",
        [
            (nmr_config(tolerances={"min_fidelityy": 0.9}), "tolerances.min_fidelityy"),
            (nmr_config(tolerances={"max_residual": 1e-9}), "tolerances.max_residual"),
            (nmr_config(tolerances={"min_fidelity": "high"}), "tolerances.min_fidelity"),
            (
                nmr_config(tolerances={"require_transform_model": 1}),
                "tolerances.require_transform_model",
            ),
            (
                ising_config(tolerances={"min_counterpart_fidelity": 0.99}),
                "tolerances.min_counterpart_fidelity",
            ),
            (
                rescale_config(tolerances={"max_drive_distance": 1e-8}),
                "tolerances.max_drive_distance",
            ),
        ],
        ids=[
            "unknown", "other-kind", "not-a-number", "not-a-bool",
            "needs-fast-counterpart", "needs-drive-check",
        ],
    )
    def test_bad_tolerance_exits_1_without_running(
        self, no_numerics, tmp_path, capsys, payload, field
    ):
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
        assert f"'{field}'" in err

    def test_missing_block_is_named(self, no_numerics, tmp_path, capsys):
        payload = ising_config(tolerances={"min_counterpart_fidelity": 0.99})
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
        assert "fast_counterpart" in err


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "payload, field",
        [
            (nmr_config(drive_strength=float("inf")), "drive_strength"),
            (nmr_config(t_final=float("nan")), "t_final"),
            (nmr_config(tolerances={"min_fidelity": float("nan")}), "tolerances.min_fidelity"),
            (ising_config(fields=[0.6, float("inf")]), "fields[1]"),
            (ising_config(couplings=[[0, 1, float("-inf")]]), "couplings[0][2]"),
            (
                ising_config(fast_counterpart={"phase": {
                    "kind": "tabulated",
                    "times": [0.0, 0.5, float("nan"), 1.5],
                    "values": [0, 1, 0, 1],
                }}),
                "fast_counterpart.phase.times[2]",
            ),
            (
                ising_config(fast_counterpart={"phase": {
                    "kind": "tabulated",
                    "times": [0.0, 0.5, 1.0, 1.5],
                    "values": [0, float("inf"), 0, 1],
                }}),
                "fast_counterpart.phase.values[1]",
            ),
            (rescale_config(tolerances={"max_distance": float("nan")}), "tolerances.max_distance"),
        ],
        ids=["scalar-inf", "scalar-nan", "tolerance-nan", "fields", "coupling-J", "times", "values",
             "rescale-tolerance"],
    )
    def test_rejected_and_named(self, no_numerics, tmp_path, capsys, payload, field):
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
        assert err.startswith(f"error: config field '{field}': {ENVELOPE} "), err

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_set_override_rejected(self, no_numerics, tmp_path, capsys, value):
        cfg = write_config(tmp_path, nmr_config())
        err = run_rejected(tmp_path, capsys, cfg, "--set", f"drive_strength={value}")
        assert "'drive_strength'" in err

    def test_integer_beyond_float_range_rejected(self, no_numerics, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(nmr_config()).replace("25.0", "1" + "0" * 400))
        err = run_rejected(tmp_path, capsys, str(path))
        assert err == f"error: config field 'drive_strength': {ENVELOPE} 1{'0' * 400}"


class TestEnvelope:
    """Every number a config gives is 0 or has a magnitude in [1e-100, 1e100],
    bounds included, wherever it sits."""

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, 1e-100, -1e-100, 1e100, -1e100, 1, 2.5e-7])
    def test_inside_is_accepted(self, no_numerics, tmp_path, value):
        payload = nmr_config(qubit_splitting=value, tolerances={"min_fidelity": value})
        with pytest.raises(Reached):
            cli.run_experiment(write_config(tmp_path, payload), out_dir=str(tmp_path / "out"))

    @pytest.mark.parametrize(
        "value", [9.999999999999999e-101, -9.999999999999999e-101, 1.0000000000000002e100, 5e-324, -1e308]
    )
    @pytest.mark.parametrize(
        "payload, field",
        [
            (nmr_config(), "qubit_splitting"),
            (nmr_config(), "tolerances.min_fidelity"),
            (ising_config(), "fields[1]"),
            (ising_config(), "couplings[0][2]"),
            (ising_config(fast_counterpart={"phase": {"kind": "linear_ramp", "start": 0.0, "stop": 1.0,
                                                      "duration": 2.0}}), "fast_counterpart.phase.stop"),
            (rescale_config(problem={"kind": "ising", "n_qubits": 1, "fields": [0.5]}), "problem.fields[0]"),
        ],
        ids=["scalar", "tolerance", "fields", "coupling", "schedule", "problem-block"],
    )
    def test_outside_is_named(self, no_numerics, tmp_path, capsys, payload, field, value):
        path = field.replace("[", ".").replace("]", "").split(".")
        node = payload = json.loads(json.dumps(payload))
        for key in path[:-1]:
            node = node[int(key) if isinstance(node, list) else key]
        node[int(path[-1]) if isinstance(node, list) else path[-1]] = value
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
        assert err == f"error: config field '{field}': {ENVELOPE} {value!r}"

    def test_verdict_tolerance_nan_does_not_reach_result(self, tmp_path, capsys):
        # verify-transform self pair runs in milliseconds; no stubs needed
        payload = {
            "experiment": "verify-transform", "pair": "self", "qubit_splitting": 1.0,
            "drive_rate": 1.5, "drive_strength": 2.0, "t_final": 1.0, "n_steps": 50,
            "tolerances": {"max_residual": float("nan")},
        }
        run_rejected(tmp_path, capsys, write_config(tmp_path, payload))


def verify_transform_config(**overrides):
    cfg = {
        "experiment": "verify-transform", "pair": "nmr", "qubit_splitting": 1.0,
        "drive_rate": 1.5, "drive_strength": 2.0, "t_final": 1.0, "n_steps": 50,
    }
    cfg.update(overrides)
    return cfg


HARMONIC_PHASE = {"kind": "harmonic", "rate": 1.0}


class TestPositiveNumbers:
    @pytest.mark.parametrize(
        "payload, field",
        [
            (nmr_config(), "t_final"),
            (nmr_config(), "drive_strength"),
            (ising_config(), "t_final"),
            (ising_config(), "sweep.t_initial"),
            (ising_config(fast_counterpart={"phase": HARMONIC_PHASE}), "fast_counterpart.t_final"),
            (verify_transform_config(), "t_final"),
            (verify_transform_config(), "drive_strength"),
            (rescale_config(), "fast_time"),
            (rescale_config(), "slow_time"),
            (rescale_config(), "drive_check.drive_strength"),
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-2.5"])
    def test_non_positive_value_is_named(self, no_numerics, tmp_path, capsys, payload, field, value):
        cfg = write_config(tmp_path, payload)
        err = run_rejected(tmp_path, capsys, cfg, "--set", f"{field}={value}")
        assert f"'{field}'" in err and "expected a positive number" in err


@pytest.mark.parametrize("fast_time", ["10", "20"])
def test_fast_time_not_below_slow_time_is_named(no_numerics, tmp_path, capsys, fast_time):
    # slow_time is 10; the order is refused before any numerics run
    cfg = write_config(tmp_path, rescale_config())
    err = run_rejected(tmp_path, capsys, cfg, "--set", f"fast_time={fast_time}")
    assert err.startswith("error: config field 'fast_time': need 0 < fast_time < slow_time"), err


@pytest.mark.parametrize(
    "payload, override, field, value",
    [
        # 2 g once overflowed in the closed forms' generator 2 g X - d Z
        (nmr_config(), "drive_strength=1e308", "drive_strength", "1e+308"),
        # the detuning drive_rate - qubit_splitting once overflowed; the first
        # of the two, in the order of the fields, is named
        (nmr_config(qubit_splitting=-1e308, t_final=1.0), "drive_rate=1e308", "qubit_splitting", "-1e+308"),
        (
            rescale_config(drive_check={"drive_strength": 2.0, "n_nodes": 11}),
            "drive_check.drive_strength=1e308", "drive_check.drive_strength", "1e+308",
        ),
        # the problem diagonal: the fields alone, or the couplings added to them
        (ising_config(), "fields=[1e308,1e308]", "fields[0]", "1e+308"),
        (ising_config(transverse0=1.0), "fields=[1e308,-1e308]", "fields[0]", "1e+308"),
        (ising_config(fields=[8e307, 0.0], transverse0=1.0), "couplings=[[0,1,1e308]]", "fields[0]", "8e+307"),
        # a finite diagonal whose energies span past the float range, by the fields or the couplings
        (ising_config(transverse0=1.0), "fields=[1e308,0]", "fields[0]", "1e+308"),
        (ising_config(fields=[0.0, 0.0], transverse0=1.0), "couplings=[[0,1,1e308]]", "couplings[0][2]", "1e+308"),
        # the default transverse strength 2 x 1e308 would overflow
        (ising_config(), "fields=[1e308,0]", "fields[0]", "1e+308"),
        (
            rescale_config(problem={"kind": "ising", "n_qubits": 1, "fields": [1e308]}),
            "n_steps=500", "problem.fields[0]", "1e+308",
        ),
    ],
    ids=["nmr-drive", "nmr-detuning", "rescale-drive", "fields", "fields-given-transverse0", "couplings",
         "span-fields", "span-couplings", "default-transverse0", "rescale-default-transverse0"],
)
def test_magnitude_past_the_float_range_is_named_before_running(
    no_numerics, tmp_path, capsys, payload, override, field, value
):
    err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload), "--set", override)
    assert err == f"error: config field '{field}': {ENVELOPE} {value}"


def _counterpart(phase, t_final, n_steps):
    return "fast_counterpart=" + json.dumps({"phase": phase, "t_final": t_final, "n_steps": n_steps})


@pytest.mark.parametrize(
    "config, overrides, field, message",
    [
        # a counterpart phase finite at its t_final whose double, the conjugated
        # terms' angle, is not: once a NaN coefficient after the main anneal
        (
            "ising.json",
            ['fast_counterpart.phase={"kind": "harmonic", "rate": 5e307}', "n_steps=400", "fast_counterpart.n_steps=40"],
            "fast_counterpart.phase.rate", f"{ENVELOPE} 5e+307",
        ),
        # the closed forms' nutation phase over a quarter turn of a slow frame
        (
            "nmr.json", ["drive_strength=1e300", "qubit_splitting=1.9999999999", "n_steps=40"],
            "drive_strength", f"{ENVELOPE} 1e+300",
        ),
        # the rotated frame's phase at a far t_final: once a NaN coefficient
        ("nmr.json", ["t_final=1.03e243", "qubit_splitting=3.09e119", "n_steps=44"], "qubit_splitting", f"{ENVELOPE} 3.09e+119"),
        # the same in the closed-form frame change: once an overflow warning
        (
            "verify_transform.json",
            ["t_final=1.03e243", "qubit_splitting=3.09e119", "drive_rate=1.34e-132", "n_steps=44"],
            "qubit_splitting", f"{ENVELOPE} 3.09e+119",
        ),
        # tabulated phases whose splines leave the float range: once scipy's
        # overflow warnings, then a refusal or, with NaN coefficients, a NaN
        # at t=0 that passed the t=0 check and an unnamed error after the runs
        (
            "ising.json",
            [
                "n_steps=400",
                _counterpart({"kind": "tabulated", "times": [0, 1, 2, 3], "values": [0, 5e307, -5e307, 0]}, 2.0, 40),
            ],
            "fast_counterpart.phase.values[1]", f"{ENVELOPE} 5e+307",
        ),
        (
            "ising.json",
            [
                "n_steps=400",
                _counterpart(
                    {
                        "kind": "tabulated",
                        "times": [0.0, 9.376127831219486e-214, 3.541366425911608e-17, 0.7992375781513843],
                        "values": [0.0, -7.706293537176723, -1.1896348083127052e23, -1.855690103409468e-168],
                    },
                    0.5, 40,
                ),
            ],
            "fast_counterpart.phase.times[1]", f"{ENVELOPE} 9.376127831219486e-214",
        ),
        # inside the envelope, divided differences over close samples still
        # overflow: the spline's own check refuses it
        (
            "ising.json",
            [
                "n_steps=400",
                _counterpart(
                    {"kind": "tabulated", "times": [0, 1e-100, 2e-100, 3e-100], "values": [0, 1e100, -1e100, 1e100]},
                    3e-100, 16,
                ),
            ],
            "fast_counterpart.phase", "the cubic spline through these samples has coefficients past the float range",
        ),
        # a step dt * eigenvalue past the float range: once an unnamed error
        (
            "grover.json", ["sweep=null", "t_final=3.2e80", "n_steps=33", "transverse0=-3.3e278"],
            "transverse0", f"{ENVELOPE} -3.3e+278",
        ),
        (
            "ising.json",
            ["n_steps=9", "fields=[5.3e273, 0.5, 0.5, 0.5]", "fast_counterpart.t_final=9.3e49",
             "fast_counterpart.n_steps=16"],
            "fields[0]", f"{ENVELOPE} 5.3e+273",
        ),
        # a ramp's rate 1e310 overflows the counterpart's transverse coefficient
        (
            "ising.json",
            [
                "n_steps=400",
                _counterpart({"kind": "cosine_ramp", "start": 0.0, "stop": 1e300, "duration": 1e-10}, 1e-10, 8),
            ],
            "fast_counterpart.phase.stop", f"{ENVELOPE} 1e+300",
        ),
        (
            "ising.json",
            [
                "n_steps=400",
                _counterpart({"kind": "linear_ramp", "start": 0.0, "stop": 1e300, "duration": 1e-10}, 1e-10, 8),
            ],
            "fast_counterpart.phase.stop", f"{ENVELOPE} 1e+300",
        ),
        # the frame rotation exp(-i phase(T) sum_i X_i) of four qubits: 4 x 8e307
        (
            "ising.json", ["n_steps=400", _counterpart({"kind": "harmonic", "rate": 4e307}, 2.0, 64)],
            "fast_counterpart.phase.rate", f"{ENVELOPE} 4e+307",
        ),
        # a transverse field whose sum over four qubits has a spectrum past the float range
        ("ising.json", ["n_steps=400", "transverse0=1e308"], "transverse0", f"{ENVELOPE} 1e+308"),
    ],
    ids=["counterpart-double-phase", "nmr-nutation", "nmr-frame", "verify-frame", "spline-slopes", "spline-nan",
         "spline-inside", "grover-step", "counterpart-step", "cosine-rate", "linear-rate", "counterpart-frames",
         "transverse-spectrum"],
)
def test_phase_past_the_float_range_is_named_without_a_warning(tmp_path, capsys, config, overrides, field, message):
    sets = [arg for item in overrides for arg in ("--set", item)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = run_rejected(tmp_path, capsys, str(CONFIGS / config), *sets)
    assert err == f"error: config field '{field}': {message}"
    assert not caught, [str(w.message) for w in caught]


def test_overflowing_matched_drive_strength_is_named(tmp_path, capsys):
    # T g = 1e10 x 1e300 is the shared leg's strength, once reported as g = inf
    overrides = ["fast_time=1e10", "slow_time=1e11", "drive_check.drive_strength=1e300", "drive_check.n_nodes=11",
                 "n_steps=50"]
    sets = [arg for item in overrides for arg in ("--set", item)]
    err = run_rejected(tmp_path, capsys, str(CONFIGS / "rescale.json"), *sets)
    assert err == f"error: config field 'drive_check.drive_strength': {ENVELOPE} 1e+300"


@pytest.mark.parametrize(
    "overrides, code, field",
    [
        # the identity pair never evaluated the rotated frame's overflowing phase
        (['pair="self"', "t_final=1.03e243", "qubit_splitting=3.09e119", "drive_rate=1.34e-132"], 1, "qubit_splitting"),
        # g entered no phase of a verify-transform run; its residuals overflowed and failed the model
        (["drive_strength=1e308"], 1, "drive_strength"),
        # the same runs at the envelope's ends evaluate every phase and run to a verdict
        (['pair="self"', "t_final=1e100", "qubit_splitting=1e100", "drive_rate=1e-100"], 0, None),
        (["t_final=1e100", "qubit_splitting=1e100", "drive_rate=1e-100"], 2, None),
        (["drive_strength=1e100"], 2, None),
    ],
    ids=["self-pair", "drive-strength", "self-pair-inside", "nmr-pair-inside", "drive-strength-inside"],
)
def test_verify_transform_refuses_only_the_phases_it_evaluates(tmp_path, capsys, overrides, code, field):
    sets = [arg for item in [*overrides, "n_steps=44"] for arg in ("--set", item)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = main(["run", "--config", str(CONFIGS / "verify_transform.json"), "--out", str(tmp_path), *sets])
    err = capsys.readouterr().err
    assert got == code, err
    if field is None:
        assert err == ""
    else:
        assert err.startswith(f"error: config field '{field}': {ENVELOPE} ") and err.count("\n") == 1, err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "payload, overrides, field, message",
    [
        (ising_config(), ["t_final=1e307"], "t_final", f"{ENVELOPE} 1e+307"),
        (ising_config(), ["t_final=1e100"], "t_final", "a grid of 2e+102 steps exceeds the limit"),
        (ising_config(), ["t_final=1e-310"], "t_final", f"{ENVELOPE} 1e-310"),
        (ising_config(), ["n_steps=100000001"], "n_steps", "a grid of 100000001 steps exceeds"),
        (
            ising_config(fast_counterpart={"phase": {"kind": "constant", "value": 0.0}}),
            ["fast_counterpart.n_steps=100000001"], "fast_counterpart.n_steps",
            "a grid of 100000001 steps exceeds",
        ),
        (
            ising_config(fast_counterpart={"phase": {"kind": "constant", "value": 0.0}}),
            ["fast_counterpart.t_final=1e-310"], "fast_counterpart.t_final", f"{ENVELOPE} 1e-310",
        ),
        (SMALL_GROVER, ["t_final=1e307", "n_steps=null"], "t_final", f"{ENVELOPE} 1e+307"),
        (SMALL_GROVER, ["t_final=1e100", "n_steps=null"], "t_final", "a grid of 2e+102 steps exceeds the limit"),
        (SMALL_GROVER, ["n_steps=" + HUGE], "n_steps", "a grid of more than 1.79769e+308 steps"),
        (nmr_config(), ["n_steps=" + HUGE], "n_steps", "a grid of more than 1.79769e+308 steps"),
        (VERIFY, ["n_steps=" + HUGE], "n_steps", "a grid of more than 1.79769e+308 steps"),
        (
            {**SMALL_GROVER, "sweep": {"t_initial": 1e-310}}, [], "sweep.t_initial", f"{ENVELOPE} 1e-310",
        ),
        (
            {**SMALL_GROVER, "sweep": {"t_initial": 1e100}}, [], "sweep.t_initial",
            "a grid of 2e+102 steps exceeds the limit",
        ),
    ],
    ids=[
        "ising-t_final-inf-steps", "ising-t_final-steps-inside", "ising-t_final-subnormal-step", "ising-n_steps",
        "counterpart-n_steps", "counterpart-t_final", "grover-t_final", "grover-t_final-inside", "grover-n_steps",
        "nmr-n_steps", "verify-n_steps", "sweep-t_initial", "sweep-t_initial-inside",
    ],
)
def test_grid_is_refused_by_its_field_before_running(no_numerics, tmp_path, capsys, payload, overrides, field, message):
    sets = [arg for item in overrides for arg in ("--set", item)]
    err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload), *sets)
    assert err.startswith(f"error: config field '{field}': {message}"), err


@pytest.mark.parametrize(
    "n_nodes, message",
    [
        (1, "the drive check needs at least 2 nodes, got 1"),
        (10**8 + 2, "a grid of 100000001 steps exceeds the limit of 1e+08 steps"),
        (10**12, "a grid of 1e+12 steps exceeds the limit of 1e+08 steps"),
        (10**400, "a grid of more than 1.79769e+308 steps exceeds the limit of 1e+08 steps"),
    ],
    ids=["one", "past-the-limit", "1e12", "401-digits"],
)
def test_rescaled_drive_node_count_is_refused_by_name(no_numerics, tmp_path, capsys, n_nodes, message):
    # one node compared three identities at 0; 1e12 nodes ended in numpy's
    # allocation error, and 401 digits were named as drive_check.drive_strength
    payload = rescale_config(drive_check={"drive_strength": 2.0, "n_nodes": n_nodes})
    err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
    assert err == f"error: config field 'drive_check.n_nodes': {message}"


class TestNoTraceback:
    def test_unitarity_error_exits_1(self, monkeypatch, tmp_path, capsys):
        def drifted(**kwargs):
            raise UnitarityError("unitarity defect 3.0e-01 at step 7 exceeds 1e-10", 7, 0.3)

        monkeypatch.setattr(cli, "run_nmr_experiment", drifted)
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, nmr_config()))
        assert "step 7" in err

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        payload = {
            "experiment": "verify-transform", "pair": "self", "qubit_splitting": 1.0,
            "drive_rate": 1.5, "drive_strength": 2.0, "t_final": 1.0, "n_steps": 50,
        }
        blocker = tmp_path / "taken"
        blocker.write_text("")
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg, "--out", str(blocker)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(blocker) in err


class TestCouplingIndices:
    @pytest.mark.parametrize(
        "couplings, field",
        [
            ([[0.5, 1, -0.5]], "couplings[0][0]"),
            ([[0, 1.7, -0.5]], "couplings[0][1]"),
            ([[0, 1, 0.2], [0.5, 1.7, -0.5]], "couplings[1][0]"),
        ],
    )
    def test_fractional_index_rejected_and_named(self, no_numerics, tmp_path, capsys, couplings, field):
        payload = ising_config(n_qubits=3, fields=[0.6, 0.6, 0.6], couplings=couplings)
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
        assert f"'{field}'" in err and "integral qubit index" in err

    def test_fractional_index_in_a_problem_block(self, no_numerics, tmp_path, capsys):
        problem = {"kind": "ising", "n_qubits": 2, "fields": [0.6, 0.6], "couplings": [[0, 0.5, 1.0]]}
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, rescale_config(problem=problem)))
        assert "'problem.couplings[0][1]'" in err

    def test_negative_index_rejected_and_named(self, no_numerics, tmp_path, capsys):
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, ising_config(couplings=[[-1, 1, -0.5]])))
        assert "'couplings'" in err and "couplings[0] has a negative qubit index -1" in err

    def test_integral_float_index_accepted(self, no_numerics, tmp_path):
        cfg = write_config(tmp_path, ising_config(couplings=[[0.0, 1.0, -0.5]]))
        with pytest.raises(Reached):
            cli.run_experiment(cfg, out_dir=str(tmp_path / "out"))


class TestProblemFileWithCouplings:
    @pytest.fixture
    def edge_file(self, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("0 0.6\n1 0.6\n0 1 -0.5\n")
        return str(path)

    def test_top_level_ising(self, no_numerics, tmp_path, capsys, edge_file):
        payload = ising_config(problem_file=edge_file)
        del payload["fields"]
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
        assert "'couplings'" in err

    def test_rescale_problem(self, no_numerics, tmp_path, capsys, edge_file):
        problem = {"kind": "ising", "n_qubits": 2, "problem_file": edge_file, "couplings": []}
        cfg = write_config(tmp_path, rescale_config(problem=problem))
        err = run_rejected(tmp_path, capsys, cfg)
        assert "'problem.couplings'" in err

    def test_problem_file_alone_is_accepted(self, no_numerics, tmp_path, edge_file):
        payload = ising_config(problem_file=edge_file)
        del payload["fields"], payload["couplings"]
        with pytest.raises(Reached):
            cli.run_experiment(write_config(tmp_path, payload), out_dir=str(tmp_path / "out"))


@pytest.mark.parametrize("line, value", [("1 nan", "nan"), ("0 1 inf", "inf"), ("1 1e-101", "1e-101"), ("0 1 -2e100", "-2e+100")])
def test_non_finite_edge_list_value_names_file_and_line(no_numerics, tmp_path, capsys, line, value):
    edges = tmp_path / "edges.txt"
    edges.write_text(f"0 0.6\n{line}\n")
    payload = ising_config(problem_file=str(edges))
    del payload["fields"], payload["couplings"]
    err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
    assert err == f"error: config field 'problem_file': {edges}:2: cannot parse {line!r} ({ENVELOPE} {value})"



@pytest.mark.parametrize(
    "text, line, why",
    [
        # both field lines were dropped, and the run exited 0 with fields (0.5, 0.5)
        ("7 3.0\n-1 2.0\n", 1, "'7 3.0' indexes a qubit outside [0, 2)"),
        ("0 0.5\n-1 2.0\n", 2, "'-1 2.0' indexes a qubit outside [0, 2)"),
        # the last of the two was kept
        ("0 0.5\n0 0.7\n", 2, "'0 0.7' repeats the qubits of line 1"),
        ("0 3 1.0\n", 1, "'0 3 1.0' indexes a qubit outside [0, 2)"),
        ("0 1 1.0\n1 0 1.0\n", 2, "'1 0 1.0' repeats the qubits of line 1"),
        # refused without its line, as a coupling (1,1) on the diagonal
        ("0 0.5\n1 0.5\n1 1 1.0\n", 3, "'1 1 1.0' couples qubit 1 to itself"),
    ],
)
def test_bad_edge_list_index_names_file_and_line(no_numerics, tmp_path, capsys, text, line, why):
    edges = tmp_path / "edges.txt"
    edges.write_text(text)
    payload = ising_config(problem_file=str(edges))
    del payload["fields"], payload["couplings"]
    err = run_rejected(tmp_path, capsys, write_config(tmp_path, payload))
    assert err == f"error: config field 'problem_file': {edges}:{line}: {why}"

class TestSetIntoNonObject:
    def test_scalar_parent_named(self, no_numerics, tmp_path, capsys):
        cfg = write_config(tmp_path, nmr_config())
        err = run_rejected(tmp_path, capsys, cfg, "--set", "drive_strength.x=1")
        assert "'drive_strength'" in err
        assert "not an object" in err

    def test_invalid_block_not_silently_replaced(self, no_numerics, tmp_path, capsys):
        payload = {"experiment": "grover", "n_qubits": 2, "marked": 3, "sweep": 3}
        cfg = write_config(tmp_path, payload)
        err = run_rejected(tmp_path, capsys, cfg, "--set", "sweep.doublings=2")
        assert "'sweep'" in err

    def test_nested_path_named(self, no_numerics, tmp_path, capsys):
        cfg = write_config(tmp_path, rescale_config())
        err = run_rejected(tmp_path, capsys, cfg, "--set", "problem.kind.x=1")
        assert "'problem.kind'" in err

    def test_missing_parent_is_created(self, no_numerics, tmp_path):
        payload = {"experiment": "grover", "n_qubits": 2, "marked": 3}
        with pytest.raises(Reached):
            cli.run_experiment(
                write_config(tmp_path, payload), ["sweep.doublings=2"], str(tmp_path / "out")
            )


class TestDuplicateKeys:
    # json.loads keeps the last of repeated keys: {"n_steps": 50, "n_steps": 60} ran with 60
    @pytest.mark.parametrize(
        "extra, key",
        [
            ('"n_steps": 60', "n_steps"),
            ('"tolerances": {"min_fidelity": 0.9, "min_fidelity": 0.5}', "min_fidelity"),
        ],
        ids=["top-level", "tolerances"],
    )
    def test_repeated_key_is_refused(self, no_numerics, tmp_path, capsys, extra, key):
        payload = nmr_config()
        if key == "min_fidelity":
            del payload["tolerances"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload)[:-1] + ", " + extra + "}")
        err = run_rejected(tmp_path, capsys, str(path))
        assert err == f"error: config field '<file>': {path}: duplicate key '{key}'"

    def test_repeated_key_inside_a_set_value_is_refused(self, no_numerics, tmp_path, capsys):
        # json.loads kept the last key, so this ran with max_residual <= 1.0 and passed
        item = 'tolerances={"max_residual": 1e-30, "max_residual": 1.0}'
        err = run_rejected(tmp_path, capsys, write_config(tmp_path, VERIFY), "--set", item)
        assert err == f"error: config field '<override>': {item!r}: duplicate key 'max_residual'"

    def test_repeated_set_takes_the_last_value(self, monkeypatch, tmp_path):
        def run(**kwargs):
            raise Reached(kwargs["grid"].n_steps)

        monkeypatch.setattr(cli, "run_nmr_experiment", run)
        with pytest.raises(Reached, match="^60$"):
            cli.run_experiment(
                write_config(tmp_path, nmr_config()), ["n_steps=50", "n_steps=60"], str(tmp_path / "out")
            )


@pytest.mark.parametrize("item", [".a=1", "=1", "sweep..doublings=2", "sweep.=2"])
def test_override_key_with_an_empty_segment_is_refused(no_numerics, tmp_path, capsys, item):
    # '.a=1' and '=1' were refused as an unknown key of '<root>', a field that does not exist
    err = run_rejected(tmp_path, capsys, write_config(tmp_path, SMALL_GROVER), "--set", item)
    assert err == f"error: config field '<override>': expected KEY=VALUE with no empty name in KEY, got {item!r}"


@pytest.mark.parametrize("config, refinements", [("nmr.json", 0), ("verify_transform.json", 1)])
def test_grid_is_built_once_before_running(no_numerics, monkeypatch, tmp_path, config, refinements):
    # the step count was once checked twice, and the nmr grid refined once
    # before the run, which refines it again for its control
    calls = {"check_frame_steps": 0, "refined": 0}

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(experiments, "check_frame_steps", spy("check_frame_steps", experiments.check_frame_steps))
    monkeypatch.setattr(TimeGrid, "refined", spy("refined", TimeGrid.refined))
    with pytest.raises(Reached):
        cli.run_experiment(str(CONFIGS / config), out_dir=str(tmp_path / "out"))
    assert calls == {"check_frame_steps": 1, "refined": refinements}


# What each kind accepts, written out independently of the table in cli.py.
ACCEPTED = {
    "nmr": (
        "qubit_splitting", "drive_rate", "drive_strength", "t_final", "n_steps",
        "min_fidelity", "max_oracle_distance", "max_closed_form_distance",
        "max_two_gate_deficit_composed", "max_two_gate_deficit_closed_form",
        "max_correction_gate_distance", "require_transform_model",
    ),
    "grover": (
        "n_qubits", "marked", "transverse0", "t_final", "n_steps", "sweep", "t_initial",
        "doublings", "success_threshold", "fast_counterpart", "phase",
        "min_success", "min_counterpart_fidelity",
    ),
    "ising": (
        "n_qubits", "fields", "couplings", "problem_file", "transverse0", "t_final", "n_steps",
        "sweep", "t_initial", "doublings", "success_threshold", "fast_counterpart", "phase",
        "min_success", "min_counterpart_fidelity",
    ),
    "verify-transform": (
        "pair", "qubit_splitting", "drive_rate", "drive_strength", "t_final", "n_steps",
        "max_residual", "require_model",
    ),
    "rescale": (
        "problem", "kind", "n_qubits", "marked", "fields", "couplings", "problem_file",
        "fast_time", "slow_time", "n_steps", "transverse0", "drive_check", "drive_strength",
        "n_nodes", "max_distance", "max_drive_distance",
    ),
}


def test_list_names_every_accepted_key(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    kinds = list(ACCEPTED)
    for k, kind in enumerate(kinds):
        start = text.index(f"\n  {kind}\n")
        end = text.index(f"\n  {kinds[k + 1]}\n") if k + 1 < len(kinds) else len(text)
        words = set(text[start:end].split())
        missing = [key for key in ACCEPTED[kind] if key not in words]
        assert not missing, f"{kind}: {missing}"

