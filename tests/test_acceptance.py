"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from qxform.cli import main as cli_main
from qxform.experiments import (
    nmr_grid,
    quarter_turn_time,
    run_fast_counterpart_comparison,
    run_nmr_experiment,
)
from qxform.hamiltonians import (
    GroverProblem,
    IsingProblem,
    annealing_hamiltonian,
    fast_counterpart_hamiltonian,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from qxform.operators import hermiticity_defect, phase_aligned_distance
from qxform.propagation import (
    TimeGrid,
    nmr_fast_propagator,
    propagate,
    sample_trace,
)
from qxform.schedules import Harmonic, LinearRamp, NmrParams
from qxform.transform import (
    TimeScaling,
    compose_transform,
    time_rescaling_equivalence,
    verify_rescaled_drive,
)

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)

BENCH = dict(qubit_splitting=1.0, drive_rate=1.5, drive_strength=2.0)
ADIABATIC = dict(qubit_splitting=1.0, drive_rate=2.0, drive_strength=25.0)
ADIABATIC_GRID = nmr_grid(quarter_turn_time(1.0), 15_708)  # a quarter turn of the frame

ISING_CHAIN = IsingProblem(
    4, fields=(0.5, 0.5, 0.5, 0.5),
    couplings=((0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0)),
)


def report_line(index, name, passed, detail):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {index} ({name}): {state} -- {detail}")


@pytest.fixture(scope="module")
def benchmark_report():
    return run_nmr_experiment(**BENCH, grid=nmr_grid(10.0, 10_000))[0]  # the metrics


@pytest.fixture(scope="module")
def adiabatic_report():
    return run_nmr_experiment(**ADIABATIC, grid=ADIABATIC_GRID)


@pytest.fixture(scope="module")
def stronger_report():
    return run_nmr_experiment(
        qubit_splitting=1.0, drive_rate=2.0, drive_strength=50.0, grid=nmr_grid(quarter_turn_time(1.0), 1_571)
    )[0]  # the metrics


@pytest.fixture(scope="module")
def counterpart_reports():
    t_final = 2.0
    phase = Harmonic(20.0 * math.pi / t_final)
    grid = TimeGrid(0.0, t_final, 100_000)
    grover = run_fast_counterpart_comparison(GroverProblem(3, 7), phase, grid)
    ising = run_fast_counterpart_comparison(ISING_CHAIN, phase, grid)
    return {"grover": grover, "ising": ising}


@pytest.fixture(scope="module")
def rescale_reports():
    problem = GroverProblem(3, 7)
    h_tau = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), problem)
    scaling = TimeScaling(0.1, 10.0)
    equivalence, _ = time_rescaling_equivalence(h_tau, scaling, TimeGrid(0.0, 1.0, 10_000), stride=1)
    drive = verify_rescaled_drive(2.0, scaling, TimeGrid(0.0, 1.0, 10_000))  # 10,001 nodes
    return {"equivalence": equivalence, "drive": drive, "scaling": scaling}


def test_criterion_1_integrator_vs_oracle():
    p = NmrParams.harmonic(**{
        "qubit_splitting": BENCH["qubit_splitting"],
        "drive_rate": BENCH["drive_rate"],
        "drive_strength": BENCH["drive_strength"],
    })
    h = nmr_hamiltonian(p)
    t_final = 10.0
    steps = [2_500, 5_000, 10_000, 20_000]  # dt = 4e-3 ... 5e-4
    distances = []
    for n in steps:
        trace = propagate(h, TimeGrid(0.0, t_final, n))
        worst = max(
            phase_aligned_distance(
                trace.matrices[k], nmr_fast_propagator(p, float(trace.times[k]))
            )
            for k in range(1, len(trace.times), max(1, n // 500))
        )
        distances.append(worst)
    dts = np.array([t_final / n for n in steps])
    slope = float(np.polyfit(np.log(dts), np.log(distances), 1)[0])
    at_1e3 = distances[2]
    ok = at_1e3 <= 1e-5 and abs(slope - 2.0) <= 0.2
    report_line(
        1, "integrator vs oracle", ok,
        f"distance at dt=1e-3 {at_1e3:.3e} <= 1e-5, refinement slope {slope:.3f}",
    )
    assert at_1e3 <= 1e-5
    assert slope == pytest.approx(2.0, abs=0.2)


def test_criterion_2_frame_change_identity(benchmark_report):
    m = benchmark_report
    threshold = m["transform_threshold"]
    round_trip = m["round_trip_max_residual"]
    ok = bool(m["transform_model_passed"]) and round_trip <= 2.0 * threshold
    report_line(
        2, "frame-change identity", ok,
        f"residual {m['transform_max_residual']:.3e} <= {threshold:.3e}, "
        f"round trip {round_trip:.3e} <= {2 * threshold:.3e}",
    )
    assert m["transform_model_passed"]
    assert m["transform_max_residual"] <= threshold
    assert round_trip <= 2.0 * threshold


def test_criterion_3_closed_form_transform(adiabatic_report):
    r, _ = adiabatic_report
    w0 = ADIABATIC["qubit_splitting"]
    # the closed-form frame change on the report's grid, composed as the run composes it
    p = NmrParams.harmonic(**ADIABATIC)
    frame = NmrParams.harmonic(0.0, p.detuning, p.drive_strength)  # the rotated frame's drive
    composed = compose_transform(
        sample_trace(lambda ts: nmr_fast_propagator(p, ts), ADIABATIC_GRID),
        sample_trace(lambda ts: nmr_fast_propagator(frame, ts), ADIABATIC_GRID),
    )
    rng = np.random.default_rng(2026)
    nodes = rng.integers(0, len(composed.times), size=100)
    worst = 0.0
    for k in nodes:
        t = float(composed.times[k])
        oracle = expm(-1j * w0 * Z * t / 2.0)  # independent matrix exponential
        worst = max(worst, phase_aligned_distance(composed.matrices[k], oracle))
    assert composed.times[-1] == ADIABATIC_GRID.t_end
    correction = composed.final.conj().T
    gate_oracle = expm(1j * math.pi * w0 / (4.0 * r["detuning"]) * Z)
    gate_distance = phase_aligned_distance(correction, gate_oracle)
    ok = worst <= 1e-8 and gate_distance <= 1e-8
    report_line(
        3, "closed-form transform", ok,
        f"100-node distance {worst:.3e} <= 1e-8, correction gate {gate_distance:.3e} <= 1e-8",
    )
    assert worst <= 1e-8
    assert gate_distance <= 1e-8


def test_criterion_4_slow_frame_fidelity(adiabatic_report, stronger_report):
    metrics, curves = adiabatic_report
    times, values = curves["fidelity"]
    min_value = metrics["min_fidelity"]
    g = ADIABATIC["drive_strength"]
    d = metrics["detuning"]
    kappa = math.sqrt(g * g + d * d / 4.0)
    oracle = 1.0 - (d * d / (4.0 * kappa * kappa)) * np.sin(kappa * times) ** 2
    pointwise = float(np.max(np.abs(values - oracle)))
    deficit_ratio = (1.0 - min_value) / (1.0 - stronger_report["min_fidelity"])
    ok = (
        pointwise <= 1e-9
        and min_value >= 0.999
        and abs(deficit_ratio - 4.0) <= 0.1
    )
    report_line(
        4, "slow-frame fidelity", ok,
        f"pointwise {pointwise:.3e} <= 1e-9, min {min_value:.6f} >= 0.999, "
        f"doubling ratio {deficit_ratio:.4f} in 4.0 +- 0.1",
    )
    assert pointwise <= 1e-9
    assert min_value >= 0.999
    assert deficit_ratio == pytest.approx(4.0, abs=0.1)


def test_criterion_5_two_gate_realization(
    benchmark_report, adiabatic_report, counterpart_reports
):
    composed_worst = min(
        benchmark_report["two_gate_fidelity_composed"],
        adiabatic_report[0]["two_gate_fidelity_composed"],
        counterpart_reports["grover"]["counterpart_two_gate_fidelity"],
        counterpart_reports["ising"]["counterpart_two_gate_fidelity"],
    )
    closed_worst = min(
        benchmark_report["two_gate_fidelity_closed_form"],
        adiabatic_report[0]["two_gate_fidelity_closed_form"],
    )
    ok = composed_worst >= 1.0 - 1e-12 and closed_worst >= 1.0 - 1e-6
    report_line(
        5, "two-gate realization", ok,
        f"composed fidelity {composed_worst:.15f} >= 1-1e-12, "
        f"closed-form fidelity {closed_worst:.9f} >= 1-1e-6",
    )
    assert composed_worst >= 1.0 - 1e-12
    assert closed_worst >= 1.0 - 1e-6


def test_criterion_6_fast_counterpart_equivalence(counterpart_reports):
    grover = counterpart_reports["grover"]["counterpart_fidelity"]
    ising = counterpart_reports["ising"]["counterpart_fidelity"]
    ok = grover >= 1.0 - 1e-6 and ising >= 1.0 - 1e-6
    report_line(
        6, "fast counterpart equivalence", ok,
        f"grover n=3 fidelity {grover:.12f}, ising n=4 fidelity {ising:.12f}, both >= 1-1e-6",
    )
    assert grover >= 1.0 - 1e-6
    assert ising >= 1.0 - 1e-6


def test_criterion_7_time_rescaling(rescale_reports):
    equivalence = rescale_reports["equivalence"]
    drive = rescale_reports["drive"]
    # the shared normalized-time closed form, built independently
    g, t_fast = 2.0, rescale_reports["scaling"].fast_time
    worst_direct = 0.0
    for tau in np.linspace(0.0, 1.0, 101):
        ref = expm(-1j * math.pi * Z * tau) @ expm(
            -1j * (t_fast * g * X - math.pi * Z) * tau
        )
        p = NmrParams.harmonic(0.0, 2.0 * math.pi / t_fast, g)
        worst_direct = max(
            worst_direct,
            phase_aligned_distance(nmr_fast_propagator(p, tau * t_fast), ref),
        )
    ok = (
        equivalence["max_distance"] <= 1e-8
        and drive <= 1e-8
        and worst_direct <= 1e-8
    )
    report_line(
        7, "time rescaling", ok,
        f"grover tau-grid distance {equivalence['max_distance']:.3e} <= 1e-8, "
        f"drive closed form {drive:.3e} <= 1e-8",
    )
    assert equivalence["max_distance"] <= 1e-8
    assert drive <= 1e-8
    assert worst_direct <= 1e-8


def test_criterion_8_health_invariants(
    tmp_path, benchmark_report, adiabatic_report, counterpart_reports, rescale_reports
):
    # stored unitaries
    defect = max(
        benchmark_report["max_unitarity_defect"],
        adiabatic_report[0]["max_unitarity_defect"],
        counterpart_reports["grover"]["counterpart_max_unitarity_defect"],
        counterpart_reports["ising"]["counterpart_max_unitarity_defect"],
        rescale_reports["equivalence"]["max_unitarity_defect"],
    )

    # Hermiticity of every evaluated Hamiltonian family
    rng = np.random.default_rng(99)
    p = NmrParams.harmonic(**ADIABATIC)
    ramp = LinearRamp(2.0, 0.0, 2.0)
    hams = [
        nmr_hamiltonian(p),
        rotating_frame_hamiltonian(p),
        annealing_hamiltonian(ramp, GroverProblem(3, 7)),
        fast_counterpart_hamiltonian(ramp, ISING_CHAIN, Harmonic(10.0 * math.pi)),
    ]
    herm = 0.0
    for h in hams:
        for t in rng.uniform(0.0, 1.5, size=200):
            herm = max(herm, hermiticity_defect(h.matrix(float(t))))

    # config determinism, byte-identical modulo the timestamp field
    cfg_path = tmp_path / "nmr.json"
    cfg_path.write_text(json.dumps({
        "experiment": "nmr",
        "qubit_splitting": 1.0,
        "drive_rate": 2.0,
        "drive_strength": 25.0,
        "n_steps": 400,
        "tolerances": {"min_fidelity": 0.999},
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = cli_main(["run", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["run", "--config", str(cfg_path), "--out", str(out2)])

    def strip(text):
        return re.sub(r'^\s*"timestamp": ".*",?$', "", text, flags=re.MULTILINE)

    text1 = (out1 / "result.json").read_text()
    text2 = (out2 / "result.json").read_text()
    deterministic = strip(text1) == strip(text2) and code1 == 0 and code2 == 0

    ok = defect <= 1e-10 and herm <= 1e-12 and deterministic
    report_line(
        8, "health invariants", ok,
        f"unitarity defect {defect:.3e} <= 1e-10, hermiticity {herm:.3e} <= 1e-12, "
        f"deterministic re-run {deterministic}",
    )
    assert defect <= 1e-10
    assert herm <= 1e-12
    assert deterministic
