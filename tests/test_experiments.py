import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import qxform.experiments as experiments
from qxform.cli import write_csv_curve
from qxform.experiments import (
    _sweep_workers,
    anneal_grid,
    annealing_doubling_sweep,
    check_counterpart_phase,
    expected_min_fidelity,
    nmr_grid,
    quarter_turn_time,
    run_annealing_experiment,
    run_fast_counterpart_comparison,
    run_nmr_experiment,
    sweep_runtimes,
    track_ground_state,
)
from qxform.hamiltonians import (
    GroverProblem,
    IsingProblem,
    annealing_hamiltonian,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from qxform.operators import fidelity, minus_state
from qxform.propagation import (
    TimeGrid,
    nmr_fast_propagator,
    propagate,
    propagate_each,
    sample_trace,
)
from qxform.schedules import Constant, Harmonic, LinearRamp, NmrParams
from qxform.transform import compose_transform, control_residual, identity_transform, two_gate_realization

# the default t_final of a detuning-1 drive (splitting 1, drive rate 2)
QUARTER_TURN = quarter_turn_time(1.0)


def frame_propagator(p):
    """The rotated-frame closed form of the drive ``p``: the propagator of the
    frame's own drive, of zero splitting, rate d and strength g."""
    frame = NmrParams.harmonic(0.0, p.detuning, p.drive_strength)
    return lambda ts: nmr_fast_propagator(frame, ts)


def closed_form_fidelity(g, d, times):
    # independent oracle from the exact two-level solution:
    # F(t) = 1 - (d^2 / 4 kappa^2) sin^2(kappa t), kappa = sqrt(g^2 + d^2/4)
    kappa = math.sqrt(g * g + d * d / 4.0)
    return 1.0 - (d * d / (4.0 * kappa * kappa)) * np.sin(kappa * np.asarray(times)) ** 2


def test_expected_min_fidelity_where_its_denominator_underflows():
    # 4 g^2 + d^2 underflows to 0; the value is 4 g^2 / (4 g^2 + d^2) of the given floats
    g, d = 6.8899391480219e-310, 9.1040982351965e-308
    exact = 4 * Fraction(g) ** 2 / (4 * Fraction(g) ** 2 + Fraction(d) ** 2)
    assert abs(Fraction(expected_min_fidelity(g, d)) - exact) <= Fraction(1e-12) * exact


class TestTrackGroundState:
    def test_stationary_ground_state_stays_at_one(self):
        problem = IsingProblem(2, fields=(0.4, -0.7), couplings=((0, 1, 0.3),))
        h = annealing_hamiltonian(Constant(0.8), problem)  # time-independent
        trace = propagate(h, TimeGrid(0.0, 2.0, 200))
        psi0 = np.linalg.eigh(h.matrix(0.0))[1][:, 0]
        times, (values,) = track_ground_state(h, trace, psi0=psi0)
        assert np.min(values) >= 1.0 - 1e-12
        assert np.array_equal(times, trace.times)

    def test_matches_closed_form_oracle_pointwise(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        h = rotating_frame_hamiltonian(p)
        grid = TimeGrid(0.0, 6.0, 1200)
        trace = sample_trace(frame_propagator(p), grid)
        times, (values,) = track_ground_state(h, trace, psi0=minus_state(1))
        oracle = closed_form_fidelity(p.drive_strength, p.detuning, times)
        np.testing.assert_allclose(values, oracle, atol=1e-9)

    def test_values_stay_in_unit_interval(self):
        p = NmrParams.harmonic(1.0, 2.0, 3.0)
        h = rotating_frame_hamiltonian(p)
        grid = TimeGrid(0.0, 4.0, 500)
        trace = sample_trace(frame_propagator(p), grid)
        _, (values,) = track_ground_state(h, trace, psi0=minus_state(1))
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0 + 1e-12)

    def test_degenerate_cluster_uses_subspace_projection(self):
        # zero problem term: at the end the Hamiltonian vanishes and every
        # state lies in the (fully degenerate) ground manifold
        problem = IsingProblem(2, fields=(0.0, 0.0))
        h = annealing_hamiltonian(LinearRamp(1.0, 0.0, 1.0), problem)
        trace = propagate(h, TimeGrid(0.0, 1.0, 100))
        psi0 = np.linalg.eigh(h.matrix(0.0))[1][:, 0]
        _, (values,) = track_ground_state(h, trace, psi0=psi0)
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_tracking_lost_truncates_the_times(self):
        # storing only the endpoints of a full basis swap (|---> to |111>)
        # leaves no overlap above the floor to follow
        problem = IsingProblem(3, fields=(1.0, 1.0, 1.0))
        t_final = 0.5
        h = annealing_hamiltonian(LinearRamp(8.0, 0.0, t_final), problem)
        grid = TimeGrid(0.0, t_final, 1000)
        trace = propagate(h, grid, stride=1000)  # stores only t=0 and t=T
        psi0 = np.linalg.eigh(h.matrix(0.0))[1][:, 0]
        times, (values,) = track_ground_state(h, trace, psi0=psi0)
        assert times.tolist() == [0.0] and len(values) == 1

    @pytest.mark.parametrize("dims", [(4,), (2, 4)], ids=["alone", "after-a-matching-trace"])
    def test_a_trace_of_another_dimension_is_refused_before_any_decomposition(self, dims, monkeypatch):
        # refused before the first eigendecomposition, which a wrong dimension would waste
        monkeypatch.setattr(experiments, "_eigh_blocks", None)
        grid = TimeGrid(0.0, 1.0, 4)
        traces = [identity_transform(grid, dim) for dim in dims]
        h = rotating_frame_hamiltonian(NmrParams.harmonic(1.0, 1.5, 2.0))
        message = "the Hamiltonian has dimension 2 but a tracked trace has dimension 4"
        with pytest.raises(ValueError, match=f"^{message}$"):
            track_ground_state(h, *traces, psi0=minus_state(1))


def _state_gate_callers():
    """(id, call taking a dim-2 state, the name it gives a state with a bad
    norm, the name it gives a state of the wrong shape) for every library
    entry point that takes a state vector."""
    grid = TimeGrid(0.0, 1.0, 4)
    trace = identity_transform(grid, 2)
    h = annealing_hamiltonian(Constant(1.0), IsingProblem(1, (0.5,)))
    e0 = np.eye(2)[0]
    return [
        ("fidelity-first", lambda psi: fidelity(psi, e0), "first state", "second state"),
        ("fidelity-second", lambda psi: fidelity(e0, psi), "second state", "second state"),
        ("apply", trace.apply, "initial state", "initial state"),
        ("two-gate", lambda psi: two_gate_realization(trace, trace, psi), "initial state", "initial state"),
        ("track", lambda psi: track_ground_state(h, trace, psi0=psi), "initial state", "initial state"),
    ]


@pytest.mark.parametrize("caller", _state_gate_callers(), ids=lambda c: c[0])
class TestStateGate:
    """One gate takes every state vector: a NaN or infinite entry, a norm off
    1 by more than 1e-9 or a wrong shape is a ValueError naming the state."""

    @pytest.mark.parametrize(
        "psi, defect",
        [([math.nan, 0.0], "nan"), ([math.inf, 0.0], "inf"), ([1.1, 0.0], "1.000e-01")],
        ids=["nan", "inf", "norm-1.1"],
    )
    def test_bad_norm_is_refused_naming_the_state(self, caller, psi, defect):
        # NaN and inf passed the gate's old test, defect > 1e-9
        _, call, name, _ = caller
        with pytest.raises(ValueError, match=rf"^{name} is not normalized \(defect {re.escape(defect)}\)$"):
            call(np.array(psi))

    def test_wrong_shape_is_refused_naming_the_state(self, caller):
        _, call, _, name = caller
        with pytest.raises(ValueError, match=rf"^state dimension mismatch: {name} has shape \((2|4),\), expected \((2|4),\)$"):
            call(np.eye(4)[0])

    def test_a_defect_within_1e_9_passes(self, caller):
        _, call, _, _ = caller
        call(np.array([1.0 + 5e-10, 0.0]))


class TestNmrExperiment:
    def test_min_fidelity_matches_closed_form(self):
        r, curves = run_nmr_experiment(1.0, 2.0, 25.0, nmr_grid(QUARTER_TURN, 1571))
        assert r["detuning"] == 1.0
        min_fidelity = r["min_fidelity"]
        assert min_fidelity == np.min(curves["fidelity"][1])
        assert abs(min_fidelity - expected_min_fidelity(25.0, 1.0)) < 1e-6
        assert min_fidelity == pytest.approx(1.0 - 1.0 / 2501.0, abs=1e-6)
        # the numerically propagated curve tracks the closed form at the
        # integrator's second-order error level
        assert abs(r["numeric_min_fidelity"] - expected_min_fidelity(25.0, 1.0)) < 1e-3

    def test_deficit_shrinks_fourfold_when_doubling_strength(self):
        r1, _ = run_nmr_experiment(1.0, 2.0, 25.0, nmr_grid(QUARTER_TURN, 1571))
        r2, _ = run_nmr_experiment(1.0, 2.0, 50.0, nmr_grid(QUARTER_TURN, 1571))
        ratio = (1.0 - r1["min_fidelity"]) / (1.0 - r2["min_fidelity"])
        assert ratio == pytest.approx(4.0, abs=0.1)

    def test_zero_splitting_gives_identity_transform(self):
        # with no splitting the fast and slow pictures coincide
        grid = nmr_grid(3.0, 600)
        r, _ = run_nmr_experiment(0.0, 1.5, 2.0, grid)
        assert r["composed_vs_closed_form"] < 1e-12
        # the closed-form frame change the run composes, on its grid
        p = NmrParams.harmonic(0.0, 1.5, 2.0)
        composed = compose_transform(
            sample_trace(lambda ts: nmr_fast_propagator(p, ts), grid),
            sample_trace(frame_propagator(p), grid),
        )
        for m in composed.matrices[:: 100]:
            assert np.linalg.norm(m - np.eye(2)) < 1e-12

    def test_default_t_final_is_a_quarter_turn_without_overflow(self):
        # pi / (2 |d|) bit for bit wherever 2 |d| is finite; where it is not,
        # the old formula gave t_final = 0 and an error that named no field
        for d in (1.0, -3.7, 1e-300, 1e300):
            assert quarter_turn_time(d) == math.pi / (2.0 * abs(d))
        for d in (0.0, 1e308, -1.7e308, math.inf):
            with pytest.raises(ValueError, match="give t_final|t_final must be given"):
                quarter_turn_time(d)
        with pytest.raises(ValueError, match="quarter turn"):
            quarter_turn_time(NmrParams.harmonic(1e308, 2.0, 25.0).detuning)

    def test_working_set_grows_by_less_than_the_traces_it_once_held(self):
        # every trace is dropped after its last reader and the fine control
        # is reduced before any coarse trace exists; holding every trace to
        # the end grew the tracemalloc peak by 710 B per added coarse node
        def peak(n_steps):
            tracemalloc.start()
            try:
                run_nmr_experiment(1.0, 2.0, 25.0, nmr_grid(QUARTER_TURN, n_steps))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_nmr_experiment(1.0, 2.0, 25.0, nmr_grid(QUARTER_TURN, 64))  # one-time allocations
        growth = (peak(16_000) - peak(8_000)) / 8_000
        assert growth <= 400, growth

    def test_one_step_grid_is_refused(self):
        # the run takes its grid ready-made, so a refused grid never reaches a propagation
        with pytest.raises(ValueError, match="a frame change needs at least 2 steps"):
            nmr_grid(QUARTER_TURN, 1)

    @pytest.mark.parametrize(
        "t_final, n_steps, nodes",
        [(1.0, 16_777_216, 33_554_433), (20_000.0, None, 40_000_001)],
        ids=["given", "default"],
    )
    def test_control_past_the_trace_bound_is_refused(self, t_final, n_steps, nodes):
        # the control's refined grid stores 2 n_steps + 1 unitaries of dimension 2,
        # 64 bytes each: 16_777_215 steps keep them within 2 GiB, one more does not
        assert nmr_grid(1.0, 16_777_215).n_steps == 16_777_215
        with pytest.raises(ValueError, match=f"^storing {nodes} unitaries of dimension 2 needs"):
            nmr_grid(t_final, n_steps)

    def test_subnormal_step_is_refused(self):
        for n_steps in (16, None):
            with pytest.raises(ValueError, match="below the smallest normal float"):
                nmr_grid(1e-310, n_steps)

    def test_unrefinable_grid_is_refused_before_any_propagation(self, monkeypatch):
        # dt is normal and dt/2 is not: the grid is accepted, and the control's
        # refinement refuses it before the run or the verify-transform path
        # propagates anything
        grid = nmr_grid(1.5 * 16 * sys.float_info.min, 16)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return propagate_each(*args, **kwargs)

        monkeypatch.setattr(experiments, "propagate_each", spy)
        with pytest.raises(ValueError, match="below the smallest normal float"):
            run_nmr_experiment(1.0, 2.0, 25.0, grid)
        p = NmrParams.harmonic(1.0, 2.0, 25.0)
        lab, frame = nmr_hamiltonian(p), rotating_frame_hamiltonian(p)
        with pytest.raises(ValueError, match="below the smallest normal float"):
            control_residual(lab, frame, compose_transform(*spy((lab, frame), grid.refined())))
        assert calls == []

    def test_vanishing_detuning_needs_explicit_final_time(self):
        with pytest.raises(ValueError, match="t_final"):
            quarter_turn_time(NmrParams.harmonic(1.0, 1.0, 2.0).detuning)

    def test_drive_past_the_float_range_is_refused_by_name(self):
        # 2 g overflows in the closed forms' generator 2 g X - d Z; g itself
        # is finite, so the numeric propagations alone would run
        with pytest.raises(ValueError, match=r"the drive generator 2 g X - d Z overflows at g = 1e\+308"):
            run_nmr_experiment(1.0, 2.0, 1e308, nmr_grid(QUARTER_TURN, 16))

    def test_report_health(self):
        r, _ = run_nmr_experiment(1.0, 1.5, 2.0, nmr_grid(5.0, 2000))
        assert r["max_unitarity_defect"] <= 1e-10
        assert r["two_gate_fidelity_composed"] >= 1.0 - 1e-12
        assert r["transform_model_passed"]
        assert r["adiabaticity_ratio"] == pytest.approx(2.0 / 0.5)


class TestAnnealingRuns:
    def test_energies_spanning_past_the_float_range_are_refused(self):
        # every diagonal entry is +-1e308, finite, but their span 2e308 is not:
        # the problem is refused when built, so no run is handed it
        message = r"the problem energies span from -1e\+308 to 1e\+308, past the float range"
        with pytest.raises(ValueError, match=message):
            IsingProblem(4, fields=(1e308, 0.0, 0.0, 0.0))

    def test_frozen_transverse_field_off_is_stationary(self):
        result = run_annealing_experiment(GroverProblem(2, 3), TimeGrid(0.0, 1.0, 400), transverse0=0.0)
        assert result["success_probability"] == pytest.approx(1.0, abs=1e-12)
        assert result["final_fidelity_vs_marked"] == pytest.approx(1.0, abs=1e-12)

    def test_sudden_quench_keeps_uniform_population(self):
        # a dominant initial transverse field puts the exact ground state at
        # |->^n, so freezing the state leaves 2^-n on the marked state
        result = run_annealing_experiment(GroverProblem(2, 3), TimeGrid(0.0, 1e-6, 400), transverse0=50.0)
        assert abs(result["success_probability"] - 0.25) < 0.01
        assert result["initial_minus_overlap"] > 0.999

    def test_initial_state_overlap_reported(self):
        result = run_annealing_experiment(GroverProblem(3, 7), TimeGrid(0.0, 1.0, 400))
        assert 0.99 < result["initial_minus_overlap"] < 1.0

    def test_adequate_runtime_reaches_marked_state(self):
        result = run_annealing_experiment(GroverProblem(2, 3), anneal_grid(16.0))
        assert result["success_probability"] >= 0.9

    def test_ising_ground_manifold_population(self):
        problem = IsingProblem(2, fields=(0.6, 0.6), couplings=((0, 1, -0.5),))
        result = run_annealing_experiment(problem, anneal_grid(24.0))
        assert "final_fidelity_vs_marked" not in result
        assert result["success_probability"] >= 0.9
        assert result["min_gap"] > 0.0

    @pytest.mark.parametrize("n_qubits,marked", [(2, 3), (3, 7), (4, 11)])
    def test_doubling_sweep_success_is_non_decreasing(self, n_qubits, marked):
        points = annealing_doubling_sweep(
            GroverProblem(n_qubits, marked), t_initial=1.0, doublings=5
        )
        success = [p["success_probability"] for p in points]
        assert all(a <= b + 1e-12 for a, b in zip(success, success[1:]))
        assert points[0]["runtime_t"] == 1.0
        assert points[-1]["runtime_t"] == 32.0

    def test_sweep_sharding_does_not_change_results(self):
        problem = GroverProblem(2, 1)
        seq = annealing_doubling_sweep(problem, t_initial=1.0, doublings=2, jobs=1)
        par = annealing_doubling_sweep(problem, t_initial=1.0, doublings=2, jobs=2)
        assert seq == par

    @pytest.mark.parametrize("t_initial, doublings", [(1.0, 19), (1.0, 40), (1.0, 1100), (1e300, 0)])
    def test_sweep_beyond_the_step_limit_is_refused_before_any_point_runs(
        self, t_initial, doublings, monkeypatch
    ):
        def run_point(problem, grid, transverse0):
            raise AssertionError(f"a sweep point ran at t_final={grid.t_end}")

        monkeypatch.setattr(experiments, "run_annealing_experiment", run_point)
        with pytest.raises(ValueError, match="exceeds the limit of 1e\\+08 steps"):
            annealing_doubling_sweep(GroverProblem(2, 1), t_initial=t_initial, doublings=doublings)

    def test_sweep_with_a_subnormal_first_step_is_refused_before_any_point_runs(self, monkeypatch):
        # 400 steps of a 1e-310 runtime; the main run of the CLI went first
        # and the first point then failed naming no field
        def run_point(problem, grid, transverse0):
            raise AssertionError(f"a sweep point ran at t_final={grid.t_end}")

        monkeypatch.setattr(experiments, "run_annealing_experiment", run_point)
        with pytest.raises(ValueError, match="a grid step of 2.5e-313 is below the smallest normal float"):
            annealing_doubling_sweep(GroverProblem(2, 1), t_initial=1e-310, doublings=3)

    @pytest.mark.parametrize(
        "t_final, n_steps, expected", [(1.0, None, 400), (2.5, None, 500), (2.0, 7, 7), (1e6, 10**8, 10**8)]
    )
    def test_anneal_steps(self, t_final, n_steps, expected):
        assert anneal_grid(t_final, n_steps).n_steps == expected

    def test_sweep_runtimes_reach_the_step_limit_inclusively(self):
        # the default rule takes ceil(200 t) steps: 200 * 2^18 and 200 * 5e5 fit
        assert sweep_runtimes(1.0, 18) == [2.0**k for k in range(19)]
        assert sweep_runtimes(5e5, 0) == [5e5]
        with pytest.raises(ValueError, match="exceeds the limit"):
            sweep_runtimes(5e5, 1)

    @pytest.mark.parametrize(
        "jobs,n_points,n_cpus,expected",
        [(1, 7, 2, 1), (2, 7, 2, 2), (64, 7, 2, 2), (64, 3, 16, 3), (64, 7, None, 1)],
    )
    def test_sweep_workers_clamped(self, jobs, n_points, n_cpus, expected):
        assert _sweep_workers(jobs, n_points, n_cpus) == expected

    @pytest.mark.parametrize("affinity, expected", [({0}, 1), ({0, 1}, 2), (None, 2)], ids=["pinned", "both", "none"])
    def test_sweep_workers_count_the_cpus_the_process_may_run_on(self, monkeypatch, affinity, expected):
        # as under taskset -c 0 on two CPUs: cpu_count() reads 2, the affinity set
        # holds 1 CPU; a platform without sched_getaffinity falls back to cpu_count()
        import concurrent.futures

        pools = []

        class Pool:  # runs the points in this process, recording the pool size
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        if affinity is None:
            monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(
            experiments, "run_annealing_experiment", lambda problem, grid, transverse0: {"runtime_t": grid.t_end}
        )
        annealing_doubling_sweep(GroverProblem(2, 1), t_initial=1.0, doublings=2, jobs=2)
        assert pools == ([] if expected == 1 else [expected])

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, math.nan])
    def test_sweep_workers_rejects_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            _sweep_workers(jobs, 7, 2)

    @pytest.mark.parametrize(
        "doublings, message",
        [
            (2.5, r"^doublings must be a whole number, got 2\.5$"),
            (math.nan, r"^doublings must be a whole number, got nan$"),
            (-1, r"^doublings must be at least 0, got -1$"),
        ],
    )
    def test_doublings_must_be_a_whole_number_of_at_least_zero(self, doublings, message, monkeypatch):
        # 2.5 once ran 3 points, NaN raised int()'s bare message and -1 ran none
        def run_point(problem, grid, transverse0):
            raise AssertionError(f"a sweep point ran at t_final={grid.t_end}")

        monkeypatch.setattr(experiments, "run_annealing_experiment", run_point)
        with pytest.raises(ValueError, match=message):
            sweep_runtimes(1.0, doublings)
        with pytest.raises(ValueError, match=message):
            annealing_doubling_sweep(GroverProblem(2, 1), t_initial=1.0, doublings=doublings)

    def test_integral_float_doublings_is_its_int(self):
        assert sweep_runtimes(1.0, 2.0) == sweep_runtimes(1.0, 2) == [1.0, 2.0, 4.0]


class TestFastCounterpart:
    def test_zero_phase_is_exact_equivalence(self):
        report = run_fast_counterpart_comparison(GroverProblem(2, 3), Constant(0.0), TimeGrid(0.0, 1.0, 2000))
        assert report["counterpart_fidelity"] >= 1.0 - 1e-12

    def test_rotating_frame_grover(self):
        report = run_fast_counterpart_comparison(
            GroverProblem(3, 7), Harmonic(10 * math.pi), TimeGrid(0.0, 2.0, 10_000)
        )
        assert report["counterpart_fidelity"] >= 1.0 - 1e-8
        assert report["counterpart_two_gate_fidelity"] >= 1.0 - 1e-12
        assert report["counterpart_max_unitarity_defect"] <= 1e-10

    def test_rotating_frame_ising_chain(self):
        problem = IsingProblem(
            4, fields=(0.5, 0.5, 0.5, 0.5),
            couplings=((0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0)),
        )
        report = run_fast_counterpart_comparison(problem, Harmonic(10 * math.pi), TimeGrid(0.0, 2.0, 10_000))
        assert report["counterpart_fidelity"] >= 1.0 - 1e-8

    def test_transform_matches_product_of_x_rotations(self):
        report = run_fast_counterpart_comparison(
            GroverProblem(2, 2), Harmonic(4 * math.pi), TimeGrid(0.0, 1.0, 5000)
        )
        assert report["counterpart_transform_distance"] < 1e-4

    def test_nonzero_initial_phase_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            run_fast_counterpart_comparison(GroverProblem(2, 3), Constant(0.3), TimeGrid(0.0, 1.0, 100))

    def test_phase_nan_at_zero_rejected(self):
        # abs(nan) > 1e-12 is False, so the check must be written to fail on NaN
        with pytest.raises(ValueError, match="vanish"):
            check_counterpart_phase(Constant(math.nan), 1.0)

    def test_phase_short_of_the_grid_rejected_before_propagating(self):
        with pytest.raises(ValueError, match=r"^time 2\.0 outside schedule domain \[0, 1\.0\]$"):
            run_fast_counterpart_comparison(
                GroverProblem(2, 3), LinearRamp(0.0, 1.0, 1.0), TimeGrid(0.0, 2.0, 100)
            )


class TestFidelityExport:
    def test_csv(self, tmp_path):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        h = rotating_frame_hamiltonian(p)
        grid = TimeGrid(0.0, 1.0, 50)
        trace = sample_trace(frame_propagator(p), grid)
        times, (values,) = track_ground_state(h, trace, psi0=minus_state(1))
        path = tmp_path / "fidelity.csv"
        write_csv_curve(path, times, values)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == len(times) + 1
