import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qxform.operators as operators
import qxform.propagation as propagation
from qxform.hamiltonians import (
    IsingProblem,
    annealing_hamiltonian,
    fast_counterpart_hamiltonian,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from qxform.operators import fidelity, hermitian_expm, phase_aligned_distance
from qxform.propagation import (
    MAX_STEPS,
    TimeGrid,
    UnitarityError,
    UnitaryTrace,
    _batch_defects,
    _check_stored,
    _node_times,
    nmr_fast_propagator,
    propagate,
    propagate_each,
    sample_trace,
)
from qxform.schedules import Constant, Harmonic, LinearRamp, NmrParams
from qxform.transform import compose_transform, control_residual, verify_transform

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def constant_z_hamiltonian(w0):
    return nmr_hamiltonian(NmrParams(Constant(w0), 1e-30, Constant(0.0)))


def frame_drive(p):
    """The drive the frame rotating at p's detuning sees: zero splitting,
    rate d, the same strength."""
    return NmrParams.harmonic(0.0, p.detuning, p.drive_strength)


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(0.0, 2.0, 4)
        assert g.dt == 0.5
        trace = sample_trace(lambda ts: hermitian_expm(Z, ts), g)
        np.testing.assert_array_equal(trace.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.refined().n_steps == 8

    def test_value_equality_and_repr(self):
        # the grid checks compare grids, and two control refusals print them
        g = TimeGrid(0.0, 1.0, 4)
        assert g == TimeGrid(0.0, 1.0, 4.0) and hash(g) == hash(TimeGrid(0.0, 1.0, 4))
        assert g != TimeGrid(0.0, 1.0, 8) and g != TimeGrid(0.0, 2.0, 4)
        assert g != (0.0, 1.0, 4)
        assert repr(g) == "TimeGrid(t_start=0.0, t_end=1.0, n_steps=4)"

    def test_validation(self):
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="t_end"):
            TimeGrid(1.0, 1.0, 5)

    @pytest.mark.parametrize(
        "n_steps, shown",
        [
            # six digits would read as the limit: the count is given in full
            (MAX_STEPS + 1, "100000001"),
            (1e8 + 0.5, "100000000.5"),
            (10**12, "1e+12"),
            (2e302, "2e+302"),
            (math.inf, "inf"),
            (math.nan, "nan"),
            # an integer no float holds, never converted to one
            (10**400, "more than 1.79769e+308"),
        ],
        ids=["limit-plus-one", "limit-plus-half", "1e12", "2e302", "inf", "nan", "401-digits"],
    )
    def test_step_limit(self, n_steps, shown):
        message = f"a grid of {shown} steps exceeds the limit of 1e+08 steps"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TimeGrid(0.0, 1.0, n_steps)

    @given(st.integers(1, 200_000))
    def test_node_times_are_linspace_bits(self, n_steps):
        # the drive check reads its nodes through _node_times, one block at a time
        nodes = _node_times(TimeGrid(0.0, 1.0, n_steps), np.arange(n_steps + 1))
        assert np.array_equal(nodes, np.linspace(0.0, 1.0, n_steps + 1))

    @pytest.mark.parametrize("n_steps", [2.5, np.float64(10.25), 1e8 - 0.5])
    def test_fractional_step_count_is_refused_naming_it(self, n_steps):
        with pytest.raises(ValueError, match=re.escape(f"n_steps must be a whole number, got {n_steps}")):
            TimeGrid(0.0, 1.0, n_steps)

    def test_negative_infinite_step_count_is_refused_naming_it(self):
        # -inf passes the step limit; int() of it raised a bare OverflowError
        with pytest.raises(ValueError, match="^n_steps must be a whole number, got -inf$"):
            TimeGrid(0.0, 1.0, -math.inf)

    @pytest.mark.parametrize("n_steps", [10, np.int64(10), np.int32(10), 10.0])
    def test_whole_step_counts_are_accepted_as_int(self, n_steps):
        grid = TimeGrid(0.0, 1.0, n_steps)
        assert grid.n_steps == 10 and type(grid.n_steps) is int

    def test_step_limit_is_inclusive(self):
        assert TimeGrid(0.0, 1.0, MAX_STEPS).n_steps == MAX_STEPS

    @pytest.mark.parametrize("t_end, n_steps", [(1e-310, 16), (1e-300, 10**8), (5e-324, 1)])
    def test_subnormal_step_is_refused(self, t_end, n_steps):
        # node times n * dt would lose their low bits, and a central
        # difference would divide by a step with fewer significant bits
        with pytest.raises(ValueError, match="below the smallest normal float"):
            TimeGrid(0.0, t_end, n_steps)

    def test_smallest_normal_step_is_accepted(self):
        grid = TimeGrid(0.0, 16 * sys.float_info.min, 16)
        assert grid.dt == sys.float_info.min

    def test_ends_past_half_the_largest_float_are_refused(self):
        # the midpoint sum t_0 + t_1 of this grid overflowed: a numpy warning,
        # then "coefficient of Pauli term X0 is nan at t=inf", naming no end
        h = nmr_hamiltonian(NmrParams.harmonic(0.0, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^t_end = 1\.7e\+308 exceeds half the largest float"):
                propagate(h, TimeGrid(0.0, 1.7e308, 2))
            with pytest.raises(ValueError, match=r"^t_start = -1\.7e\+308 exceeds half the largest float"):
                TimeGrid(-1.7e308, 0.0, 2)
        assert TimeGrid(-sys.float_info.max / 2, sys.float_info.max / 2, 2).dt == sys.float_info.max / 2


class TestPropagate:
    def test_commuting_constant_generator_is_exact(self):
        # diagonal generator: U(t) = diag(exp(-i w0 t / 2), exp(+i w0 t / 2))
        w0 = 1.7
        trace = propagate(constant_z_hamiltonian(w0), TimeGrid(0.0, 3.0, 300))
        for k in (0, 100, 300):
            t = trace.times[k]
            expected = np.diag([np.exp(-1j * w0 * t / 2), np.exp(1j * w0 * t / 2)])
            assert np.linalg.norm(trace.matrices[k] - expected) < 1e-12

    def test_zero_hamiltonian_stays_identity(self):
        problem = IsingProblem(2, fields=(0.0, 0.0))
        h = annealing_hamiltonian(Constant(0.0), problem)
        trace = propagate(h, TimeGrid(0.0, 1.0, 50))
        for u in trace.matrices:
            assert np.linalg.norm(u - np.eye(4)) == 0.0

    def test_nmr_benchmark_against_analytic_oracle(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        grid = TimeGrid(0.0, 10.0, 2500)  # dt = 4e-3
        trace = propagate(nmr_hamiltonian(p), grid)
        worst = max(
            phase_aligned_distance(trace.matrices[k], nmr_fast_propagator(p, float(trace.times[k])))
            for k in range(0, len(trace.times), 25)
        )
        assert worst < 5e-5

    def test_composition_over_subintervals(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        h = nmr_hamiltonian(p)
        first = propagate(h, TimeGrid(0.0, 0.8, 400))
        second = propagate(h, TimeGrid(0.8, 2.0, 600))
        union = propagate(h, TimeGrid(0.0, 2.0, 1000))
        lhs = second.final @ first.final
        assert np.linalg.norm(lhs - union.final) < 1e-10

    def test_unitarity_defects_within_limit(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        trace = propagate(nmr_hamiltonian(p), TimeGrid(0.0, 10.0, 5000))
        assert trace.max_defect <= 1e-10

    def test_stride_keeps_endpoints(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        grid = TimeGrid(0.0, 1.0, 103)
        trace = propagate(nmr_hamiltonian(p), grid, stride=10)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == 1.0
        assert len(trace.times) == 12
        full = propagate(nmr_hamiltonian(p), grid)
        np.testing.assert_allclose(trace.final, full.final, atol=1e-14)

    def test_infinite_drive_fails_loudly(self):
        # an infinite drive fails by name before any matrix is assembled
        h = nmr_hamiltonian(NmrParams.harmonic(1.0, 2.0, math.inf))
        # the first midpoint is t = 1/32, where g cos(phase) is the first bad coefficient
        with pytest.raises(ValueError, match=r"Pauli term X0 is inf at t=0\.03125$"):
            propagate(h, TimeGrid(0.0, 1.0, 16))
        # at t = 0, Y0's inf * sin(0) is NaN; that raises no numpy warning either
        with pytest.raises(ValueError, match=r"Pauli term X0 is inf at t=0\.0$"):
            h.matrix(0.0)

    def test_memory_guard_suggests_stride(self):
        problem = IsingProblem(10, fields=(0.0,) * 10)
        h = annealing_hamiltonian(Constant(0.0), problem)

        def refused():
            with pytest.raises(ValueError, match="stride"):
                propagate(h, TimeGrid(0.0, 1.0, 200_000))

        # the request is refused before anything is allocated per node
        assert traced_peak(refused) < 2**20

    def test_memory_guard_refuses_before_allocating(self):
        problem = IsingProblem(10, fields=(0.0,) * 10)
        h = annealing_hamiltonian(Constant(0.0), problem)

        def refused():
            # 201 stored unitaries of dimension 1024 would take about 3.1 GiB
            with pytest.raises(ValueError, match=r"~3\.1 GiB; increase the stride"):
                propagate(h, TimeGrid(0.0, 1.0, 200), stride=1)

        assert traced_peak(refused) < 2**20

    def test_memory_guard_counts_every_lockstep_member(self):
        problem = IsingProblem(10, fields=(0.0,) * 10)
        h = annealing_hamiltonian(Constant(0.0), problem)

        def refused():
            # two members of 100 stored unitaries of dimension 1024 each take
            # about 3.1 GiB, though one member alone takes 1.6 GiB
            with pytest.raises(ValueError, match=r"storing 200 unitaries of dimension 1024 needs ~3\.1 GiB"):
                propagate_each((h, h), TimeGrid(0.0, 1.0, 99), stride=1)

        assert traced_peak(refused) < 2**20

    def test_sampled_trace_over_the_bound_is_refused_after_its_first_sample(self):
        # 513 sampled unitaries of dimension 512 take 513 x 4 MiB, just over
        # 2 GiB; the first sample fixes d, and no second one is asked for
        calls = []

        def sampler(ts):
            calls.append(len(ts))
            if len(calls) > 1:
                raise AssertionError("sampled past the storage bound")
            return np.eye(512, dtype=complex)[None]

        def refused():
            with pytest.raises(ValueError, match=r"storing 513 unitaries of dimension 512 needs ~2\.0 GiB; take fewer steps$"):
                sample_trace(sampler, TimeGrid(0.0, 1.0, 512))

        # the first sample is 4 MiB; nothing is allocated per node
        assert traced_peak(refused) < 5 * 2**20
        assert calls == [1]

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        h = constant_z_hamiltonian(1.0)
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError, match=f"stride must be at least 1, got {stride}"):
            propagate(h, grid, stride=stride)

    @pytest.mark.parametrize("stride", [2.5, np.float64(0.5)])
    def test_fractional_stride_is_refused_naming_it(self, stride):
        h = constant_z_hamiltonian(1.0)
        with pytest.raises(ValueError, match=re.escape(f"stride must be a whole number, got {stride}")):
            propagate_each((h,), TimeGrid(0.0, 1.0, 10), stride=stride)

    @pytest.mark.parametrize(
        "stride", [math.nan, math.inf, -math.inf, np.float64(math.nan)], ids=["nan", "inf", "-inf", "numpy-nan"]
    )
    def test_non_finite_stride_is_refused_naming_it(self, stride):
        # int() raised a bare ValueError for NaN and an OverflowError for +-inf
        h = constant_z_hamiltonian(1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(f'stride must be a whole number, got {stride}')}$"):
            propagate_each((h,), TimeGrid(0.0, 1.0, 10), stride=stride)

    @pytest.mark.parametrize("stride", [2.5, math.nan, 0])
    def test_a_trace_is_built_only_with_a_whole_stride(self, stride):
        # the stride reads the stored node times, which a fraction would place off the grid
        mats = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        with pytest.raises(ValueError, match="^stride must be "):
            UnitaryTrace(TimeGrid(0.0, 1.0, 4), stride, mats)

    @pytest.mark.parametrize("stride", [2, np.int64(2), 2.0])
    def test_whole_strides_are_accepted(self, stride):
        (trace,) = propagate_each((constant_z_hamiltonian(1.0),), TimeGrid(0.0, 1.0, 10), stride=stride)
        assert trace.stride == 2 and len(trace.matrices) == 6

    @pytest.mark.parametrize("n_steps", [1, 9, 10, 11, 103])
    @pytest.mark.parametrize("stride", [1, 3, 10, 200])
    def test_stored_nodes_are_every_stride_th_and_the_last(self, n_steps, stride):
        trace = propagate(constant_z_hamiltonian(1.0), TimeGrid(0.0, 1.0, n_steps), stride=stride)
        expected = sorted({*range(0, n_steps + 1, stride), n_steps})
        np.testing.assert_array_equal(trace.times, np.linspace(0.0, 1.0, n_steps + 1)[expected])

    @pytest.mark.parametrize("driven", [False, True])
    def test_working_set_is_one_block_plus_the_stored_nodes(self, driven):
        # the 4-qubit anneal of configs/ising.json, or its rapidly driven counterpart
        chain = ((0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0))
        problem = IsingProblem(4, fields=(0.5,) * 4, couplings=chain)
        ramp = LinearRamp(2.0, 0.0, 2.0)
        if driven:
            h = fast_counterpart_hamiltonian(ramp, problem, Harmonic(10 * np.pi))
        else:
            h = annealing_hamiltonian(ramp, problem)
        peaks = {
            n: traced_peak(lambda: propagate(h, TimeGrid(0.0, 2.0, n), stride=20_000))
            for n in (10_000, 20_000)
        }
        assert peaks[20_000] < 8 * 2**20
        # both grids store two nodes, so nothing may grow with the step
        # count beyond 16 KiB of bookkeeping; a block is 512 KiB
        assert peaks[20_000] - peaks[10_000] <= 2**14, peaks

    @pytest.mark.parametrize("n_steps", [1, 128, 129, 1000])
    def test_each_lockstep_member_takes_a_whole_block(self, n_steps, monkeypatch):
        # one exponential per block of _block_rows(dim) steps of every member
        real, calls = propagation._hermitian_expm_stack, []

        def counted(generators, dt, **buffers):
            calls.append(len(generators))
            return real(generators, dt, **buffers)

        monkeypatch.setattr(propagation, "_hermitian_expm_stack", counted)
        pair = [annealing_hamiltonian(LinearRamp(1.0, 0.0, 1.0), IsingProblem(4, fields=(f,) * 4)) for f in (0.5, 0.3)]
        propagate_each(pair, TimeGrid(0.0, 1.0, n_steps))
        rows = operators._block_rows(16)
        assert len(calls) == -(-n_steps // rows)
        assert calls == [2 * min(rows, n_steps - lo) for lo in range(0, n_steps, rows)]

    def test_lockstep_pair_working_set_is_two_blocks_and_the_eigenvectors(self):
        # the counterpart pair of configs/ising.json: its midpoint Hamiltonians
        # turn into its steps in one buffer, conj(V) into U in the other, next
        # to eigh's vectors; fresh conj(V) and step stacks would read 5.1 MiB
        chain = ((0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0))
        problem = IsingProblem(4, fields=(0.5,) * 4, couplings=chain)
        ramp = LinearRamp(2.0, 0.0, 2.0)
        pair = (annealing_hamiltonian(ramp, problem), fast_counterpart_hamiltonian(ramp, problem, Harmonic(10 * np.pi)))
        kept = []
        peak = traced_peak(lambda: kept.extend(propagate_each(pair, TimeGrid(0.0, 2.0, 4_000), stride=20)))
        returned = sum(trace.matrices.nbytes for trace in kept)
        assert peak - returned <= 3.5 * 2**20, (peak, returned)

    def test_analysis_working_set_is_one_block_plus_the_returned_arrays(self):
        # the frame check of configs/nmr.json at dim 2: reduce the control,
        # compose the transform and verify it; the traces composed are built
        # first, and so is the control's transform on the refined grid that
        # control_residual reduces: its 128 B per coarse node exceed the 80 B
        # returned, so building it inside would set the peak
        p = NmrParams.harmonic(1.0, 2.0, 25.0)
        lab, frame = nmr_hamiltonian(p), rotating_frame_hamiltonian(p)

        def closed_forms(grid):
            return tuple(
                sample_trace(lambda ts: nmr_fast_propagator(q, ts), grid) for q in (p, frame_drive(p))
            )

        peaks, returned = {}, {}
        for n in (10_000, 20_000):
            grid = TimeGrid(0.0, 1.0, n)
            coarse, fine = closed_forms(grid), compose_transform(*closed_forms(grid.refined()))
            kept = []

            def analysis():
                control = control_residual(lab, frame, fine)
                composed = compose_transform(*coarse)
                times, residuals = verify_transform(lab, frame, composed, control)[1]["residuals"]
                kept.extend((composed, times, residuals))

            peaks[n] = traced_peak(analysis)
            composed, times, residuals = kept
            arrays = (composed.matrices, times, residuals)
            returned[n] = sum(a.nbytes for a in arrays)
        # what grows beyond the per-node arrays returned is 16 KiB of
        # bookkeeping at most; a block is 512 KiB
        assert peaks[20_000] - peaks[10_000] <= returned[20_000] - returned[10_000] + 2**14, (
            peaks, returned
        )


class TestDefectGates:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_batch_defects_match_per_matrix(self, dim):
        # covers both sides of the einsum / batched-matmul switch
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(24, dim, dim)) + 1j * rng.normal(size=(24, dim, dim))
        us = np.linalg.qr(a)[0] + 1e-9 * rng.normal(size=(24, dim, dim))
        expected = [np.linalg.norm(u.conj().T @ u - np.eye(dim)) for u in us]
        np.testing.assert_allclose(_batch_defects(us), expected, rtol=0, atol=1e-14)

    def test_nan_stored_node_is_rejected(self):
        us = np.stack([np.eye(2, dtype=complex)] * 5)
        us[3, 0, 1] = np.nan
        with pytest.raises(UnitarityError, match="at step 6 ") as info:
            _check_stored(us, lambda k: 2 * k, "stored unitary")
        assert info.value.step_index == 6

    @pytest.mark.parametrize("n_qubits", [1, 3])
    def test_nan_step_is_refused_naming_its_step(self, n_qubits, monkeypatch):
        # one entry of step 11's unitary is NaN; blocks hold 4 steps
        real = propagation._hermitian_expm_stack
        blocks = []

        def poisoned(generators, dt, **buffers):
            steps = real(generators, dt, **buffers)
            if len(blocks) == 2:  # the third block: steps 8 to 11
                steps[3, 0, 1] = np.nan
            blocks.append(steps)
            return steps

        monkeypatch.setattr(propagation, "_hermitian_expm_stack", poisoned)
        h = annealing_hamiltonian(LinearRamp(1.0, 0.0, 1.0), IsingProblem(n_qubits, fields=(0.5,) * n_qubits))
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 4 * h.dim * h.dim)
        with pytest.raises(UnitarityError, match="^step unitary at step 11 has unitarity defect nan") as info:
            propagate(h, TimeGrid(0.0, 1.0, 20))
        assert info.value.step_index == 11 and math.isnan(info.value.defect)

    @pytest.mark.parametrize("first_fails_at", [None, 17, 5])
    def test_step_gate_failure_in_the_second_member_names_its_step(self, first_fails_at, monkeypatch):
        # a generator marked by a 3 off the diagonal gets its step scaled off
        # the unit circle; blocks hold 4 steps of each member
        def marked_at(step):
            class Marked:
                dim = 2

                def matrix_stack(self, ts):
                    out = np.zeros((len(ts), 2, 2), dtype=complex)
                    out[:, 0, 0], out[:, 1, 1] = 1.0, -1.0
                    bad = np.isclose(ts, (step + 0.5) / 20)
                    out[bad, 0, 1] = out[bad, 1, 0] = 3.0
                    return out

            return Marked()

        real = propagation._hermitian_expm_stack

        def leaky(generators, dt, **buffers):
            marked = generators[:, 0, 1] == 3.0  # read before the steps overwrite it
            steps = real(generators, dt, **buffers)
            steps[marked] *= 1.001
            return steps

        monkeypatch.setattr(propagation, "_hermitian_expm_stack", leaky)
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 4 * 2 * 2)
        first = constant_z_hamiltonian(1.0) if first_fails_at is None else marked_at(first_fails_at)
        # the earliest failing block across the pair is refused first, whichever
        # member fails in it: the second member's step 13 (block 3) before the
        # first member's step 17 (block 4), and the first member's step 5 before it
        expected = min(13, first_fails_at or 13)
        with pytest.raises(UnitarityError, match=f"^step unitary at step {expected} ") as info:
            propagate_each((first, marked_at(13)), TimeGrid(0.0, 1.0, 20))
        assert info.value.step_index == expected

    def test_members_of_different_dimensions_are_refused(self):
        problem = IsingProblem(2, fields=(0.5, 0.5))
        with pytest.raises(ValueError, match=r"one dimension, got \[2, 4\]$"):
            propagate_each(
                (constant_z_hamiltonian(1.0), annealing_hamiltonian(Constant(1.0), problem)),
                TimeGrid(0.0, 1.0, 10),
            )


class TestAnalyticPropagators:
    def test_identity_at_time_zero(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        np.testing.assert_allclose(nmr_fast_propagator(p, 0.0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(nmr_fast_propagator(frame_drive(p), 0.0), np.eye(2), atol=1e-15)

    def test_resonant_drive_reduces_to_x_rotation(self):
        # zero detuning: u(t) = exp(-i g X t) and the lab factor is the frame
        p = NmrParams.harmonic(1.0, 1.0, 0.7)
        t = 1.3
        np.testing.assert_allclose(
            nmr_fast_propagator(frame_drive(p), t), expm(-1j * 0.7 * X * t), atol=1e-13
        )
        np.testing.assert_allclose(
            nmr_fast_propagator(p, t),
            expm(-1j * 1.0 * Z * t / 2) @ expm(-1j * 0.7 * X * t),
            atol=1e-13,
        )

    @settings(max_examples=200)
    @given(
        st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(1e-3, 50.0), st.floats(0.0, 10.0)
    )
    def test_lab_over_frame_propagator_is_the_frame_rotation(self, s, r, g, t):
        # S(t) = U(t) u(t)^dag with u the propagator of the frame's own drive is
        # the rotation exp(-i s Z t / 2) that nmr_closed_form_transform samples,
        # exp(i (frame_phase - drive_phase) Z / 2) with frame_phase - drive_phase = -s t
        p = NmrParams.harmonic(s, r, g)
        transform = nmr_fast_propagator(p, t) @ nmr_fast_propagator(frame_drive(p), t).conj().T
        gap = np.linalg.norm(transform - hermitian_expm(Z, 0.5 * s * t))
        assert gap <= 1e-13 * (1.0 + (abs(r) + abs(s) + 2.0 * g) * t)

    def test_explicit_point_against_scipy_oracle(self):
        w0, w, g, t = 1.0, 1.5, 2.0, 0.7
        p = NmrParams.harmonic(w0, w, g)
        d = w - w0
        oracle = expm(-1j * w * Z * t / 2) @ expm(-1j * (2 * g * X - d * Z) * t / 2)
        np.testing.assert_allclose(nmr_fast_propagator(p, t), oracle, atol=1e-13)

    def test_solves_schrodinger_equation(self):
        # i dU/dt = H(t) U checked with a central difference

        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        h = nmr_hamiltonian(p)
        step = 1e-4
        for t in (0.5, 1.9, 6.0):
            du = (nmr_fast_propagator(p, t + step) - nmr_fast_propagator(p, t - step)) / (
                2 * step
            )
            residual = np.linalg.norm(1j * du - h.matrix(t) @ nmr_fast_propagator(p, t))
            assert residual < 1e-6

    def test_non_harmonic_phase_rejected(self):
        p = NmrParams(Constant(1.0), 1.0, LinearRamp(0.0, 2.0, 4.0))
        with pytest.raises(ValueError, match="rotating"):
            nmr_fast_propagator(p, 0.5)


class TestTraceAccess:
    def _trace(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        return propagate(nmr_hamiltonian(p), TimeGrid(0.0, 1.0, 10))

    def test_first_and_final(self):
        tr = self._trace()
        assert np.array_equal(tr.matrices[0], np.eye(2))
        assert np.array_equal(tr.final, tr.matrices[-1])
        assert tr.times[-1] == 1.0

    def test_apply(self):
        problem = IsingProblem(2, fields=(0.0, 0.0))
        h = annealing_hamiltonian(Constant(0.0), problem)
        tr = propagate(h, TimeGrid(0.0, 1.0, 20))
        psi = tr.apply(np.eye(4)[1])
        assert fidelity(psi, np.eye(4)[1]) == pytest.approx(1.0, abs=1e-14)

    def test_apply_global_phase_only_for_diagonal_generator(self):
        tr = propagate(constant_z_hamiltonian(2.0), TimeGrid(0.0, 1.0, 100))
        psi = tr.apply(np.eye(2)[0])
        assert fidelity(psi, np.eye(2)[0]) == pytest.approx(1.0, abs=1e-12)

    def test_apply_validates_state(self):
        tr = self._trace()
        with pytest.raises(ValueError, match="shape"):
            tr.apply(np.ones(4) / 2.0)
        with pytest.raises(ValueError, match="normalized"):
            tr.apply(np.array([1.0, 1.0]))


class TestTraceConstructor:
    """``UnitaryTrace(grid, stride, matrices, what)`` gates every trace: one
    (d, d) matrix per stored node, each within the defect limit."""

    @pytest.mark.parametrize(
        "stride, shape, n_nodes",
        [
            (1, (3, 2, 2), 5),  # times would pair 5 nodes with 3 matrices
            (2, (5, 2, 2), 3),
            (1, (2, 2), 5),
            (1, (5, 2, 3), 5),
            (1, (5, 0, 0), 5),
        ],
        ids=["3-at-stride-1", "5-at-stride-2", "2-d", "non-square", "empty-matrices"],
    )
    def test_a_stack_that_does_not_fit_the_nodes_is_refused(self, stride, shape, n_nodes):
        mats = np.zeros(shape, dtype=complex)
        if len(shape) == 3 and shape[1] == shape[2]:
            mats[:] = np.eye(shape[1])
        message = (
            f"a trace on TimeGrid(t_start=0.0, t_end=1.0, n_steps=4) at stride {stride} "
            f"needs a ({n_nodes}, d, d) stack, got shape {shape}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            UnitaryTrace(TimeGrid(0.0, 1.0, 4), stride, mats)

    @pytest.mark.parametrize("slot, step", [(2, 6), (4, 10)])
    @pytest.mark.parametrize("what", [None, "frame matrix"])
    def test_a_non_unitary_node_is_refused_at_its_grid_step(self, slot, step, what):
        # stride 3 on 10 steps stores the nodes 0, 3, 6, 9 and 10
        mats = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
        mats[slot] *= 2.0
        args = () if what is None else (what,)
        message = f"{what or 'trace unitary'} at step {step} has unitarity defect 4.243e+00 > 1e-08"
        with pytest.raises(UnitarityError, match=f"^{re.escape(message)}$") as info:
            UnitaryTrace(TimeGrid(0.0, 1.0, 10), 3, mats, *args)
        assert info.value.step_index == step

    def test_the_callers_array_is_frozen_not_copied(self):
        mats = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
        trace = UnitaryTrace(TimeGrid(0.0, 1.0, 4), 1, mats)
        assert trace.matrices is mats and not mats.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            trace.matrices[0, 0, 0] = 2.0

    def test_a_real_stack_is_converted_to_a_complex_one(self):
        trace = UnitaryTrace(TimeGrid(0.0, 1.0, 4), 1, [np.eye(2).tolist()] * 5)
        assert trace.matrices.dtype == complex and trace.dim == 2
        assert np.array_equal(trace.matrices, np.tile(np.eye(2), (5, 1, 1)))

    def test_a_hand_built_trace_need_not_start_at_the_identity(self):
        # the first node is snapped to I only where it is computed
        s = expm(0.61j * Z)
        trace = UnitaryTrace(TimeGrid(0.0, 1.0, 4), 1, np.tile(s, (5, 1, 1)))
        assert np.array_equal(trace.matrices[0], s)
        assert trace.max_defect <= 1e-15

    def test_compose_refuses_a_pair_that_does_not_start_at_the_identity(self):
        grid = TimeGrid(0.0, 1.0, 4)
        fast = UnitaryTrace(grid, 1, np.tile(Z, (5, 1, 1)))
        slow = UnitaryTrace(grid, 1, np.tile(np.eye(2, dtype=complex), (5, 1, 1)))
        with pytest.raises(ValueError, match=r"^transform matrix at t=0\.0 deviates from the identity by 2\.000e\+00$"):
            compose_transform(fast, slow)


class TestSampleTrace:
    def test_rejects_non_identity_start(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="identity"):
            sample_trace(lambda ts: np.broadcast_to(np.diag([1.0, -1.0]), (len(ts), 2, 2)), grid)

    def test_rejects_non_unitary_samples(self):
        grid = TimeGrid(0.0, 1.0, 4)

        def fn(ts):
            return np.eye(2, dtype=complex) * (1.0 + ts)[:, None, None]

        with pytest.raises(UnitarityError):
            sample_trace(fn, grid)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2, 2), (5, 2, 3), (5, 4), (5, 0, 0)])
    def test_rejects_wrongly_shaped_sampler_result(self, shape):
        grid = TimeGrid(0.0, 1.0, 4)  # five nodes
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            sample_trace(lambda ts: np.zeros(shape, dtype=complex), grid)

    def test_matches_function_at_nodes(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        grid = TimeGrid(0.0, 2.0, 8)
        tr = sample_trace(lambda t: nmr_fast_propagator(p, t), grid)
        assert tr.times[6] == 1.5
        np.testing.assert_allclose(tr.matrices[6], nmr_fast_propagator(p, 1.5), atol=1e-14)
