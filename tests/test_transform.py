import math
import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qxform.operators as operators
from qxform.cli import write_csv_curve
from qxform.hamiltonians import (
    GroverProblem,
    IsingProblem,
    TimeDependentHamiltonian,
    annealing_hamiltonian,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from qxform.operators import (
    PauliString,
    _row_norms,
    _stack_matmul,
    fidelity,
    hermitian_expm,
    minus_state,
    phase_aligned_distance,
)
from qxform.propagation import (
    MAX_STEPS,
    TimeGrid,
    UnitaryTrace,
    nmr_fast_propagator,
    propagate,
    sample_trace,
)
from qxform.schedules import Harmonic, LinearRamp, NmrParams
from qxform.transform import (
    ControlResidual,
    TimeScaling,
    _frame_change,
    compose_transform,
    control_residual,
    identity_transform,
    nmr_closed_form_transform,
    time_rescaling_equivalence,
    transform_into_frame,
    transform_out_of_frame,
    two_gate_realization,
    verify_rescaled_drive,
    verify_transform,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

BENCH = NmrParams.harmonic(1.0, 1.5, 2.0)


def analytic_pair(grid, p=BENCH):
    """The closed-form lab and rotated-frame traces of the drive ``p``; the
    frame's is that of its own drive, of zero splitting, rate d and strength g."""
    frame = NmrParams.harmonic(0.0, p.detuning, p.drive_strength)
    fast = sample_trace(lambda t: nmr_fast_propagator(p, t), grid)
    slow = sample_trace(lambda t: nmr_fast_propagator(frame, t), grid)
    return fast, slow


class TestComposeTransform:
    def test_self_composition_is_identity(self):
        grid = TimeGrid(0.0, 2.0, 50)
        fast, _ = analytic_pair(grid)
        s = compose_transform(fast, fast)
        for m in s.matrices:
            assert np.linalg.norm(m - np.eye(2)) < 1e-13

    def test_starts_at_exact_identity(self):
        grid = TimeGrid(0.0, 2.0, 50)
        s = compose_transform(*analytic_pair(grid))
        assert np.array_equal(s.matrices[0], np.eye(2))

    def test_nmr_composition_matches_z_rotation_oracle(self):
        # algebra: the shared right factors cancel, leaving exp(-i w0 Z t / 2)
        grid = TimeGrid(0.0, 3.0, 60)
        s = compose_transform(*analytic_pair(grid))
        rng = np.random.default_rng(51)
        for k in rng.integers(0, len(s.times), size=20):
            t = float(s.times[k])
            oracle = expm(-1j * 1.0 * Z * t / 2)
            assert phase_aligned_distance(s.matrices[k], oracle) < 1e-12

    def test_matches_closed_form_constructor(self):
        grid = TimeGrid(0.0, 3.0, 60)
        s = compose_transform(*analytic_pair(grid))
        closed = nmr_closed_form_transform(BENCH, grid)
        for a, b in zip(s.matrices, closed.matrices):
            assert phase_aligned_distance(a, b) < 1e-12

    def test_grid_mismatch_rejected(self):
        fast, _ = analytic_pair(TimeGrid(0.0, 2.0, 50))
        _, slow = analytic_pair(TimeGrid(0.0, 2.0, 40))
        with pytest.raises(ValueError, match="grid"):
            compose_transform(fast, slow)

    def test_dimension_mismatch_rejected_by_name(self):
        # a numpy broadcast error once reported it
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="^traces must share the same grid, stride and dimension$"):
            compose_transform(identity_transform(grid, 2), identity_transform(grid, 4))

    def test_unitary_within_limits(self):
        grid = TimeGrid(0.0, 5.0, 500)
        h_fast = nmr_hamiltonian(BENCH)
        h_slow = rotating_frame_hamiltonian(BENCH)
        s = compose_transform(
            propagate(h_fast, grid), propagate(h_slow, grid)
        )
        assert s.max_defect <= 1e-10


class TestFrameChanges:
    def test_identity_transform_reproduces_hamiltonian(self):
        h = nmr_hamiltonian(BENCH)
        grid = TimeGrid(0.0, 2.0, 40)
        s = identity_transform(grid, 2)
        rec = transform_into_frame(h, s)
        for k, t in enumerate(rec.times):
            assert np.linalg.norm(rec.matrices[k] - h.matrix(float(t))) < 1e-13
        assert np.max(rec.antihermitian_defects) < 1e-15

    @pytest.mark.parametrize(
        "dim, message",
        [
            (2.5, r"^dim must be a whole number, got 2\.5$"),
            (math.nan, r"^dim must be a whole number, got nan$"),
            (0, r"^dim must be at least 1, got 0$"),
        ],
    )
    def test_identity_transform_dimension_is_a_whole_number(self, dim, message):
        # int(2.5) once built dimension 2
        with pytest.raises(ValueError, match=message):
            identity_transform(TimeGrid(0.0, 1.0, 4), dim)

    def test_static_transform_is_pure_conjugation(self):
        h = nmr_hamiltonian(BENCH)
        grid = TimeGrid(0.0, 2.0, 40)
        alpha = 0.61
        s_mat = expm(1j * alpha * Z)
        mats = np.broadcast_to(s_mat, (grid.n_steps + 1, 2, 2))
        s = UnitaryTrace(grid, 1, mats)
        rec = transform_into_frame(h, s)
        for k, t in enumerate(rec.times):
            oracle = s_mat.conj().T @ h.matrix(float(t)) @ s_mat
            assert np.linalg.norm(rec.matrices[k] - oracle) < 1e-12

    def test_closed_form_reproduces_rotating_frame(self):
        grid = TimeGrid(0.0, 4.0, 4000)
        s = nmr_closed_form_transform(BENCH, grid)
        lab, frame = nmr_hamiltonian(BENCH), rotating_frame_hamiltonian(BENCH)
        metrics, _ = verify_transform(
            lab, frame, s,
            control=control_residual(lab, frame, nmr_closed_form_transform(BENCH, grid.refined())),
        )
        assert metrics["model_passed"]
        assert metrics["max_residual"] <= metrics["threshold"]

    def test_out_of_frame_mirror(self):
        grid = TimeGrid(0.0, 4.0, 2000)
        s = nmr_closed_form_transform(BENCH, grid)
        lab = nmr_hamiltonian(BENCH)
        frame = rotating_frame_hamiltonian(BENCH)
        rec = transform_out_of_frame(frame, s)
        ref = lab.matrix_stack(rec.times)
        worst = float(np.max(np.linalg.norm(rec.matrices - ref, axis=(1, 2))))
        # second-order differencing model, calibrated on the doubled grid
        fine = transform_out_of_frame(frame, nmr_closed_form_transform(BENCH, grid.refined()))
        fine_ref = lab.matrix_stack(fine.times)
        fine_worst = float(np.max(np.linalg.norm(fine.matrices - fine_ref, axis=(1, 2))))
        assert worst <= 4 * fine_worst + 1e-10

    def test_round_trip_recovers_original(self):
        grid = TimeGrid(0.0, 4.0, 2000)
        lab = nmr_hamiltonian(BENCH)
        slow = rotating_frame_hamiltonian(BENCH)
        num = compose_transform(
            propagate(lab, grid), propagate(slow, grid)
        )
        frame_rec = transform_into_frame(lab, num)
        lab_rec = transform_out_of_frame(frame_rec, num)
        ref = lab.matrix_stack(lab_rec.times)
        worst = float(np.max(np.linalg.norm(lab_rec.matrices - ref, axis=(1, 2))))
        fine = grid.refined()
        metrics, _ = verify_transform(
            lab, slow, num,
            control=control_residual(lab, slow, compose_transform(propagate(lab, fine), propagate(slow, fine))),
        )
        assert worst <= 2 * metrics["threshold"]

    @given(
        splitting=st.floats(-5.0, 5.0),
        rate=st.floats(-5.0, 5.0),
        strength=st.floats(0.1, 10.0),
        n_steps=st.integers(2, 400),
    )
    def test_round_trip_property(self, splitting, rate, strength, n_steps):
        # into then out of the frame returns H to the second-order model of
        # verify_transform: within 4x the refined grid's residual, and refining
        # shrinks it, so a grid-independent mismatch cannot pass
        p = NmrParams.harmonic(splitting, rate, strength)
        lab = nmr_hamiltonian(p)

        def residual(s):
            back = transform_out_of_frame(transform_into_frame(lab, s), s)
            ref = lab.matrix_stack(back.times)
            return float(np.max(np.linalg.norm(back.matrices - ref, axis=(1, 2))))

        grid = TimeGrid(0.0, 2.0, n_steps)
        s = nmr_closed_form_transform(p, grid)
        coarse, fine = residual(s), residual(nmr_closed_form_transform(p, grid.refined()))
        assert coarse <= 4 * fine + 1e-10
        assert fine <= 0.5 * coarse + 1e-10

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_out_of_frame_is_bit_identical_to_the_direct_formula(self, n_qubits):
        dim = 2**n_qubits
        rng = np.random.default_rng(n_qubits)
        a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
        a, b = a + a.conj().T, b + b.conj().T
        grid = TimeGrid(0.0, 1.0, 300)
        s = sample_trace(lambda ts: hermitian_expm(a, ts) @ hermitian_expm(b, ts * ts), grid)
        problem = IsingProblem(n_qubits, fields=(0.5,) * n_qubits)
        frame = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), problem)
        got = transform_out_of_frame(frame, s)

        # H = S (h S^dag - i dS^dag/dt) written out directly, then Hermitized
        mats = s.matrices
        s_dag = mats.conj().transpose(0, 2, 1)
        s_dag_dot = (s_dag[2:] - s_dag[:-2]) / (2.0 * grid.dt)
        h_s_dag = _stack_matmul(frame.matrix_stack(s.times[1:-1]), s_dag[1:-1])
        raw = _stack_matmul(mats[1:-1], h_s_dag - 1j * s_dag_dot)
        raw_dag = raw.conj().transpose(0, 2, 1)
        assert np.array_equal(got.times, s.times[1:-1])
        assert np.array_equal(got.matrices, 0.5 * (raw + raw_dag))
        assert np.array_equal(got.antihermitian_defects, _row_norms(0.5 * (raw - raw_dag)))

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_both_directions_agree_with_the_three_product_formula(self, n_qubits):
        # s^dag H s - i s^dag ds/dt as three einsum products, independent of
        # the factored s^dag (H s - i ds/dt) that the package computes
        dim = 2**n_qubits
        rng = np.random.default_rng(10 + n_qubits)
        a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
        a, b = a + a.conj().T, b + b.conj().T
        grid = TimeGrid(0.0, 1.0, 200)
        s = sample_trace(lambda ts: hermitian_expm(a, ts) @ hermitian_expm(b, np.sin(ts)), grid)
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), IsingProblem(n_qubits, fields=(0.5,) * n_qubits))
        for got, mats in (
            (transform_into_frame(h, s), s.matrices),
            (transform_out_of_frame(h, s), s.matrices.conj().transpose(0, 2, 1)),
        ):
            bra = mats[1:-1].conj()
            s_dot = (mats[2:] - mats[:-2]) / (2.0 * grid.dt)
            raw = np.einsum("kji,kjl,klm->kim", bra, h.matrix_stack(got.times), mats[1:-1])
            raw -= 1j * np.einsum("kji,kjl->kil", bra, s_dot)
            raw_dag = raw.conj().transpose(0, 2, 1)
            herm = 0.5 * (raw + raw_dag)
            # relative to each node's norm: the defects themselves are rounding
            scale = 1e-13 * np.linalg.norm(herm, axis=(1, 2))
            assert np.all(np.linalg.norm(got.matrices - herm, axis=(1, 2)) <= scale)
            defects = np.linalg.norm(0.5 * (raw - raw_dag), axis=(1, 2))
            assert np.all(np.abs(got.antihermitian_defects - defects) <= scale)

    def test_needs_an_interior_node(self):
        h = nmr_hamiltonian(BENCH)
        grid = TimeGrid(0.0, 2.0, 1)
        def build(g):
            return compose_transform(*analytic_pair(g))

        s = build(grid)
        message = r"a frame change needs at least 2 steps \(an interior node\), got 1"
        for call in (transform_into_frame, transform_out_of_frame):
            with pytest.raises(ValueError, match=message):
                call(h, s)
        # the control, on two steps, passes; the transform it calibrates does not
        control = control_residual(h, h, build(grid.refined()))
        with pytest.raises(ValueError, match=message):
            verify_transform(h, h, s, control=control)
        # two steps leave one interior node, which is enough
        assert transform_into_frame(h, build(grid.refined())).matrices.shape == (1, 2, 2)

    def test_control_doubles_the_steps_within_the_limit(self):
        # the control's grid is refused where it is built, by its own count
        assert TimeGrid(0.0, 1.0, MAX_STEPS // 2).refined().n_steps == MAX_STEPS
        with pytest.raises(ValueError, match=r"^a grid of 100000002 steps exceeds the limit of 1e\+08 steps$"):
            TimeGrid(0.0, 1.0, MAX_STEPS // 2 + 1).refined()

    def test_needs_full_grid_coverage(self):
        grid = TimeGrid(0.0, 2.0, 40)
        h_fast = nmr_hamiltonian(BENCH)
        strided = propagate(h_fast, grid, stride=4)
        s = compose_transform(strided, strided)
        with pytest.raises(ValueError, match="stride"):
            transform_into_frame(h_fast, s)


class TestVerifyTransform:
    def test_exact_self_pair(self):
        h = nmr_hamiltonian(BENCH)
        grid = TimeGrid(0.0, 2.0, 100)
        metrics, _ = verify_transform(
            h, h, identity_transform(grid, 2), control=control_residual(h, h, identity_transform(grid.refined(), 2))
        )
        assert metrics["max_residual"] <= 1e-12
        assert metrics["model_passed"]

    def test_deliberate_mismatch_fails(self):
        # the target is BENCH's H = Z/2 + 2 cos(1.5 t) X + 2 sin(1.5 t) Y plus Z,
        # which makes the residual exactly ||Z||_F = sqrt(2)
        h = nmr_hamiltonian(BENCH)

        def drive(trig):
            return SimpleNamespace(value=lambda t: 2.0 * trig(1.5 * t))

        h_shifted = TimeDependentHamiltonian(
            1,
            terms=(
                (1.5, PauliString(((0, "Z"),))),
                (drive(np.cos), PauliString(((0, "X"),))),
                (drive(np.sin), PauliString(((0, "Y"),))),
            ),
        )
        grid = TimeGrid(0.0, 2.0, 100)
        metrics, _ = verify_transform(
            h, h_shifted, identity_transform(grid, 2),
            control=control_residual(h, h_shifted, identity_transform(grid.refined(), 2)),
        )
        assert metrics["max_residual"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert not metrics["model_passed"]

    @pytest.mark.parametrize("field", ["qubit_splitting", "drive_strength"])
    def test_non_finite_residuals_fail_the_model(self, field):
        # entries of 1e300 square to inf in the residual norms: inf <= inf
        # must not pass the model, and the overflow is no warning
        params = {"qubit_splitting": 1.0, "drive_rate": 1.5, "drive_strength": 2.0, field: 1e300}
        p = NmrParams.harmonic(**params)
        lab, frame = nmr_hamiltonian(p), rotating_frame_hamiltonian(p)
        grid = TimeGrid(0.0, 2.0, 100)
        control = control_residual(lab, frame, nmr_closed_form_transform(p, grid.refined()))
        metrics, _ = verify_transform(lab, frame, nmr_closed_form_transform(p, grid), control)
        assert not math.isfinite(metrics["max_residual"])
        assert not math.isfinite(metrics["control_max_residual"])
        assert not metrics["model_passed"]

    @pytest.mark.parametrize(
        "control_grid",
        [
            TimeGrid(0.0, 2.0, 50),
            TimeGrid(1.0, 3.0, 100),
            TimeGrid(0.5, 2.0, 200),
            TimeGrid(0.0, 3.0, 200),
        ],
        ids=["half the steps", "a shifted interval", "another start", "another end"],
    )
    def test_control_of_another_grid_rejected(self, control_grid):
        # the transform lives on 100 steps of [0, 2]; the last two controls
        # differ from its refinement in one end only
        grid = TimeGrid(0.0, 2.0, 100)
        h = nmr_hamiltonian(BENCH)
        control = control_residual(h, h, identity_transform(control_grid, 2))
        with pytest.raises(
            ValueError,
            match=rf"^the control's grid {re.escape(repr(control_grid))} is not the refinement of "
            rf"the transform's {re.escape(repr(grid))}$",
        ):
            verify_transform(h, h, identity_transform(grid, 2), control=control)

    def test_control_on_another_interval_rejected(self):
        # the pair that a check on the step count alone let through: the
        # control on TimeGrid(0, 50, 200), whose threshold is far above the
        # residuals of a transform on [0, 1]
        lab, frame = nmr_hamiltonian(BENCH), rotating_frame_hamiltonian(BENCH)

        def build(g):
            return nmr_closed_form_transform(BENCH, g)

        control = control_residual(lab, frame, build(TimeGrid(0.0, 50.0, 200)))
        with pytest.raises(ValueError, match=r"not the refinement of the transform's TimeGrid\(t_start=0\.0, t_end=1\.0"):
            verify_transform(lab, frame, build(TimeGrid(0.0, 1.0, 100)), control)

    def test_control_built_off_the_refined_grid_rejected(self):
        # a control on the transform's own grid would calibrate it against itself
        grid = TimeGrid(0.0, 2.0, 100)
        h = nmr_hamiltonian(BENCH)
        control = control_residual(h, h, identity_transform(grid, 2))
        with pytest.raises(
            ValueError,
            match=r"^the control's grid TimeGrid\(t_start=0\.0, t_end=2\.0, n_steps=100\) is not the "
            r"refinement of the transform's TimeGrid\(t_start=0\.0, t_end=2\.0, n_steps=100\)$",
        ):
            verify_transform(h, h, identity_transform(grid, 2), control)

    def test_control_calibrates_the_grid_it_was_given(self):
        # the control residual keeps the grid its transform was built on,
        # which verify_transform pairs with the transform's refinement
        grid = TimeGrid(0.0, 2.0, 100)
        h = nmr_hamiltonian(BENCH)
        fine = identity_transform(grid.refined(), 2)
        control = control_residual(h, h, fine)
        assert control.grid == fine.grid == TimeGrid(0.0, 2.0, 200)
        assert verify_transform(h, h, identity_transform(grid, 2), control)[0]["model_passed"]

    @pytest.mark.parametrize(
        "grid",
        [
            TimeGrid(0.0, 1.0, MAX_STEPS // 2 + 1),
            TimeGrid(0.0, 1.5 * 16 * sys.float_info.min, 16),
        ],
        ids=["past the step limit", "subnormal half step"],
    )
    def test_control_is_paired_without_building_the_refinement(self, grid):
        # the transform's grid has no refinement: twice its steps exceed the
        # limit, or half its step is subnormal; the pairing is refused by the
        # grids' ends and step counts, not by building a refined grid
        transform = SimpleNamespace(grid=grid)
        control = ControlResidual(TimeGrid(0.0, 1.0, 2), 0.0)
        with pytest.raises(ValueError, match="^the control's grid .* is not the refinement of the transform's"):
            verify_transform(None, None, transform, control)

    @pytest.mark.parametrize("rows", [22, 4])
    def test_lab_hamiltonian_is_evaluated_once_a_block(self, rows, monkeypatch):
        # 23 steps: 22 interior nodes, in one block or in six of at most 4
        lab, frame = nmr_hamiltonian(BENCH), rotating_frame_hamiltonian(BENCH)
        grid = TimeGrid(0.0, 1.0, 23)
        control = control_residual(lab, frame, nmr_closed_form_transform(BENCH, grid.refined()))
        expected, _ = verify_transform(lab, frame, nmr_closed_form_transform(BENCH, grid), control)
        calls = []

        class Spy:
            dim = lab.dim

            def matrix_stack(self, ts):
                calls.append(len(ts))
                return lab.matrix_stack(ts)

        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", rows * 4)
        metrics, _ = verify_transform(Spy(), frame, nmr_closed_form_transform(BENCH, grid), control)
        assert calls == [min(rows, 22 - lo) for lo in range(0, 22, rows)]
        assert metrics == expected

    def test_read_only_real_target_is_not_written(self):
        # a target whose blocks are a read-only real broadcast is only read,
        # on the way into the frame and on the way back out of it
        z = np.diag([1.0, -1.0])

        class Frozen:
            dim = 2

            def matrix_stack(self, ts):
                return np.broadcast_to(z, (len(ts), 2, 2))

        h = TimeDependentHamiltonian(1, terms=((1.0, PauliString(((0, "Z"),))),))
        grid = TimeGrid(0.0, 1.0, 10)
        s = identity_transform(grid, 2)
        control = control_residual(h, Frozen(), identity_transform(grid.refined(), 2))
        metrics, _ = verify_transform(h, Frozen(), s, control)
        assert metrics["max_residual"] == 0.0
        round_trip = _frame_change(transform_into_frame(h, s), s, adjoint=True, target=Frozen())[1]
        assert np.max(round_trip) == 0.0
        assert np.array_equal(z, np.diag([1.0, -1.0]))

    def test_report_serialization(self, tmp_path):
        h = nmr_hamiltonian(BENCH)
        grid = TimeGrid(0.0, 2.0, 100)
        metrics, curves = verify_transform(
            h, h, identity_transform(grid, 2), control=control_residual(h, h, identity_transform(grid.refined(), 2))
        )
        assert metrics["fd_step"] == grid.dt
        times, residuals = curves["residuals"]
        # central differencing drops both endpoints
        assert len(times) == grid.n_steps - 1
        assert len(residuals) == grid.n_steps - 1
        path = tmp_path / "residuals.csv"
        write_csv_curve(path, times, residuals)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == len(times) + 1


# A coefficient on t in [0, 1] of magnitude at most 2: with at most three
# terms ||H|| <= 6, so on 32 steps or more dt ||H|| <= 0.19, well inside the
# regime where the second-order residual model holds.
_COEFFICIENTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.builds(LinearRamp, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.just(1.0)),
    st.builds(Harmonic, st.floats(-2.0, 2.0)),
)


@st.composite
def pauli_hamiltonian(draw, n_qubits):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        axes = draw(st.lists(st.sampled_from("IXYZ"), min_size=n_qubits, max_size=n_qubits))
        string = PauliString(tuple((q, a) for q, a in enumerate(axes) if a != "I"))
        terms.append((draw(_COEFFICIENTS), string))
    return TimeDependentHamiltonian(n_qubits, terms=terms)


class TestTheoremOnArbitraryPairs:
    @settings(max_examples=40)
    @given(data=st.data(), n_qubits=st.integers(1, 3), n_steps=st.integers(32, 64))
    def test_propagated_frame_change_maps_one_hamiltonian_onto_the_other(self, data, n_qubits, n_steps):
        # S = U u^dag carries H into h, to the second order of the step, and back
        big, small = (data.draw(pauli_hamiltonian(n_qubits)) for _ in range(2))

        def build(g):
            return compose_transform(propagate(big, g), propagate(small, g))

        grid = TimeGrid(0.0, 1.0, n_steps)
        s = build(grid)
        metrics, _ = verify_transform(big, small, s, control_residual(big, small, build(grid.refined())))
        assert metrics["model_passed"]
        # halving the step quarters a second-order residual; one at roundoff
        # (H = h, say) has no order to show
        if metrics["control_max_residual"] > 1e-9:
            assert 3.5 <= metrics["max_residual"] / metrics["control_max_residual"] <= 4.5
        back = transform_out_of_frame(transform_into_frame(big, s), s)
        round_trip = _row_norms(back.matrices - big.matrix_stack(back.times))
        assert np.max(round_trip) <= metrics["threshold"]


class TestTwoGateRealization:
    def test_composed_transform_identity(self):
        grid = TimeGrid(0.0, 3.0, 600)
        lab = nmr_hamiltonian(BENCH)
        slow = rotating_frame_hamiltonian(BENCH)
        fast_tr = propagate(lab, grid)
        slow_tr = propagate(slow, grid)
        s = compose_transform(fast_tr, slow_tr)
        psi0 = minus_state(1)
        got = two_gate_realization(fast_tr, s, psi0)
        assert fidelity(got, slow_tr.apply(psi0)) >= 1.0 - 1e-12

    def test_correction_gate_closed_form(self):
        # at T = pi/(2 d) the correction gate is exp(i pi w0 / (4 d) Z)
        w0, w, g = 1.0, 2.0, 25.0
        p = NmrParams.harmonic(w0, w, g)
        d = p.detuning
        t_final = math.pi / (2 * d)
        grid = TimeGrid(0.0, t_final, 400)
        fast, slow = analytic_pair(grid, p)
        s = compose_transform(fast, slow)
        correction = s.final.conj().T
        oracle = expm(1j * math.pi * w0 / (4 * d) * Z)
        assert phase_aligned_distance(correction, oracle) < 1e-12

    def test_final_state_is_y_eigenstate_in_adiabatic_regime(self):
        # at T = pi/(2 d) the rotated drive points along Y; the slow evolution
        # of |-> lands on the Y ground eigenstate up to the closed-form deficit
        w0, w, g = 1.0, 2.0, 25.0
        p = NmrParams.harmonic(w0, w, g)
        d = p.detuning
        t_final = math.pi / (2 * d)
        grid = TimeGrid(0.0, t_final, 400)
        fast, slow = analytic_pair(grid, p)
        s = compose_transform(fast, slow)
        psi = two_gate_realization(fast, s, minus_state(1))
        y_ground = np.linalg.eigh(np.array([[0, -1j], [1j, 0]]))[1][:, 0]
        bound = d**2 / (4 * g**2 + d**2)
        assert fidelity(psi, y_ground) >= 1.0 - bound - 1e-9

    def test_mismatched_trace_ends_rejected(self):
        grid = TimeGrid(0.0, 1.0, 10)
        fast, _ = analytic_pair(grid)
        s = compose_transform(*analytic_pair(TimeGrid(0.0, 0.5, 5)))
        with pytest.raises(ValueError, match=r"ends at t=1\.0 but the transform at t=0\.5"):
            two_gate_realization(fast, s, minus_state(1))
        # a strided fast trace ending on the same node is read at that node
        strided = propagate(nmr_hamiltonian(BENCH), grid, stride=4)
        s = compose_transform(*analytic_pair(grid))
        psi0 = minus_state(1)
        np.testing.assert_array_equal(
            two_gate_realization(strided, s, psi0), s.final.conj().T @ (strided.final @ psi0)
        )


def _dimension_refusals():
    """(id, call, message) for every entry point that pairs a trace with a
    Hamiltonian or another trace: a dim-2 operand against a dim-4 one."""
    grid = TimeGrid(0.0, 1.0, 4)
    qubit = nmr_hamiltonian(BENCH)
    pair = annealing_hamiltonian(LinearRamp(1.0, 0.0, 1.0), IsingProblem(2, fields=(0.5, 0.5)))
    s2, s4 = identity_transform(grid, 2), identity_transform(grid, 4)
    control = ControlResidual(grid.refined(), 1.0)
    h_vs = "the Hamiltonian has dimension {} but the transform has dimension {}"
    target_vs = "the target Hamiltonian has dimension {} but the transform has dimension {}"
    fast_vs = "the fast trace has dimension {} but the transform has dimension {}"
    cases = []
    for (h, s, other), (a, b) in (((qubit, s4, pair), (2, 4)), ((pair, s2, qubit), (4, 2))):
        cases += [
            (f"into-{a}-{b}", lambda h=h, s=s: transform_into_frame(h, s), h_vs.format(a, b)),
            (f"out-of-{a}-{b}", lambda h=h, s=s: transform_out_of_frame(h, s), h_vs.format(a, b)),
            (f"control-{a}-{b}", lambda h=h, s=s, o=other: control_residual(h, o, s), h_vs.format(a, b)),
            (
                f"control-target-{a}-{b}",
                lambda h=h, s=s, o=other: control_residual(o, h, s),
                target_vs.format(a, b),
            ),
            (f"verify-{a}-{b}", lambda h=h, s=s, o=other: verify_transform(h, o, s, control), h_vs.format(a, b)),
            (
                f"verify-target-{a}-{b}",
                lambda h=h, s=s, o=other: verify_transform(o, h, s, control),
                target_vs.format(a, b),
            ),
        ]
    psi = minus_state(1)
    cases += [
        ("two-gate-2-4", lambda: two_gate_realization(s2, s4, psi), fast_vs.format(2, 4)),
        ("two-gate-4-2", lambda: two_gate_realization(s4, s2, minus_state(2)), fast_vs.format(4, 2)),
    ]
    return cases


@pytest.mark.parametrize("case", _dimension_refusals(), ids=lambda c: c[0])
def test_operands_of_two_dimensions_are_refused_naming_both(case):
    # below dim 4 the product kernel would broadcast a dim-2 H into a corner of a zero matrix
    _, call, message = case
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestTimeRescaling:
    def test_scaling_validation(self):
        with pytest.raises(ValueError, match="fast_time"):
            TimeScaling(2.0, 1.0)
        assert TimeScaling(0.1, 10.0).ratio == 100.0

    def test_unit_ratio_distance_is_machine_zero(self):
        problem = GroverProblem(2, 3)
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), problem)
        # ratio exactly 1 is excluded by validation; use nearly-1 and require
        # only float-roundoff-level distances
        metrics, _ = time_rescaling_equivalence(h, TimeScaling(1.0, 1.0 + 1e-15), TimeGrid(0.0, 1.0, 200))
        assert metrics["max_distance"] < 1e-11

    def test_grover_small(self):
        problem = GroverProblem(2, 3)
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), problem)
        metrics, _ = time_rescaling_equivalence(h, TimeScaling(0.1, 10.0), TimeGrid(0.0, 1.0, 2000))
        assert metrics["max_distance"] <= 1e-10
        assert metrics["max_unitarity_defect"] <= 1e-10

    def test_overflow_names_its_time(self):
        # the first midpoint of 1000 steps, where the boost of a finite
        # Hamiltonian leaves the float range
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), GroverProblem(2, 3))
        with pytest.raises(ValueError, match=r"scaled by 1e\+308 is not finite at t=0\.0005$"):
            time_rescaling_equivalence(h, TimeScaling(1e308, 1.7e308), TimeGrid(0.0, 1.0, 1000))

    def test_drive_tau_propagator_depends_only_on_strength_time_product(self):
        # fast leg with (g, T) and (2g, T/2) gives the same normalized-time
        # propagator; both go through the generic closed form independently
        g, T = 2.0, 0.4
        a = NmrParams.harmonic(0.0, 2 * math.pi / T, g)
        b = NmrParams.harmonic(0.0, 2 * math.pi / (T / 2), 2 * g)
        for tau in (0.2, 0.5, 0.9):
            ua = nmr_fast_propagator(a, tau * T)
            ub = nmr_fast_propagator(b, tau * T / 2)
            assert phase_aligned_distance(ua, ub) < 1e-12

    def test_rescaled_drive_closed_form_matches_both_legs(self):
        assert verify_rescaled_drive(2.0, TimeScaling(0.5, 5.0), TimeGrid(0.0, 1.0, 100)) < 1e-12

    @pytest.mark.parametrize("g, T", [(2.0, 0.1), (0.3, 7.0), (25.0, 1e-3)])
    def test_shared_leg_is_the_rotating_drive_at_period_one(self, g, T):
        # exp(-i pi Z tau) exp(-i (T g X - pi Z) tau): frame rate and detuning
        # 2 pi, strength T g, against scipy's matrix exponential
        tau = np.array([0.0, 0.1, 0.37, 0.5, 0.9, 1.0])
        shared = nmr_fast_propagator(NmrParams.harmonic(0.0, 2.0 * np.pi, T * g), tau)
        for k, t in enumerate(tau):
            oracle = expm(-1j * np.pi * Z * t) @ expm(-1j * (T * g * X - np.pi * Z) * t)
            np.testing.assert_allclose(shared[k], oracle, atol=1e-13 * (1.0 + T * g))
        np.testing.assert_allclose(shared[0], np.eye(2), atol=1e-15)

    def test_rescaled_drive_memory_does_not_grow_per_node(self):
        # the node times, closed forms and distances go one block at a time:
        # under a byte a node (the closed forms and distances took 336 B a
        # node, then the whole node array 8 B)
        def peak(n_nodes):
            tracemalloc.start()
            try:
                verify_rescaled_drive(2.0, TimeScaling(0.5, 5.0), TimeGrid(0.0, 1.0, n_nodes - 1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_001) - peak(20_001) < 180_000

    def test_rescaled_drive_blocks_keep_the_one_stack_value(self, monkeypatch):
        g, scaling, grid = 2.0, TimeScaling(0.5, 5.0), TimeGrid(0.0, 1.0, 1000)
        taus = np.linspace(0.0, 1.0, grid.n_steps + 1)
        ref = nmr_fast_propagator(NmrParams.harmonic(0.0, 2 * math.pi, g * scaling.fast_time), taus)

        def leg(t):  # the drive whose period is t, with g t matched
            p = NmrParams.harmonic(0.0, 2 * math.pi / t, g * scaling.fast_time / t)
            return phase_aligned_distance(nmr_fast_propagator(p, taus * t), ref).max()

        one_stack = max(leg(scaling.fast_time), leg(scaling.slow_time))
        assert verify_rescaled_drive(g, scaling, grid) == one_stack
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 3 * 4)  # three rows of 2 x 2
        assert verify_rescaled_drive(g, scaling, grid) == one_stack


class TestCsvCurve:
    def test_full_precision_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        ts = np.array([0.0, 0.1, 0.2])
        vs = np.array([1.0, 1 / 3, 2 / 3])
        write_csv_curve(path, ts, vs)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value"
        got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got[:, 0], ts)
        assert np.array_equal(got[:, 1], vs)
