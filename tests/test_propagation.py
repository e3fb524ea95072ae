import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from qxform.hamiltonians import (
    IsingProblem,
    annealing_hamiltonian,
    nmr_hamiltonian,
)
from qxform.operators import basis_state, fidelity, phase_aligned_distance, unitarity_defect
from qxform.propagation import (
    TimeGrid,
    UnitarityError,
    UnitaryTrace,
    _batch_defects,
    _check_stored,
    nmr_fast_propagator,
    nmr_slow_propagator,
    propagate,
    read_trace,
    sample_trace,
    write_trace,
)
from qxform.schedules import Constant, LinearRamp, NmrParams
from qxform.transform import sampled_transform

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def constant_z_hamiltonian(w0):
    return nmr_hamiltonian(NmrParams(Constant(w0), 1e-30, Constant(0.0)))


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(0.0, 2.0, 4)
        assert g.dt == 0.5
        np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(g.midpoints(), [0.25, 0.75, 1.25, 1.75])
        assert g.refined(2).n_steps == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="t_end"):
            TimeGrid(1.0, 1.0, 5)


class TestPropagate:
    def test_commuting_constant_generator_is_exact(self):
        # diagonal generator: U(t) = diag(exp(-i w0 t / 2), exp(+i w0 t / 2))
        w0 = 1.7
        trace = propagate(constant_z_hamiltonian(w0), TimeGrid(0.0, 3.0, 300))
        for t in (0.0, 1.0, 3.0):
            expected = np.diag([np.exp(-1j * w0 * t / 2), np.exp(1j * w0 * t / 2)])
            assert np.linalg.norm(trace.at(t) - expected) < 1e-12

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
        with pytest.raises(RuntimeError, match=r"Pauli term X0 is inf at t=0\.03125$"):
            propagate(h, TimeGrid(0.0, 1.0, 16))
        # at t = 0, Y0's inf * sin(0) is NaN; that raises no numpy warning either
        with pytest.raises(RuntimeError, match=r"Pauli term X0 is inf at t=0\.0$"):
            h.matrix(0.0)

    def test_memory_guard_suggests_stride(self):
        problem = IsingProblem(10, fields=(0.0,) * 10)
        h = annealing_hamiltonian(Constant(0.0), problem)
        with pytest.raises(ValueError, match="stride"):
            propagate(h, TimeGrid(0.0, 1.0, 200_000))


class TestDefectGates:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_batch_defects_match_per_matrix(self, dim):
        # covers both sides of the einsum / batched-matmul switch
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(24, dim, dim)) + 1j * rng.normal(size=(24, dim, dim))
        us = np.linalg.qr(a)[0] + 1e-9 * rng.normal(size=(24, dim, dim))
        expected = [unitarity_defect(u) for u in us]
        np.testing.assert_allclose(_batch_defects(us), expected, rtol=0, atol=1e-14)

    def test_nan_stored_node_is_rejected(self):
        us = np.stack([np.eye(2, dtype=complex)] * 5)
        us[3, 0, 1] = np.nan
        with pytest.raises(UnitarityError, match="at step 6 ") as info:
            _check_stored(us, np.arange(0, 10, 2), "stored unitary")
        assert info.value.step_index == 6


class TestAnalyticPropagators:
    def test_identity_at_time_zero(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        np.testing.assert_allclose(nmr_fast_propagator(p, 0.0), np.eye(2), atol=1e-15)
        np.testing.assert_allclose(nmr_slow_propagator(p, 0.0), np.eye(2), atol=1e-15)

    def test_resonant_drive_reduces_to_x_rotation(self):
        # zero detuning: u(t) = exp(-i g X t) and the lab factor is the frame
        p = NmrParams.harmonic(1.0, 1.0, 0.7)
        t = 1.3
        np.testing.assert_allclose(
            nmr_slow_propagator(p, t), expm(-1j * 0.7 * X * t), atol=1e-13
        )
        np.testing.assert_allclose(
            nmr_fast_propagator(p, t),
            expm(-1j * 1.0 * Z * t / 2) @ expm(-1j * 0.7 * X * t),
            atol=1e-13,
        )

    def test_fast_equals_slow_at_zero_splitting(self):
        p = NmrParams.harmonic(0.0, 1.5, 2.0)
        for t in (0.4, 2.0):
            np.testing.assert_allclose(
                nmr_fast_propagator(p, t), nmr_slow_propagator(p, t), atol=1e-14
            )

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
        assert np.array_equal(tr.at(0.0), np.eye(2))
        np.testing.assert_allclose(tr.at(1.0), tr.final, atol=0)

    def test_loose_lookup_snaps_to_nearest(self):
        tr = self._trace()
        np.testing.assert_allclose(tr.at(0.46), tr.at(0.5), atol=0)

    def test_strict_lookup_rejects_off_node(self):
        tr = self._trace()
        with pytest.raises(ValueError, match="off the stored grid"):
            tr.at(0.45, strict=True)
        np.testing.assert_allclose(tr.at(0.5, strict=True), tr.at(0.5), atol=0)

    def test_far_off_grid_rejected_even_loose(self):
        tr = self._trace()
        with pytest.raises(ValueError, match="off the stored grid"):
            tr.at(1.3)

    def test_apply(self):
        problem = IsingProblem(2, fields=(0.0, 0.0))
        h = annealing_hamiltonian(Constant(0.0), problem)
        tr = propagate(h, TimeGrid(0.0, 1.0, 20))
        psi = tr.apply(basis_state(2, 1))
        assert fidelity(psi, basis_state(2, 1)) == pytest.approx(1.0, abs=1e-14)

    def test_apply_global_phase_only_for_diagonal_generator(self):
        tr = propagate(constant_z_hamiltonian(2.0), TimeGrid(0.0, 1.0, 100))
        psi = tr.apply(basis_state(1, 0))
        assert fidelity(psi, basis_state(1, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_apply_validates_state(self):
        tr = self._trace()
        with pytest.raises(ValueError, match="shape"):
            tr.apply(np.ones(4) / 2.0)
        with pytest.raises(ValueError, match="normalized"):
            tr.apply(np.array([1.0, 1.0]))


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

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2, 2), (5, 2, 3), (5, 4)])
    def test_rejects_wrongly_shaped_sampler_result(self, shape):
        grid = TimeGrid(0.0, 1.0, 4)  # five nodes
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            sample_trace(lambda ts: np.zeros(shape, dtype=complex), grid)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            sampled_transform(grid, lambda ts: np.zeros(shape, dtype=complex), "wrong")

    def test_matches_function_at_nodes(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        grid = TimeGrid(0.0, 2.0, 8)
        tr = sample_trace(lambda t: nmr_fast_propagator(p, t), grid, label="oracle")
        np.testing.assert_allclose(tr.at(1.5), nmr_fast_propagator(p, 1.5), atol=1e-14)
        assert tr.label == "oracle"


class TestTraceSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        trace = propagate(nmr_hamiltonian(p), TimeGrid(0.0, 1.0, 16), label="round trip")
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.grid == trace.grid
        assert back.label == "round trip"
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.matrices, trace.matrices)

    # str.splitlines, which read_trace uses, breaks on each of these
    @pytest.mark.parametrize("label", ["two\nlines", "a\rb", "a\u2028b"])
    def test_label_with_line_break_is_rejected_when_built(self, label):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            propagate(nmr_hamiltonian(p), grid, label=label)
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            sample_trace(lambda t: nmr_fast_propagator(p, t), grid, label=label)

    def test_label_with_line_break_is_rejected_on_direct_construction(self):
        trace = propagate(nmr_hamiltonian(NmrParams.harmonic(1.0, 1.5, 2.0)), TimeGrid(0.0, 1.0, 4))
        with pytest.raises(ValueError, match=re.escape(repr("a\u2028b"))):
            UnitaryTrace(trace.grid, trace.times, trace.matrices, "a\u2028b", trace.max_defect)

    def _written(self, tmp_path):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        trace = propagate(nmr_hamiltonian(p), TimeGrid(0.0, 1.0, 4), label="cut")
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        return path, path.read_text().splitlines(keepends=True)

    # 4 header lines, then 3 lines per node (time, two rows) for 5 nodes: 19 lines
    @pytest.mark.parametrize(
        "keep, line",
        [
            (1, 2),  # magic line only
            (4, 5),  # header only
            (5, 6),  # node 0 cut after its time
            (12, 13),  # node 2 cut after its first row
            (18, 19),  # last row missing
        ],
    )
    def test_truncated_file_names_line(self, tmp_path, keep, line):
        path, lines = self._written(tmp_path)
        assert len(lines) == 19
        path.write_text("".join(lines[:keep]))
        with pytest.raises(ValueError, match=f"trace.txt:{line}: file ends"):
            read_trace(path)

    def test_overstated_node_count_is_truncation(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("".join(lines[:3]) + "nodes 100000000000 dim 1024\n" + lines[4])
        with pytest.raises(ValueError, match="trace.txt:6: file ends"):
            read_trace(path)

    def test_row_cut_mid_line_names_line(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("".join(lines[:11]) + lines[11].split()[0] + "\n")
        with pytest.raises(ValueError, match="trace.txt:12: expected row 0 of node 2"):
            read_trace(path)

    @pytest.mark.parametrize("extra, line", [("t 1.25\n", 20), ("0.0 0.0", 20), ("\n\n1\n", 22)])
    def test_trailing_data_names_line(self, tmp_path, extra, line):
        path, lines = self._written(tmp_path)
        path.write_text("".join(lines) + extra)
        with pytest.raises(ValueError, match=f"trace.txt:{line}: trailing data"):
            read_trace(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("".join(lines) + "\n  \n")
        assert len(read_trace(path).times) == 5

    # node k's 't' line is line 5 + 3k; the grid is [0, 1] in 4 steps
    @pytest.mark.parametrize("t", ["7.0", "0.3", "-0.25", "nan", "inf"])
    def test_node_off_the_grid_names_line(self, tmp_path, t):
        path, lines = self._written(tmp_path)
        lines[7] = f"t {t}\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="trace.txt:8: node 1 .* not a node of the grid"):
            read_trace(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:7] + lines[10:13] + lines[7:10] + lines[13:],  # nodes 1, 2 swapped
            lambda lines: lines[:10] + lines[7:8] + lines[11:],  # node 2 repeats node 1's time
        ],
        ids=["swapped", "repeated"],
    )
    def test_nodes_not_ascending_name_line(self, tmp_path, edit):
        path, lines = self._written(tmp_path)
        path.write_text("".join(edit(lines)))
        with pytest.raises(ValueError, match="trace.txt:11: node 2 .* does not follow"):
            read_trace(path)

    def test_first_node_off_t_start_names_line(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("".join(lines[:3]) + "nodes 4 dim 2\n" + "".join(lines[7:]))
        with pytest.raises(ValueError, match="trace.txt:5: node 0 .* not t_start"):
            read_trace(path)

    def test_last_node_off_t_end_names_line(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("".join(lines[:3]) + "nodes 4 dim 2\n" + "".join(lines[4:16]))
        with pytest.raises(ValueError, match="trace.txt:14: last node .* not t_end"):
            read_trace(path)

    def test_malformed_header_names_line(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("".join(lines[:3]) + "nodes five dim 2\n" + "".join(lines[4:]))
        with pytest.raises(ValueError, match="trace.txt:4:"):
            read_trace(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError, match="trace file"):
            read_trace(path)
