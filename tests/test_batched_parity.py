"""Batched and loop-free kernels against reference loops written out here:
one call per scale, per matrix pair, per node, per step or per CSV row, as
the kernels were computed before."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qxform.operators as operators
from qxform.cli import write_csv_curve
from qxform.experiments import (
    nmr_grid,
    quarter_turn_time,
    run_annealing_experiment,
    run_nmr_experiment,
    track_ground_state,
)
from qxform.hamiltonians import (
    GroverProblem,
    IsingProblem,
    TimeDependentHamiltonian,
    annealing_hamiltonian,
    fast_counterpart_hamiltonian,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from qxform.operators import (
    PauliString,
    _hermitian_expm_stack,
    hermitian_expm,
    minus_state,
    phase_aligned_distance,
)
from qxform.propagation import (
    TimeGrid,
    _batch_defects,
    nmr_fast_propagator,
    propagate,
    propagate_each,
    sample_trace,
)
from qxform.schedules import Harmonic, LinearRamp, NmrParams
from qxform.transform import (
    SampledHamiltonian,
    _AmplitudeScaled,
    _frame_change,
    compose_transform,
    control_residual,
    transform_into_frame,
    transform_out_of_frame,
    verify_transform,
)

finite = st.floats(-2.0, 2.0, allow_nan=False)


def complex_matrices(data, shape):
    re = data.draw(hnp.arrays(np.float64, shape, elements=finite))
    im = data.draw(hnp.arrays(np.float64, shape, elements=finite))
    return re + 1j * im


def hermitian(data, dim):
    a = complex_matrices(data, (dim, dim))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# hermitian_expm


def reference_expm(g, scale):
    w, v = np.linalg.eigh(g)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


@given(dim=st.sampled_from([2, 4, 8]), data=st.data())
def test_array_scale_matches_per_scale_calls(dim, data):
    g = hermitian(data, dim)
    scales = data.draw(
        hnp.arrays(np.float64, st.integers(0, 6), elements=st.floats(-5.0, 5.0))
    )
    stack = hermitian_expm(g, scales)
    assert stack.shape == (len(scales), dim, dim)
    for k, s in enumerate(scales):
        np.testing.assert_allclose(stack[k], hermitian_expm(g, float(s)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(stack[k], reference_expm(g, float(s)), rtol=0, atol=1e-14)


def test_scale_shapes():
    z = np.diag([1.0, -1.0]).astype(complex)
    assert hermitian_expm(z, 0.3).shape == (2, 2)
    assert hermitian_expm(z, np.float64(0.3)).shape == (2, 2)
    assert hermitian_expm(z, [0.1, 0.2, 0.3]).shape == (3, 2, 2)
    with pytest.raises(ValueError, match="1-D"):
        hermitian_expm(z, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), [0.1, 0.2])


# ---------------------------------------------------------------------------
# phase_aligned_distance


def one_shot_row_norms(x):
    """The Frobenius norm of every matrix at once: the root of the sum of
    squares of its real and imaginary parts, in memory order."""
    parts = x.reshape(-1, x.shape[-2] * x.shape[-1]).view(np.float64)
    return np.sqrt(np.einsum("ki,ki->k", parts, parts)).reshape(x.shape[:-2])


def one_shot_aligned_distance(a, b):
    """The distance of every pair at once, B turned by the phase
    arg tr(B^dag A), or by none where that trace vanishes."""
    tr = np.einsum("...ij,...ij->...", b.conj(), a)
    phi = np.where(np.abs(tr) == 0.0, 0.0, np.arctan2(tr.imag, tr.real))
    return one_shot_row_norms(a - np.exp(1j * phi)[..., None, None] * b)


@given(
    dim=st.sampled_from([1, 2, 4]),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_stacked_aligned_distance_matches_per_pair(dim, n, data):
    a = complex_matrices(data, (n, dim, dim))
    b = complex_matrices(data, (n, dim, dim))
    # traceless diag(1, -1, ...) against a multiple of I: tr(B^dag A) is exactly 0
    zero_trace = data.draw(hnp.arrays(np.bool_, n)) if dim % 2 == 0 else np.zeros(n, bool)
    signs = np.resize([1.0, -1.0], dim)
    a[zero_trace] = np.diag(signs) * a[zero_trace][:, :1, :1]
    b[zero_trace] = np.eye(dim) * b[zero_trace][:, :1, :1]

    stacked = phase_aligned_distance(a, b)
    assert stacked.shape == (n,)
    assert np.array_equal(stacked, one_shot_aligned_distance(a, b))
    for k in range(n):
        single = phase_aligned_distance(a[k], b[k])
        assert type(single) is float
        assert single == one_shot_aligned_distance(a[k], b[k])
    # where the trace vanishes no phase turns B, not even arg(-0) = pi
    plain = one_shot_row_norms(a - b)
    np.testing.assert_array_equal(stacked[zero_trace], plain[zero_trace])


# ---------------------------------------------------------------------------
# propagate


def reference_propagate(h, grid, stride):
    """The sequential loop u = step_k @ u, keeping a copy at every stored node."""
    t = np.linspace(grid.t_start, grid.t_end, grid.n_steps + 1)
    steps = _hermitian_expm_stack(h.matrix_stack(0.5 * (t[:-1] + t[1:])), grid.dt)
    indices = stored_indices(grid.n_steps, stride)
    u = np.eye(h.dim, dtype=complex)
    stored = [u.copy()]
    for k in range(grid.n_steps):
        u = steps[k] @ u
        if k + 1 in indices:
            stored.append(u.copy())
    return np.array(stored)


def stored_indices(n_steps, stride):
    """Every stride-th node of the grid and its last."""
    return sorted({*range(0, n_steps + 1, stride), n_steps})


def random_anneal(n_qubits, seed):
    rng = np.random.default_rng(seed)
    couplings = tuple((i, i + 1, float(rng.uniform(-1, 1))) for i in range(n_qubits - 1))
    problem = IsingProblem(n_qubits, tuple(rng.uniform(-1, 1, n_qubits)), couplings)
    return annealing_hamiltonian(LinearRamp(1.5, 0.0, 1.0), problem)


@pytest.mark.parametrize("rows", [None, 1, 4, 5])
@pytest.mark.parametrize("stride", range(1, 8))
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
def test_propagate_matches_the_sequential_loop(n_qubits, stride, rows, monkeypatch):
    # 53 steps: a multiple of no stride above 1 and of no forced block size;
    # the default blocks of 5 and 6 qubits (32 and 8 rows) end inside the grid
    h = random_anneal(n_qubits, seed=n_qubits)
    grid = TimeGrid(0.0, 1.0, 53)
    expected = reference_propagate(h, grid, stride)
    if rows is not None:
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", rows * h.dim * h.dim)
    trace = propagate(h, grid, stride=stride)
    assert trace.matrices.shape == expected.shape
    assert np.array_equal(trace.matrices, expected)
    np.testing.assert_array_equal(trace.times, np.linspace(0.0, 1.0, 54)[stored_indices(53, stride)])


def test_propagate_single_step_and_stride_beyond_the_grid():
    h = random_anneal(2, seed=7)
    for grid, stride in ((TimeGrid(0.0, 0.5, 1), 1), (TimeGrid(0.0, 0.5, 6), 50)):
        trace = propagate(h, grid, stride=stride)
        assert len(trace.times) == 2
        assert np.array_equal(trace.matrices, reference_propagate(h, grid, stride))


@pytest.mark.parametrize("rows, n_steps", [(None, 53), (None, None), (1, 53), (4, 53), (5, 53)])
@pytest.mark.parametrize("stride", [1, 7, 60])
@pytest.mark.parametrize("n_qubits", [1, 3, 4])
def test_lockstep_pair_matches_separate_runs(n_qubits, stride, rows, n_steps, monkeypatch):
    # rows forces each member's share of a block: 53 steps end in a last
    # block of 1 row (4 rows a share) or 3 rows (5); n_steps None is one step
    # past the default share, so the default blocks end in a block of 1 row
    pair = (random_anneal(n_qubits, seed=n_qubits), random_anneal(n_qubits, seed=10 + n_qubits))
    dim = pair[0].dim
    if n_steps is None:
        n_steps = operators._block_rows(dim) // 2 + 1
    grid = TimeGrid(0.0, 1.0, n_steps)
    separate = [propagate(h, grid, stride=stride) for h in pair]
    if rows is not None:
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 2 * rows * dim * dim)
    traces = propagate_each(pair, grid, stride=stride)
    assert len(traces) == 2
    for trace, alone in zip(traces, separate):
        assert (trace.grid, trace.stride) == (alone.grid, alone.stride)
        assert trace.matrices.shape == alone.matrices.shape
        assert np.array_equal(trace.matrices, alone.matrices)
        assert trace.max_defect == alone.max_defect
    # each trace owns its array, so dropping one frees it
    assert traces[0].matrices.base is None and traces[1].matrices.base is None


@pytest.mark.parametrize("rows", [None, 1, 5])
@pytest.mark.parametrize("n_qubits", [1, 3])
def test_sample_trace_matches_the_one_shot_sampler(n_qubits, rows, monkeypatch):
    # the sampler is called for the first node, then once per block, and
    # the trace is what one call at every node gave, identity snapped
    dim = 2**n_qubits
    rng = np.random.default_rng(10 * n_qubits + 1)
    a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
    a, b = a + a.conj().T, b + b.conj().T
    calls = []

    def sampler(ts):
        calls.append(len(ts))
        return hermitian_expm(a, ts) @ hermitian_expm(b, ts * ts)

    grid = TimeGrid(0.0, 1.0, 23)  # 24 nodes
    times = np.linspace(0.0, 1.0, 24)
    expected = np.array(sampler(times), dtype=complex)
    expected[0] = np.eye(dim)
    calls.clear()
    if rows is not None:
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", rows * dim * dim)
    trace = sample_trace(sampler, grid)
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.matrices, expected)
    assert trace.max_defect == np.max(one_shot_defects(expected))
    block = rows or operators._block_rows(dim)
    assert calls == [1] + [min(block, len(times) - lo) for lo in range(1, len(times), block)]


# ---------------------------------------------------------------------------
# The analysis stage, one block at a time, against its one-shot formulas


def families():
    """One Hamiltonian of each family the package builds, by name."""
    drive = NmrParams.harmonic(1.0, 2.0, 25.0)
    ising = IsingProblem(4, fields=(0.5,) * 4, couplings=((0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0)))
    ramp, phase = LinearRamp(2.0, 0.0, 2.0), Harmonic(31.41592653589793)
    built = {"nmr lab": nmr_hamiltonian(drive), "nmr rotating frame": rotating_frame_hamiltonian(drive)}
    for name, problem in (("ising", ising), ("grover", GroverProblem(3, 7))):
        built[f"{name} anneal"] = annealing_hamiltonian(ramp, problem)
        built[f"{name} counterpart"] = fast_counterpart_hamiltonian(ramp, problem, phase)
    built["rescale scaled frame"] = _AmplitudeScaled(annealing_hamiltonian(ramp, GroverProblem(3, 7)), 100.0)
    return built


@pytest.mark.parametrize("name", sorted(families()))
def test_a_row_does_not_depend_on_the_rows_evaluated_with_it(name):
    # a one-row product took numpy's vector-matrix path: a counterpart's rows moved by up to 8.9e-16
    h = families()[name]
    ts = np.linspace(0.0, 1.9, 129)
    stack = h.matrix_stack(ts).view(np.int64)  # as words, so that a signed zero counts
    for rows in [*range(1, 10), 64]:
        for lo in range(0, len(ts) - rows + 1, 7):
            assert np.array_equal(h.matrix_stack(ts[lo : lo + rows]).view(np.int64), stack[lo : lo + rows]), (rows, lo)
    if hasattr(h, "matrix"):
        for k, t in enumerate(ts):
            assert np.array_equal(h.matrix(t).view(np.int64), stack[k]), t


def one_shot_matmul(a, b):
    """a @ b for every pair of the stacks at once: the sum of the rank-one
    products (column j of a times row j of b) in ascending j below dim 4,
    batched @ from 4 up."""
    dim = a.shape[-1]
    if dim >= 4:
        return a @ b
    out = a[:, :, 0, None] * b[:, None, 0, :]
    for j in range(1, dim):
        out = out + a[:, :, j, None] * b[:, None, j, :]
    return out


def one_shot_defects(us):
    """The gate on the whole stack at once: U^dag U, less I, then the
    Frobenius norm of each matrix."""
    gram = one_shot_matmul(us.conj().transpose(0, 2, 1), us)
    return one_shot_row_norms(gram - np.eye(us.shape[-1]))


def one_shot_frame_change(hamiltonian, transform, s):
    """(Hermitian part, anti-Hermitian defects) of s^dag (H s - i ds/dt)
    at every interior node in one pass."""
    s_mid = s[1:-1]
    s_dot = (s[2:] - s[:-2]) / (2.0 * transform.grid.dt)
    h = hamiltonian.matrix_stack(transform.times[1:-1])
    raw = one_shot_matmul(s_mid.conj().transpose(0, 2, 1), one_shot_matmul(h, s_mid) - 1j * s_dot)
    dag = raw.conj().transpose(0, 2, 1)
    return 0.5 * (raw + dag), one_shot_row_norms(0.5 * (raw - dag))


def one_shot_residuals(hamiltonian, frame, transform):
    mats, _ = one_shot_frame_change(hamiltonian, transform, transform.matrices)
    return one_shot_row_norms(mats - frame.matrix_stack(transform.times[1:-1]))


def traces_on(n_qubits, grid, seed):
    """Propagators of two random anneals on ``grid``, at every node."""
    return tuple(propagate(random_anneal(n_qubits, seed + k), grid) for k in (0, 1))


@pytest.mark.parametrize("rows", [None, 1, 4, 5])
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_analysis_matches_the_one_shot_formulas(n_qubits, rows, monkeypatch):
    # 23 steps: 22 interior nodes, a multiple of neither forced block size;
    # fresh inputs for every case, so no output can hold a previous case's values
    dim = 2**n_qubits
    seed = 100 * n_qubits + (rows or 0)
    grid = TimeGrid(0.0, 1.0, 23)
    fast, slow = traces_on(n_qubits, grid, seed)
    fine = traces_on(n_qubits, grid.refined(), seed)
    h, frame = random_anneal(n_qubits, seed + 2), random_anneal(n_qubits, seed + 3)
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(3, 7, dim, dim)) + 1j * rng.normal(size=(3, 7, dim, dim)) for _ in range(2))
    a[1, 2] = np.diag(np.resize([1.0, -1.0], dim))  # tr(B^dag A) = 0 against a multiple of I
    b[1, 2] = 3.0 * np.eye(dim)
    if rows is not None:
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", rows * dim * dim)

    composed = compose_transform(fast, slow)
    expected = np.einsum("kij,klj->kil", fast.matrices, slow.matrices.conj())
    expected[0] = np.eye(dim)  # snapped to the exact identity
    assert np.array_equal(composed.matrices, expected)
    assert np.array_equal(_batch_defects(composed.matrices), one_shot_defects(composed.matrices))
    assert composed.max_defect == np.max(one_shot_defects(composed.matrices))

    for got, s in (
        (transform_into_frame(h, composed), composed.matrices),
        (transform_out_of_frame(h, composed), composed.matrices.conj().transpose(0, 2, 1)),
    ):
        mats, defects = one_shot_frame_change(h, composed, s)
        assert np.array_equal(got.times, composed.times[1:-1])
        assert np.array_equal(got.matrices, mats)
        assert np.array_equal(got.antihermitian_defects, defects)

    control = compose_transform(*fine)
    metrics, curves = verify_transform(h, frame, composed, control=control_residual(h, frame, lambda g: control, grid))
    times, residuals = curves["residuals"]
    assert np.array_equal(residuals, one_shot_residuals(h, frame, composed))
    assert metrics["control_max_residual"] == np.max(one_shot_residuals(h, frame, control))
    # the metrics keep values of the reconstruction; carried back out of the
    # frame against a target, it takes the one-shot out-of-frame formula; every
    # pass, with a target or without, walks the one axis of interior nodes
    rec = transform_into_frame(h, composed)
    assert metrics["max_antihermitian_defect"] == np.max(rec.antihermitian_defects)
    back, _ = one_shot_frame_change(rec, composed, composed.matrices.conj().transpose(0, 2, 1))
    pass_times, round_trip, _ = _frame_change(rec, composed, adjoint=True, target=h)
    assert np.array_equal(round_trip, one_shot_row_norms(back - h.matrix_stack(rec.times)))
    assert np.array_equal(times, rec.times) and np.array_equal(pass_times, rec.times)

    got = phase_aligned_distance(a, b)
    assert got.shape == (3, 7)
    assert np.array_equal(got, one_shot_aligned_distance(a, b))
    # the one pair whose trace vanishes keeps the plain Frobenius distance
    assert got[1, 2] == one_shot_row_norms(a[1] - b[1])[2]


@pytest.mark.parametrize("rows", [None, 5])
def test_nmr_round_trip_is_the_into_then_out_of_frame_pair(rows, monkeypatch):
    # the shipped drive on a reduced grid: the metric is the largest residual of
    # H carried into the frame and back out by the library pair, against H
    if rows is not None:
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", rows * 4)
    p = NmrParams.harmonic(1.0, 2.0, 25.0)
    grid = nmr_grid(quarter_turn_time(p.detuning), 400)
    metrics, _ = run_nmr_experiment(1.0, 2.0, 25.0, grid)
    lab, frame = nmr_hamiltonian(p), rotating_frame_hamiltonian(p)
    s = compose_transform(*propagate_each((lab, frame), grid))
    back = transform_out_of_frame(transform_into_frame(lab, s), s)
    round_trip = one_shot_row_norms(back.matrices - lab.matrix_stack(back.times))
    assert metrics["round_trip_max_residual"] == np.max(round_trip)


# ---------------------------------------------------------------------------
# track_ground_state


def reference_track(h, trace, psi0, degeneracy_tol=1e-10):
    times, values = [], []
    prev = None
    for k, t in enumerate(trace.times):
        energies, states = np.linalg.eigh(h.matrix(float(t)))
        if prev is None:
            b = 0
        else:
            overlaps = np.abs(prev.conj() @ states) ** 2
            b = int(np.argmax(overlaps))
            if overlaps[b] < 0.25:
                break
        prev = states[:, b]
        psi = trace.matrices[k] @ psi0
        cluster = np.abs(energies - energies[b]) < degeneracy_tol
        if np.count_nonzero(cluster) > 1:
            value = float(np.sum(np.abs(states[:, cluster].conj().T @ psi) ** 2))
        else:
            value = float(np.abs(np.vdot(prev, psi)) ** 2)
        times.append(float(t))
        values.append(value)
    return np.asarray(times), np.asarray(values)


def assert_tracks_like_reference(h, trace, psi0, rows, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", rows * h.dim * h.dim)
    times, (values,) = track_ground_state(h, trace, psi0=psi0)
    expected_times, expected_values = reference_track(h, trace, psi0)
    np.testing.assert_array_equal(times, expected_times)
    np.testing.assert_allclose(values, expected_values, rtol=0, atol=1e-13)
    return times, values


def ground_state_trace(problem, s0, t_final, n_steps, stride):
    h = annealing_hamiltonian(LinearRamp(s0, 0.0, t_final), problem)
    trace = propagate(h, TimeGrid(0.0, t_final, n_steps), stride=stride)
    return h, trace, np.linalg.eigh(h.matrix(0.0))[1][:, 0]


@pytest.mark.parametrize("rows", [None, 1, 2, 3, 7])
class TestTrackGroundStateParity:
    def test_degenerate_cluster(self, rows, monkeypatch):
        # the Hamiltonian vanishes at the end: every state is in the ground cluster
        h, trace, psi0 = ground_state_trace(IsingProblem(2, fields=(0.0, 0.0)), 1.0, 1.0, 100, 5)
        times, values = assert_tracks_like_reference(h, trace, psi0, rows, monkeypatch)
        assert np.array_equal(times, trace.times) and len(values) == 21
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_truncation_after_the_first_block(self, rows, monkeypatch):
        # nodes at transverse field 8, 4, 0: the last step swaps the basis too
        # far to follow, so tracking is lost at the final node
        problem = IsingProblem(3, fields=(1.0, 1.0, 1.0))
        h, trace, psi0 = ground_state_trace(problem, 8.0, 0.5, 1000, 500)
        times, values = assert_tracks_like_reference(h, trace, psi0, rows, monkeypatch)
        assert times.tolist() == [0.0, 0.25] and len(values) == 2

    def test_spans_many_blocks(self, rows, monkeypatch):
        problem = IsingProblem(3, fields=(0.3, -0.5, 0.2), couplings=((0, 1, 0.7), (1, 2, -0.4)))
        h, trace, psi0 = ground_state_trace(problem, 2.0, 4.0, 400, 7)
        _, values = assert_tracks_like_reference(h, trace, psi0, rows, monkeypatch)
        assert len(values) == len(trace.times)

    def test_follows_the_branch_through_a_level_crossing(self, rows, monkeypatch):
        # H = (1 - 2t) Z: the levels cross at t = 1/2, between nodes, so the
        # followed state |1> moves from eigh index 0 to index 1
        h = TimeDependentHamiltonian(1, terms=((LinearRamp(1.0, -1.0, 1.0), PauliString(((0, "Z"),))),))
        trace = propagate(h, TimeGrid(0.0, 1.0, 101))
        times, values = assert_tracks_like_reference(h, trace, np.array([0.0, 1.0]), rows, monkeypatch)
        assert np.array_equal(times, trace.times)
        np.testing.assert_allclose(values, 1.0, rtol=0, atol=1e-12)


@given(
    fields=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3),
    coupling=st.floats(-1.0, 1.0),
    stride=st.integers(1, 40),
    rows=st.sampled_from([None, 1, 4, 9]),
)
def test_track_ground_state_random_anneals(fields, coupling, stride, rows):
    problem = IsingProblem(len(fields), fields=tuple(fields), couplings=((0, 1, coupling),))
    h, trace, psi0 = ground_state_trace(problem, 2.0, 1.5, 120, stride)
    with pytest.MonkeyPatch.context() as mp:
        assert_tracks_like_reference(h, trace, psi0, rows, mp)


@pytest.mark.parametrize("rows", [None, 1, 3, 64])
def test_joint_tracking_matches_separate_calls(rows, monkeypatch):
    # the nmr pairing: a closed-form and a propagated trace on the same nodes
    monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", (rows or 1 << 20) * 4)
    p = NmrParams.harmonic(1.0, 2.0, 5.0)
    h = rotating_frame_hamiltonian(p)
    grid = TimeGrid(0.0, 1.0, 300)
    frame = NmrParams.harmonic(0.0, p.detuning, p.drive_strength)  # the rotated frame's drive
    closed = sample_trace(lambda t: nmr_fast_propagator(frame, t), grid)
    numeric = propagate(h, grid)
    psi0 = minus_state(1)
    times, joint = track_ground_state(h, closed, numeric, psi0=psi0)
    assert len(joint) == 2
    for trace, values in zip((closed, numeric), joint):
        alone_times, (alone,) = track_ground_state(h, trace, psi0=psi0)
        assert np.array_equal(times, alone_times) and np.array_equal(values, alone)
    assert not np.array_equal(joint[0], joint[1])


def test_joint_tracking_truncates_every_curve_at_the_same_node():
    problem = IsingProblem(3, fields=(1.0, 1.0, 1.0))
    h, trace, psi0 = ground_state_trace(problem, 8.0, 0.5, 1000, 500)
    other = propagate(h, TimeGrid(0.0, 0.5, 1000), stride=500)
    times, joint = track_ground_state(h, trace, other, trace, psi0=psi0)
    assert times.tolist() == [0.0, 0.25]
    for values, single in zip(joint, (trace, other, trace)):
        alone_times, (alone,) = track_ground_state(h, single, psi0=psi0)
        assert np.array_equal(times, alone_times) and np.array_equal(values, alone)


def test_joint_tracking_needs_traces_on_the_same_nodes():
    h, trace, psi0 = ground_state_trace(IsingProblem(2, fields=(0.3, 0.1)), 1.0, 1.0, 100, 5)
    other = propagate(h, TimeGrid(0.0, 1.0, 100), stride=4)
    with pytest.raises(ValueError, match="same nodes"):
        track_ground_state(h, trace, other, psi0=psi0)
    with pytest.raises(ValueError, match="at least one trace"):
        track_ground_state(h, psi0=psi0)


def test_min_gap_keeps_the_per_time_bits(monkeypatch):
    problem = GroverProblem(2, 3)
    monkeypatch.setattr(operators, "_BLOCK_ELEMENTS", 5 * 4 * 4)
    result = run_annealing_experiment(problem, TimeGrid(0.0, 2.0, 400))
    h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 2.0), problem)
    energies = [np.linalg.eigh(h.matrix(float(t)))[0] for t in np.linspace(0.0, 2.0, 129)]
    gaps = [float(e[1] - e[0]) for e in energies]
    assert result["min_gap"] == min(gaps)


# ---------------------------------------------------------------------------
# SampledHamiltonian lookup


def test_sampled_hamiltonian_looks_up_all_nodes_at_once():
    times = np.linspace(0.1, 2.0, 20)
    mats = np.arange(20)[:, None, None] * np.ones((20, 2, 2), dtype=complex)
    sampled = SampledHamiltonian(times, mats, np.zeros(20))
    order = np.random.default_rng(3).permutation(20)
    jitter = 1e-10 * np.where(order % 2, 1.0, -1.0)
    np.testing.assert_array_equal(sampled.matrix_stack(times[order] + jitter), mats[order])
    for off in (times[3] + 1e-6, 0.0, 2.5, float("nan")):
        with pytest.raises(ValueError, match="not a sampled node"):
            sampled.matrix_stack([times[0], off])


# ---------------------------------------------------------------------------
# write_csv_curve


def reference_csv(path, times, values):
    """The per-row formatter: one write per row of float() reprs."""
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(times, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def assert_csv_like_reference(tmp_path, times, values):
    write_csv_curve(tmp_path / "new.csv", times, values)
    reference_csv(tmp_path / "ref.csv", times, values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
    0.1, 1 / 3, 1e16, 123456789012345678.0, 1.0, -2.5,
]


def test_csv_edge_values(tmp_path):
    ts = np.array(EDGE_VALUES)
    assert_csv_like_reference(tmp_path, ts, ts[::-1].copy())
    assert_csv_like_reference(tmp_path, EDGE_VALUES, EDGE_VALUES)


@pytest.mark.parametrize(
    "times, values",
    [
        (np.arange(10), np.arange(10, 20)),  # integer arrays print as floats
        (list(range(5)), [1, -1, 0, 2**53 + 1, -(2**60)]),
        (np.arange(7, dtype=np.int32), np.ones(7, dtype=bool)),
        (np.linspace(0, 1, 9, dtype=np.float32), np.float32([1e-45, 3.4e38, -0.0, 0.1, 1, 2, 3, 4, 5])),
        (np.linspace(0.0, 2.0, 10_001), np.sin(np.linspace(0.0, 2.0, 10_001))),  # several chunks
        (np.arange(5.0), np.arange(3.0)),  # unequal lengths stop at the shorter
        (np.array([]), np.array([])),
    ],
    ids=["int64", "python-ints", "int32-bool", "float32", "chunks", "unequal", "empty"],
)
def test_csv_array_kinds(tmp_path, times, values):
    assert_csv_like_reference(tmp_path, times, values)


@given(
    rows=hnp.arrays(
        np.float64, st.tuples(st.integers(0, 40), st.just(2)), elements=st.floats(width=64)
    )
)
def test_csv_random_doubles(tmp_path_factory, rows):
    assert_csv_like_reference(tmp_path_factory.mktemp("csv"), rows[:, 0], rows[:, 1])
