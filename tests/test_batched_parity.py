"""Batched analysis kernels against reference loops written out here: one
call per scale, per matrix pair or per node, as the kernels were computed
before they were batched."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qxform.propagation as propagation
from qxform.experiments import run_annealing_experiment, track_ground_state
from qxform.hamiltonians import (
    GroverProblem,
    IsingProblem,
    annealing_hamiltonian,
)
from qxform.operators import hermitian_expm, phase_align, phase_aligned_distance
from qxform.propagation import TimeGrid, propagate
from qxform.schedules import LinearRamp
from qxform.transform import SampledHamiltonian

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
# phase_align


def reference_phase_align(a, b):
    tr = complex(np.einsum("ij,ij->", b.conj(), a))
    if abs(tr) == 0.0:
        return float(np.linalg.norm(a - b)), 0.0, True
    phi = math.atan2(tr.imag, tr.real)
    return float(np.linalg.norm(a - np.exp(1j * phi) * b)), phi, False


@given(
    dim=st.sampled_from([1, 2, 4]),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_stacked_phase_align_matches_per_pair(dim, n, data):
    a = complex_matrices(data, (n, dim, dim))
    b = complex_matrices(data, (n, dim, dim))
    # traceless diag(1, -1, ...) against a multiple of I: tr(B^dag A) is exactly 0
    zero_trace = data.draw(hnp.arrays(np.bool_, n)) if dim % 2 == 0 else np.zeros(n, bool)
    signs = np.resize([1.0, -1.0], dim)
    a[zero_trace] = np.diag(signs) * a[zero_trace][:, :1, :1]
    b[zero_trace] = np.eye(dim) * b[zero_trace][:, :1, :1]

    stacked = phase_align(a, b)
    assert stacked.distance.shape == stacked.phase.shape == stacked.fallback.shape == (n,)
    np.testing.assert_array_equal(phase_aligned_distance(a, b), stacked.distance)
    for k in range(n):
        ref_dist, ref_phase, ref_fallback = reference_phase_align(a[k], b[k])
        single = phase_align(a[k], b[k])
        assert type(single.distance) is float and type(single.fallback) is bool
        for got in (single, (stacked.distance[k], stacked.phase[k], stacked.fallback[k])):
            dist, phase, fallback = got
            assert fallback == ref_fallback
            assert dist == pytest.approx(ref_dist, rel=1e-14, abs=1e-14)
            assert phase == pytest.approx(ref_phase, rel=0, abs=1e-14)
    assert stacked.fallback[zero_trace].all()


# ---------------------------------------------------------------------------
# track_ground_state


def reference_track(h, trace, psi0, degeneracy_tol=1e-10):
    times, values, truncated_at = [], [], None
    prev = None
    for k, t in enumerate(trace.times):
        energies, states = np.linalg.eigh(h.matrix(float(t)))
        if prev is None:
            b = 0
        else:
            overlaps = np.abs(prev.conj() @ states) ** 2
            b = int(np.argmax(overlaps))
            if overlaps[b] < 0.25:
                truncated_at = float(t)
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
    return np.asarray(times), np.asarray(values), truncated_at


def assert_tracks_like_reference(h, trace, psi0, rows, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(propagation, "_BLOCK_ELEMENTS", rows * h.dim * h.dim)
    curve = track_ground_state(h, trace, psi0)
    times, values, truncated_at = reference_track(h, trace, psi0)
    np.testing.assert_array_equal(curve.times, times)
    np.testing.assert_allclose(curve.values, values, rtol=0, atol=1e-13)
    assert curve.truncated == (truncated_at is not None)
    assert curve.truncated_at == truncated_at
    assert curve.min_value == np.min(curve.values)
    return curve


def ground_state_trace(problem, s0, t_final, n_steps, stride):
    h = annealing_hamiltonian(LinearRamp(s0, 0.0, t_final), problem)
    trace = propagate(h, TimeGrid(0.0, t_final, n_steps), stride=stride)
    return h, trace, np.linalg.eigh(h.matrix(0.0))[1][:, 0]


@pytest.mark.parametrize("rows", [None, 1, 2, 3, 7])
class TestTrackGroundStateParity:
    def test_degenerate_cluster(self, rows, monkeypatch):
        # the Hamiltonian vanishes at the end: every state is in the ground cluster
        h, trace, psi0 = ground_state_trace(IsingProblem(2, fields=(0.0, 0.0)), 1.0, 1.0, 100, 5)
        curve = assert_tracks_like_reference(h, trace, psi0, rows, monkeypatch)
        assert len(curve.values) == 21 and not curve.truncated
        assert curve.values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_truncation_after_the_first_block(self, rows, monkeypatch):
        # nodes at transverse field 8, 4, 0: the last step swaps the basis too
        # far to follow, so tracking is lost at the final node
        problem = IsingProblem(3, fields=(1.0, 1.0, 1.0))
        h, trace, psi0 = ground_state_trace(problem, 8.0, 0.5, 1000, 500)
        curve = assert_tracks_like_reference(h, trace, psi0, rows, monkeypatch)
        assert curve.truncated_at == 0.5 and len(curve.values) == 2

    def test_spans_many_blocks(self, rows, monkeypatch):
        problem = IsingProblem(3, fields=(0.3, -0.5, 0.2), couplings=((0, 1, 0.7), (1, 2, -0.4)))
        h, trace, psi0 = ground_state_trace(problem, 2.0, 4.0, 400, 7)
        curve = assert_tracks_like_reference(h, trace, psi0, rows, monkeypatch)
        assert len(curve.values) == len(trace.times)


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


def test_min_gap_keeps_the_per_time_bits(monkeypatch):
    problem = GroverProblem(2, 3)
    monkeypatch.setattr(propagation, "_BLOCK_ELEMENTS", 5 * 4 * 4)
    result = run_annealing_experiment(problem, t_final=2.0, n_steps=400, eigen_samples=33)
    h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 2.0), problem)
    energies = [np.linalg.eigh(h.matrix(float(t)))[0] for t in np.linspace(0.0, 2.0, 33)]
    gaps = [float(e[1] - e[0]) for e in energies]
    assert result.min_gap == min(gaps)


# ---------------------------------------------------------------------------
# SampledHamiltonian lookup


def test_sampled_hamiltonian_looks_up_all_nodes_at_once():
    times = np.linspace(0.1, 2.0, 20)
    mats = np.arange(20)[:, None, None] * np.ones((20, 2, 2), dtype=complex)
    sampled = SampledHamiltonian(times, mats, np.zeros(20), 0.1)
    order = np.random.default_rng(3).permutation(20)
    jitter = 1e-10 * np.where(order % 2, 1.0, -1.0)
    np.testing.assert_array_equal(sampled.matrix_stack(times[order] + jitter), mats[order])
    np.testing.assert_array_equal(sampled.matrix(float(times[4])), mats[4])
    for off in (times[3] + 1e-6, 0.0, 2.5, float("nan")):
        with pytest.raises(ValueError, match="not a sampled node"):
            sampled.matrix_stack([times[0], off])
