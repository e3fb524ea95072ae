"""Round-trip properties of UnitaryTrace: composing two traces is the node-wise
product U(t_k) u(t_k)^dag, and write_trace/read_trace reproduce every trace
bit for bit, whether it is a propagator or a composed frame change."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qxform.hamiltonians import nmr_hamiltonian
from qxform.operators import hermitian_expm
from qxform.propagation import TimeGrid, propagate, read_trace, sample_trace, write_trace
from qxform.schedules import NmrParams
from qxform.transform import compose_transform

finite = st.floats(-2.0, 2.0, allow_nan=False)
# printable ASCII: spaces (leading, inner, trailing) but no line breaks
labels = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=24)


def hermitian(data, dim):
    shape = (dim, dim)
    a = data.draw(hnp.arrays(np.float64, shape, elements=finite))
    a = a + 1j * data.draw(hnp.arrays(np.float64, shape, elements=finite))
    return 0.5 * (a + a.conj().T)


def grids(data, lowest=-10.0):
    t_start = data.draw(st.floats(lowest, 10.0))
    length = data.draw(st.floats(0.1, 10.0))
    return TimeGrid(t_start, t_start + length, data.draw(st.integers(1, 12)))


def sampled(data, grid, dim, label, stride):
    """exp(-i G (t - t_start)) for a random Hermitian G, sampled through
    hermitian_expm over the array of stored node times."""
    g = hermitian(data, dim)
    return sample_trace(lambda ts: hermitian_expm(g, ts - grid.t_start), grid, label, stride)


@given(dim=st.sampled_from([2, 4, 8]), data=st.data())
def test_compose_is_the_nodewise_product(dim, data):
    grid = grids(data)
    stride = data.draw(st.integers(1, 4))
    fast, slow = sampled(data, grid, dim, "U", stride), sampled(data, grid, dim, "u", stride)
    composed = compose_transform(fast, slow)
    assert np.array_equal(composed.times, fast.times)
    for k in range(len(fast.times)):
        expected = fast.matrices[k] @ slow.matrices[k].conj().T
        np.testing.assert_allclose(composed.matrices[k], expected, rtol=0, atol=1e-14)


def assert_round_trip(trace, path):
    write_trace(trace, path)
    back = read_trace(path)
    assert back.grid == trace.grid
    assert back.label == trace.label
    assert np.array_equal(back.times, trace.times)
    assert np.array_equal(back.matrices, trace.matrices)


@settings(max_examples=40)
@given(label=labels, stride=st.integers(2, 5), data=st.data())
def test_propagator_trace_round_trips(tmp_path_factory, label, stride, data):
    grid = grids(data, lowest=0.0)  # schedules start at t = 0
    splitting, rate = data.draw(st.floats(0.0, 3.0)), data.draw(st.floats(0.0, 3.0))
    p = NmrParams.harmonic(splitting, rate, data.draw(st.floats(0.1, 3.0)))
    trace = propagate(nmr_hamiltonian(p), grid, label=label, stride=stride)
    assert_round_trip(trace, tmp_path_factory.mktemp("trace") / "propagator.txt")


@settings(max_examples=40)
@given(dim=st.sampled_from([2, 4]), fast_label=labels, slow_label=labels, data=st.data())
def test_composed_transform_round_trips(tmp_path_factory, dim, fast_label, slow_label, data):
    grid = grids(data)
    stride = data.draw(st.integers(1, 4))
    transform = compose_transform(
        sampled(data, grid, dim, fast_label, stride), sampled(data, grid, dim, slow_label, stride)
    )
    assert_round_trip(transform, tmp_path_factory.mktemp("trace") / "transform.txt")
