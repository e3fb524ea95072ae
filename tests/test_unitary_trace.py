"""Composing two traces is the node-wise product U(t_k) u(t_k)^dag, on random
grids, strides and generators."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qxform.operators import hermitian_expm
from qxform.propagation import TimeGrid, sample_trace
from qxform.transform import compose_transform

finite = st.floats(-2.0, 2.0, allow_nan=False)


def hermitian(data, dim):
    shape = (dim, dim)
    a = data.draw(hnp.arrays(np.float64, shape, elements=finite))
    a = a + 1j * data.draw(hnp.arrays(np.float64, shape, elements=finite))
    return 0.5 * (a + a.conj().T)


def grids(data):
    t_start = data.draw(st.floats(-10.0, 10.0))
    length = data.draw(st.floats(0.1, 10.0))
    return TimeGrid(t_start, t_start + length, data.draw(st.integers(1, 12)))


def sampled(data, grid, dim, stride):
    """exp(-i G (t - t_start)) for a random Hermitian G, sampled through
    hermitian_expm over the array of stored node times."""
    g = hermitian(data, dim)
    return sample_trace(lambda ts: hermitian_expm(g, ts - grid.t_start), grid, stride)


@given(dim=st.sampled_from([2, 4, 8]), data=st.data())
def test_compose_is_the_nodewise_product(dim, data):
    grid = grids(data)
    stride = data.draw(st.integers(1, 4))
    fast, slow = sampled(data, grid, dim, stride), sampled(data, grid, dim, stride)
    composed = compose_transform(fast, slow)
    assert np.array_equal(composed.times, fast.times)
    for k in range(len(fast.times)):
        expected = fast.matrices[k] @ slow.matrices[k].conj().T
        np.testing.assert_allclose(composed.matrices[k], expected, rtol=0, atol=1e-14)
