"""Composing two traces is the node-wise product U(t_k) u(t_k)^dag, on random
grids, strides and generators."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qxform.propagation import TimeGrid, propagate
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


class Frozen:
    """A time-independent Hamiltonian G."""

    def __init__(self, g):
        self.g, self.dim = g, len(g)

    def matrix_stack(self, ts):
        return np.broadcast_to(self.g, (len(ts), self.dim, self.dim))


def propagated(data, grid, dim, stride):
    """exp(-i G (t - t_start)) for a random Hermitian G, propagated on the
    grid and kept at every stride-th node and the last."""
    return propagate(Frozen(hermitian(data, dim)), grid, stride)


@given(dim=st.sampled_from([2, 4, 8]), data=st.data())
def test_compose_is_the_nodewise_product(dim, data):
    grid = grids(data)
    stride = data.draw(st.integers(1, 4))
    fast, slow = propagated(data, grid, dim, stride), propagated(data, grid, dim, stride)
    composed = compose_transform(fast, slow)
    assert np.array_equal(composed.times, fast.times)
    for k in range(len(fast.times)):
        expected = fast.matrices[k] @ slow.matrices[k].conj().T
        np.testing.assert_allclose(composed.matrices[k], expected, rtol=0, atol=1e-14)
