"""Time-ordered integration of i dU/dt = H(t) U on uniform grids, plus the
closed-form propagator of the uniformly rotating drive used as oracles.

The integrator is the midpoint-exponential rule: each step applies the exact
exponential of the Hamiltonian frozen at the step midpoint, so every step is
unitary by construction and the global error is second order in the step.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .operators import (
    _as_int,
    _block_rows,
    _hermitian_expm_stack,
    _row_norms,
    _stack_matmul,
    _unit_state,
    hermitian_expm,
    pauli_matrix,
)
from .schedules import NmrParams

# Traces are aborted, not repaired, beyond this unitarity defect.
DEFECT_LIMIT = 1e-8

# Longest grid accepted: about 1.8 h at dim 16 (ising runs at ~65 us a step),
# and every node index still converts exactly to a float.
MAX_STEPS = 10**8


class UnitarityError(RuntimeError):
    """A propagated or stored unitary drifted beyond the defect limit."""

    def __init__(self, message: str, step_index: int, defect: float):
        super().__init__(message)
        self.step_index = step_index
        self.defect = defect


class TimeGrid:
    """Uniform grid with n_steps steps between t_start and t_end.  Each end
    must be at most half the largest float in magnitude, or the sum of two
    node times that forms a step midpoint overflows.  The step must be a
    normal float: a subnormal one loses the low bits of the node times.
    Grids with equal ends and step counts are equal."""

    def __init__(self, t_start: float, t_end: float, n_steps: int):
        self.t_start, self.t_end = t_start, t_end
        self.n_steps = _count(_within_step_limit(n_steps), "n_steps")
        if not t_end > t_start:
            raise ValueError(f"grid needs t_end > t_start, got [{t_start}, {t_end}]")
        for name, t in (("t_start", t_start), ("t_end", t_end)):
            if not abs(t) <= sys.float_info.max / 2:
                raise ValueError(
                    f"{name} = {t!r} exceeds half the largest float, where the sum of two "
                    "node times at a step midpoint overflows"
                )
        if not self.dt >= sys.float_info.min:
            raise ValueError(
                f"a grid step of {self.dt!r} is below the smallest normal float "
                f"{sys.float_info.min!r}"
            )

    def _key(self) -> tuple:
        return self.t_start, self.t_end, self.n_steps

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"TimeGrid(t_start={self.t_start!r}, t_end={self.t_end!r}, n_steps={self.n_steps!r})"

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def refined(self) -> "TimeGrid":
        """The grid with twice as many steps."""
        return TimeGrid(self.t_start, self.t_end, 2 * self.n_steps)


def _count(value, name: str, floor: int = 1) -> int:
    """``value`` as an int, refused by ``name`` unless it is a whole number
    of at least ``floor``: a fraction, NaN, infinity or non-number is not."""
    n = _as_int(value)
    if n is None:
        raise ValueError(f"{name} must be a whole number, got {value}")
    if n < floor:
        raise ValueError(f"{name} must be at least {floor}, got {value}")
    return n


def _within_step_limit(n_steps):
    """``n_steps`` unchanged if it is at most MAX_STEPS; a larger, infinite or
    NaN count is refused before anything converts it to an int.  The message
    gives the count as ``:g`` does, in full where ``:g`` would print the limit
    itself, and an integer too large for any float as more than the largest
    float, without converting it."""
    if not n_steps <= MAX_STEPS:
        if sys.float_info.max < n_steps < math.inf:
            shown = f"more than {sys.float_info.max:g}"
        elif f"{n_steps:g}" == f"{MAX_STEPS:g}":
            shown = str(n_steps)
        else:
            shown = f"{n_steps:g}"
        raise ValueError(f"a grid of {shown} steps exceeds the limit of {MAX_STEPS:g} steps")
    return n_steps


def _node_times(grid: TimeGrid, nodes: np.ndarray) -> np.ndarray:
    """Times of the grid nodes with the given indices, as np.linspace gives
    them (the last node is exactly t_end), without building the whole grid."""
    return np.where(nodes == grid.n_steps, grid.t_end, nodes * grid.dt + grid.t_start)


def _stored_count(n_steps: int, stride: int) -> int:
    """Nodes kept at ``stride``: every stride-th one and the last."""
    return -(-n_steps // stride) + 1


def _stored_indices(n_steps: int, stride: int) -> np.ndarray:
    """Grid indices of the stored slots: slot k holds node min(k * stride, n_steps)."""
    return np.minimum(np.arange(_stored_count(n_steps, stride)) * stride, n_steps)


def _check_trace_bytes(n_nodes: int, dim: int, remedy: str = "increase the stride") -> None:
    """Refuse a trace whose stored unitaries would need over 2 GiB."""
    est_bytes = n_nodes * dim * dim * 16
    if est_bytes > 2 * 2**30:
        raise ValueError(
            f"storing {n_nodes} unitaries of dimension {dim} needs "
            f"~{est_bytes / 2**30:.1f} GiB; {remedy}"
        )


def _check_dims(first: str, a: int, second: str, b: int) -> None:
    """Refuse operands of two dimensions, naming both."""
    if a != b:
        raise ValueError(f"{first} has dimension {a} but {second} has dimension {b}")


class UnitaryTrace:
    """Unitaries on every ``stride``-th node of a time grid and its last: a
    propagator U(t_k) or a frame change S(t_k) = U(t_k) u(t_k)^dag.

    Its constructor gates one (d, d) matrix per stored node, keeps the
    largest defect in ``max_defect`` and freezes the array, now the trace's.
    """

    def __init__(self, grid: TimeGrid, stride: int, matrices: np.ndarray, what: str = "trace unitary"):
        self.grid, self.stride, self.matrices = grid, _count(stride, "stride"), np.asarray(matrices, dtype=complex)
        n_nodes, shape = _stored_count(grid.n_steps, self.stride), self.matrices.shape
        if not (len(shape) == 3 and shape[0] == n_nodes and shape[1] == shape[2] >= 1):
            raise ValueError(
                f"a trace on {grid} at stride {self.stride} needs a ({n_nodes}, d, d) stack, got shape {shape}"
            )
        self.max_defect = _check_stored(self.matrices, lambda k: min(k * self.stride, grid.n_steps), what)
        self.matrices.flags.writeable = False

    @property
    def times(self) -> np.ndarray:
        """Times of the stored nodes."""
        return _node_times(self.grid, _stored_indices(self.grid.n_steps, self.stride))

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def apply(self, psi0: np.ndarray) -> np.ndarray:
        """U(T) psi0 with the last stored unitary."""
        return self.final @ _unit_state(psi0, (self.dim,), "initial state")


def _batch_defects(us: np.ndarray) -> np.ndarray:
    """||U^dag U - I|| per matrix of the stack, one block of rows at a time,
    every block's temporaries written into the same two buffers."""
    dim = us.shape[-1]
    rows = _block_rows(dim)
    u_conj, gram = (np.empty((min(rows, len(us)), dim, dim), dtype=complex) for _ in range(2))
    defects = np.empty(len(us))
    for lo in range(0, len(us), rows):
        block = us[lo : lo + rows]
        m = len(block)
        block_conj = np.conjugate(block, out=u_conj[:m])
        g = _stack_matmul(block_conj.transpose(0, 2, 1), block, out=gram[:m])
        g.reshape(m, -1).view(np.float64)[:, :: 2 * (dim + 1)] -= 1.0  # U^dag U - I on the real diagonal
        _row_norms(g, out=defects[lo : lo + m])
    return defects


def _check_stored(us: np.ndarray, step_of, what: str) -> float:
    """The largest defect of the stack; beyond the limit it is refused,
    naming the grid step ``step_of(k)`` of its matrix k."""
    defects = _batch_defects(us)
    worst = int(np.argmax(defects))
    if not (defects[worst] <= DEFECT_LIMIT):
        step = int(step_of(worst))
        raise UnitarityError(
            f"{what} at step {step} has unitarity defect "
            f"{defects[worst]:.3e} > {DEFECT_LIMIT:g}",
            step_index=step,
            defect=float(defects[worst]),
        )
    return float(defects[worst])


def _snap_to_identity(mats: np.ndarray, grid: TimeGrid, what: str) -> np.ndarray:
    """``mats`` with its first matrix, computed rather than written, snapped to
    the exact identity; beyond 1e-12 of it the matrix is refused by ``what``."""
    first_gap = float(np.linalg.norm(mats[0] - np.eye(mats.shape[-1])))
    if not (first_gap <= 1e-12):
        raise ValueError(f"{what} at t={grid.t_start} deviates from the identity by {first_gap:.3e}")
    mats[0] = np.eye(mats.shape[-1])
    return mats


def propagate(hamiltonian, grid: TimeGrid, stride: int = 1) -> UnitaryTrace:
    """Integrate i dU/dt = H(t) U with U(t_start) = I by midpoint exponentials:
    the one-Hamiltonian case of :func:`propagate_each`."""
    return propagate_each((hamiltonian,), grid, stride)[0]


def propagate_each(hamiltonians, grid: TimeGrid, stride: int = 1) -> tuple[UnitaryTrace, ...]:
    """Integrate i dU/dt = H(t) U with U(t_start) = I by midpoint exponentials
    for each of ``hamiltonians`` (anything with ``dim`` and ``matrix_stack(ts)``,
    all of one dimension) in lockstep, each into its own trace.

    Every n-th node is retained per ``stride`` (the final node always is).
    Each member takes a whole block's rows, its steps in lockstep; one
    exponential and one gate cover the block, written over its midpoint
    Hamiltonians, and one batched product per step advances every member.  A
    step defect beyond the limit aborts naming its grid step: the earliest
    failing block across the members first, within it the largest defect.
    """
    hamiltonians = tuple(hamiltonians)
    dims = sorted({h.dim for h in hamiltonians})
    if len(dims) != 1:
        raise ValueError(f"lockstep propagation needs Hamiltonians of one dimension, got {dims}")
    (dim,) = dims
    k = len(hamiltonians)
    stride = _count(stride, "stride")
    n_nodes = _stored_count(grid.n_steps, stride)
    _check_trace_bytes(k * n_nodes, dim)  # before any per-node allocation
    last = grid.n_steps
    rows = min(_block_rows(dim), last)

    stored = tuple(np.empty((n_nodes, dim, dim), dtype=complex) for _ in hamiltonians)
    # row j of hs holds the midpoint Hamiltonians of step j, then its step
    # unitaries; row j of us holds conj(V) of the exponential, then
    # U(t_{lo+j+1}) = step_j @ U(t_{lo+j}); carry holds U(t_lo)
    hs, us = (np.empty((rows, k, dim, dim), dtype=complex) for _ in range(2))
    carry = np.tile(np.eye(dim, dtype=complex), (k, 1, 1))
    for lo in range(0, last, rows):
        hi = min(lo + rows, last)
        m = hi - lo
        times = _node_times(grid, np.arange(lo, hi + 1))
        mid = 0.5 * (times[:-1] + times[1:])
        for i, hamiltonian in enumerate(hamiltonians):
            hs[:m, i] = hamiltonian.matrix_stack(mid)
        steps = hs[:m].reshape(m * k, dim, dim)
        steps = _hermitian_expm_stack(steps, grid.dt, out=steps, work=us[:m].reshape(m * k, dim, dim))
        _check_stored(steps, lambda j: lo + j // k, "step unitary")
        u = carry
        for step, out in zip(steps.reshape(m, k, dim, dim), us):
            np.matmul(step, u, out)  # _stack_matmul at dim 2 moved nmr transform_threshold by -3.05e-12
            u = out
        carry[:] = u
        # slot s holds node s * stride: those in (lo, hi] are rows s * stride - lo - 1
        first = lo // stride + 1
        count = hi // stride + 1 - first
        for i, mats in enumerate(stored):
            mats[first : first + count] = us[first * stride - lo - 1 :: stride, i][:count]
    for i, mats in enumerate(stored):
        mats[0] = np.eye(dim)
        mats[-1] = carry[i]  # the last node, a stride multiple or not
    del hs, us, steps  # freed before the gates take their own two blocks
    return tuple(UnitaryTrace(grid, stride, mats, "stored unitary") for mats in stored)


def sample_trace(fn, grid: TimeGrid) -> UnitaryTrace:
    """Build a trace by sampling a closed-form propagator at every grid node.

    ``fn`` is called with an array of node times and must return the
    (len(times), d, d) stack of propagators at them.  It is called once for
    the first node, which fixes d and with it the trace's storage bound,
    and then once per block of the row budget, each block written straight
    into the trace.  The sample at t_start must equal the
    identity to within 1e-12; it is then snapped to the exact identity so
    composed transforms start at exactly I.
    """
    n_nodes = grid.n_steps + 1
    mats, lo, rows = None, 0, 1  # the first node alone fixes d, and with it the block rows
    while lo < n_nodes:
        hi = min(lo + rows, n_nodes)
        block = np.asarray(fn(_node_times(grid, np.arange(lo, hi))))
        square = block.shape[1:] if mats is None else mats.shape[1:]
        if block.shape != (hi - lo, *square) or len(square) != 2 or not 0 < square[0] == square[1]:
            raise ValueError(
                f"sampler returned shape {block.shape} for {hi - lo} times; "
                f"expected ({hi - lo}, d, d)"
            )
        if mats is None:
            _check_trace_bytes(n_nodes, square[0], "take fewer steps")
            mats = np.empty((n_nodes, *square), dtype=complex)
            rows = _block_rows(square[0])
        mats[lo:hi] = block
        lo = hi
    return UnitaryTrace(grid, 1, _snap_to_identity(mats, grid, "sampled unitary"), "sampled unitary")


# ---------------------------------------------------------------------------
# The closed-form propagator of the uniformly rotating drive


def nmr_fast_propagator(p: NmrParams, t) -> np.ndarray:
    """Exact lab-frame propagator of the rotating drive:
    exp(-i w Z t / 2) exp(-i (2 g X - d Z) t / 2), d = w - splitting.

    The frame rotating at the detuning sees a rotating drive too, of zero
    splitting, rate d and the same g, so the rotated-frame propagator is this
    function of ``NmrParams.harmonic(0.0, d, g)``.  A number ``t`` gives one
    (2, 2) matrix, a 1-D array of times a stack; a drive that is not
    harmonic, or a generator 2 g X - d Z beyond the float range, is refused."""
    d, g = p.detuning, p.drive_strength
    if not (math.isfinite(2.0 * g) and math.isfinite(d)):
        raise ValueError(f"the drive generator 2 g X - d Z overflows at g = {g!r}, d = {d!r}")
    z = pauli_matrix("Z")
    x = pauli_matrix("X")
    return _stack_matmul(
        hermitian_expm(z, 0.5 * p.drive_phase.rate * t), hermitian_expm(2.0 * g * x - d * z, 0.5 * t)
    )
