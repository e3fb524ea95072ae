"""Unitary frame transformations between pairs of time-dependent Hamiltonians.

Given propagators U and u of two Hamiltonians on the same Hilbert space, the
product S(t) = U(t) u(t)^dag transforms one into the other:

    h = S^dag H S - i S^dag dS/dt        (into the frame)
    H = S h S^dag - i S dS^dag/dt        (out of the frame)

This module constructs S from traces or closed forms, reconstructs either
Hamiltonian numerically, verifies the relation against a self-calibrated
second-order tolerance model, realizes the end state as one fast gate plus
one correction gate, and checks the exact energy/time trade-off on a shared
normalized-time grid.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import _as_float, _block_rows, _row_norms, _stack_matmul, hermitian_expm, pauli_matrix, phase_aligned_distance
from .propagation import (
    TimeGrid,
    UnitaryTrace,
    _check_dims,
    _count,
    _node_times,
    _snap_to_identity,
    _within_step_limit,
    nmr_fast_propagator,
    propagate_each,
    sample_trace,
)
from .schedules import NmrParams


# Absolute floor of the self-calibrated residual model in verify_transform.
_RESIDUAL_FLOOR = 1e-10


def compose_transform(fast: UnitaryTrace, slow: UnitaryTrace) -> UnitaryTrace:
    """S(t_k) = U(t_k) u(t_k)^dag from two traces on identical grids."""
    if (fast.grid, fast.stride, fast.dim) != (slow.grid, slow.stride, slow.dim):
        raise ValueError("traces must share the same grid, stride and dimension")
    mats = np.empty_like(fast.matrices)
    rows = _block_rows(fast.dim)
    conj = np.empty((min(rows, len(mats)), fast.dim, fast.dim), dtype=complex)  # one block of u^*
    for lo in range(0, len(mats), rows):
        block = slice(lo, lo + rows)
        u_conj = np.conjugate(slow.matrices[block], out=conj[: len(mats[block])])
        # not _stack_matmul: at dim 2 that moved nmr transform_threshold by -4.03e-12 through S's bits
        np.einsum("kij,klj->kil", fast.matrices[block], u_conj, out=mats[block])
    del conj, u_conj  # before the gate's own buffers
    what = "transform matrix"
    return UnitaryTrace(fast.grid, fast.stride, _snap_to_identity(mats, fast.grid, what), what)


def identity_transform(grid: TimeGrid, dim: int) -> UnitaryTrace:
    """The trivial frame change S(t) = I."""
    eye = np.eye(_count(dim, "dim"), dtype=complex)
    return sample_trace(lambda ts: np.broadcast_to(eye, (len(ts), *eye.shape)), grid)


def nmr_closed_form_transform(p: NmrParams, grid: TimeGrid) -> UnitaryTrace:
    """The drive-to-frame rotation exp(i (frame_phase - drive_phase) Z / 2)."""
    if p.frame_phase is None:
        raise ValueError("closed-form transform requires frame_phase")
    z = pauli_matrix("Z")

    def sampler(t):
        angle = p.frame_phase.value(t) - p.drive_phase.value(t)
        return hermitian_expm(z, -0.5 * angle)

    return sample_trace(sampler, grid)


# ---------------------------------------------------------------------------
# Frame-changed Hamiltonians on grid samples


class SampledHamiltonian:
    """Hermitian matrices on the interior nodes of a grid, as produced by the
    frame-change formulas with centrally differenced S.  ``times`` ascend.

    ``antihermitian_defects`` holds the per-node norm of the discarded
    anti-Hermitian part, the primary numerical-health signal."""

    def __init__(self, times: np.ndarray, matrices: np.ndarray, antihermitian_defects: np.ndarray):
        self.times, self.matrices, self.antihermitian_defects = times, matrices, antihermitian_defects

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def matrix_stack(self, ts) -> np.ndarray:
        """The stored matrices at ``ts``; each time must be a sampled node to
        within 1e-9 (relative, absolute below 1)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        hi = np.searchsorted(self.times, ts).clip(0, len(self.times) - 1)
        lo = (hi - 1).clip(0)
        k = np.where(ts - self.times[lo] <= self.times[hi] - ts, lo, hi)
        off = ~(np.abs(self.times[k] - ts) <= 1e-9 * np.maximum(1.0, np.abs(ts)))
        if off.any():
            raise ValueError(f"time {ts[np.argmax(off)]} is not a sampled node")
        return self.matrices[k]


def check_frame_steps(n_steps: int) -> None:
    """A frame change differences S centrally, so its grid needs an interior
    node: at least 2 steps."""
    if _within_step_limit(n_steps) < 2:
        raise ValueError(
            f"a frame change needs at least 2 steps (an interior node), got {n_steps}"
        )


def _frame_change(hamiltonian, transform: UnitaryTrace, adjoint=False, target=None):
    """s^dag (H s - i ds/dt) at the interior nodes of ``transform``'s grid,
    with s the transform's matrices or (``adjoint``) their adjoints, one block
    of nodes at a time.

    Without a ``target`` returns the SampledHamiltonian.  With one, holding
    only one block of it, returns the interior node times, the per-node
    Frobenius residuals against ``target`` there and the largest
    anti-Hermitian defect.  Residuals that overflow are inf, which no
    tolerance model passes.
    """
    check_frame_steps(transform.grid.n_steps)
    if transform.stride != 1:
        raise ValueError("frame change needs the transform on every grid node (stride 1)")
    _check_dims("the Hamiltonian", hamiltonian.dim, "the transform", transform.dim)
    if target is not None:
        _check_dims("the target Hamiltonian", target.dim, "the transform", transform.dim)
    grid = transform.grid
    keep = target is None
    n, dim = grid.n_steps - 1, transform.dim
    rows = min(_block_rows(dim), n)
    # One block of each temporary for the whole pass: the conjugates of the
    # block's nodes and their two neighbours (then r^*), ds/dt (then r) and
    # the Hermitian part (first H s - i ds/dt).  s and s^dag view the
    # transform and the conjugates, in either order.
    conj = np.empty((rows + 2, dim, dim), dtype=complex)
    s_dot_buf = np.empty((rows, dim, dim), dtype=complex)
    matrices = np.empty((n if keep else rows, dim, dim), dtype=complex)
    times = _node_times(grid, np.arange(1, n + 1))
    defects, residuals = (np.empty(n), None) if keep else (None, np.empty(n))
    max_defect = -np.inf

    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            m = hi - lo
            t_mid = times[lo:hi]
            nodes = transform.matrices[lo : hi + 2]
            herm = matrices[lo:hi] if keep else matrices[:m]
            nodes_conj = np.conjugate(nodes, out=conj[: m + 2])
            if adjoint:
                s, s_dag = nodes_conj.transpose(0, 2, 1), nodes[1:-1]
                s_dot = s_dot_buf[:m].transpose(0, 2, 1)
            else:
                s, s_dag, s_dot = nodes, nodes_conj[1:-1].transpose(0, 2, 1), s_dot_buf[:m]
            np.subtract(s[2:], s[:-2], out=s_dot)
            s_dot /= 2.0 * grid.dt  # central difference
            y = _stack_matmul(hamiltonian.matrix_stack(t_mid), s[1:-1], out=herm)
            y -= np.multiply(s_dot, 1j, out=s_dot)
            r = _stack_matmul(s_dag, y, out=s_dot_buf[:m])
            dag = np.conjugate(r, out=conj[:m]).transpose(0, 2, 1)
            np.add(r, dag, out=herm)
            herm *= 0.5
            r -= dag
            r *= 0.5  # the anti-Hermitian part
            max_defect = np.maximum(max_defect, np.max(_row_norms(r, out=defects[lo:hi] if keep else None)))
            if not keep:
                _row_norms(np.subtract(herm, target.matrix_stack(t_mid), out=s_dot_buf[:m]), out=residuals[lo:hi])
    if keep:
        return SampledHamiltonian(times, matrices, defects)
    return times, residuals, float(max_defect)


def transform_into_frame(hamiltonian, transform: UnitaryTrace) -> SampledHamiltonian:
    """h(t_k) = S^dag H S - i S^dag dS/dt at interior grid nodes.

    dS/dt is the central difference over neighbouring nodes, so the transform
    must cover every grid node; endpoints are dropped.  The reconstruction is
    Hermitized and the discarded defect reported per node.
    """
    return _frame_change(hamiltonian, transform)


def transform_out_of_frame(frame_hamiltonian, transform: UnitaryTrace) -> SampledHamiltonian:
    """H(t_k) = S h S^dag - i S dS^dag/dt: the formula of
    :func:`transform_into_frame` applied to S^dag."""
    return _frame_change(frame_hamiltonian, transform, adjoint=True)


# ---------------------------------------------------------------------------
# Verification


class ControlResidual:
    """What verify_transform reads of a transform's control: the grid the
    control was built on and its largest frame-change residual."""

    def __init__(self, grid: TimeGrid, max_residual: float):
        self.grid, self.max_residual = grid, _as_float(max_residual, "max_residual")


def control_residual(hamiltonian, frame_hamiltonian, control: UnitaryTrace) -> ControlResidual:
    """The largest frame-change residual of ``control``: the transform to be
    checked, built on the refinement of its grid, reduced one block of the
    reconstruction at a time.  Pass it in as a temporary before building the
    transform it calibrates, so the two are never held at once."""
    residuals = _frame_change(hamiltonian, control, target=frame_hamiltonian)[1]
    return ControlResidual(control.grid, np.max(residuals))


def verify_transform(
    hamiltonian,
    frame_hamiltonian,
    transform: UnitaryTrace,
    control: ControlResidual,
) -> tuple[dict, dict]:
    """Check that ``transform`` maps ``hamiltonian`` onto ``frame_hamiltonian``.

    ``control`` is :func:`control_residual` of the same transform on the
    refinement of its grid (same ends, twice the steps), and refused on any
    other.  The pass criterion is self-calibrated against it: the coarse
    maximum must not exceed 4 x (fine maximum) + 1e-10, and refining must
    actually shrink the residual (fine <= coarse/2 + 1e-10), so a
    grid-independent mismatch cannot masquerade as second-order differencing
    error.  A non-finite residual on either grid fails it.

    Returns the metrics ``max_residual``, ``control_max_residual``,
    ``threshold``, ``model_passed``, ``max_antihermitian_defect`` (of the
    frame Hamiltonian rebuilt on the coarse grid, which is kept only as
    values), ``inconsistent_transform`` (that defect beyond 10 x the
    threshold) and ``fd_step`` (the differencing step), and the curve
    ``residuals``: the per-node residuals as (times, values), on the
    interior nodes the frame-change pass walked.
    """
    fine, grid, control_max = control.grid, transform.grid, control.max_residual
    if (fine.t_start, fine.t_end, fine.n_steps) != (grid.t_start, grid.t_end, 2 * grid.n_steps):
        raise ValueError(f"the control's grid {fine} is not the refinement of the transform's {grid}")
    times, residuals, max_defect = _frame_change(hamiltonian, transform, target=frame_hamiltonian)
    max_residual = float(np.max(residuals))
    threshold = 4.0 * control_max + _RESIDUAL_FLOOR
    finite = math.isfinite(max_residual) and math.isfinite(control_max)
    metrics = {
        "max_residual": max_residual,
        "control_max_residual": control_max,
        "threshold": threshold,
        "model_passed": bool(
            finite
            and max_residual <= threshold
            and control_max <= 0.5 * max_residual + _RESIDUAL_FLOOR
        ),
        "max_antihermitian_defect": max_defect,
        "inconsistent_transform": bool(max_defect > 10.0 * threshold),
        "fd_step": grid.dt,
    }
    return metrics, {"residuals": (times, residuals)}


def two_gate_realization(
    fast_trace: UnitaryTrace, transform: UnitaryTrace, psi0: np.ndarray
) -> np.ndarray:
    """S^dag(T) U(T) psi0: one fast evolution followed by one correction gate,
    both read at the last stored node of their traces, which must coincide.

    With S composed from the same traces this equals the slow evolution
    u(T) psi0 up to floating-point error.
    """
    if fast_trace.grid.t_end != transform.grid.t_end:
        raise ValueError(
            f"the fast trace ends at t={fast_trace.grid.t_end} but the transform "
            f"at t={transform.grid.t_end}"
        )
    _check_dims("the fast trace", fast_trace.dim, "the transform", transform.dim)
    return transform.final.conj().T @ fast_trace.apply(psi0)


# ---------------------------------------------------------------------------
# Energy/time trade-off on a shared normalized-time grid


class TimeScaling:
    """Characteristic times of the fast and slow processes, fast < slow."""

    def __init__(self, fast_time: float, slow_time: float):
        self.fast_time, self.slow_time = _as_float(fast_time, "fast_time"), _as_float(slow_time, "slow_time")
        if not 0 < self.fast_time < self.slow_time:
            raise ValueError(f"need 0 < fast_time < slow_time, got {fast_time}, {slow_time}")
        if not math.isfinite(self.ratio):
            raise ValueError(
                f"the ratio slow_time/fast_time = {self.slow_time!r}/{self.fast_time!r} overflows"
            )

    @property
    def ratio(self) -> float:
        return self.slow_time / self.fast_time


class _AmplitudeScaled:
    """A constant multiple of another Hamiltonian (same time axis), refused
    at the first time where it leaves the float range."""

    def __init__(self, base, factor: float):
        self.base = base
        self.factor = factor
        self.dim = base.dim

    def matrix_stack(self, ts):
        with np.errstate(over="ignore", invalid="ignore"):  # named below
            out = self.factor * self.base.matrix_stack(ts)
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            t = float(np.atleast_1d(ts)[np.argmin(finite)])
            raise ValueError(f"the Hamiltonian scaled by {self.factor!r} is not finite at t={t!r}")
        return out


def time_rescaling_equivalence(
    frame_hamiltonian,
    scaling: TimeScaling,
    grid: TimeGrid,
    stride: int = 1,
) -> tuple[dict, dict]:
    """Propagate the amplitude-boosted fast generator and the original slow
    generator over ``grid``, in normalized time, and compare node-wise.

    ``frame_hamiltonian`` must be parameterized on normalized time; the fast
    Hamiltonian is its (slow_time/fast_time)-fold boost, so the two
    propagators agree exactly and any reported distance is numerical noise.
    Returns the metrics ``max_distance`` and ``max_unitarity_defect`` (the
    larger of the two traces'), and the curve ``distance``: the node-wise
    phase-aligned distances as (times, values).
    """
    boosted = _AmplitudeScaled(frame_hamiltonian, scaling.ratio)
    gen_fast = _AmplitudeScaled(boosted, scaling.fast_time)
    gen_slow = _AmplitudeScaled(frame_hamiltonian, scaling.slow_time)
    fast_trace, slow_trace = propagate_each((gen_fast, gen_slow), grid, stride=stride)
    distances = phase_aligned_distance(fast_trace.matrices, slow_trace.matrices)
    metrics = {
        "max_distance": float(np.max(distances)),
        "max_unitarity_defect": max(fast_trace.max_defect, slow_trace.max_defect),
    }
    return metrics, {"distance": (fast_trace.times, distances)}


def verify_rescaled_drive(drive_strength: float, scaling: TimeScaling, grid: TimeGrid) -> float:
    """The largest distance of the closed-form propagators of the fast drive
    (g, T) and the slow drive (g T / T', T') from the shared normalized-time
    one, the drive (T g, 1) at zero splitting, on the nodes of ``grid`` in
    normalized time: they collapse onto it when g T is matched, the splitting
    is zero and one drive period spans the characteristic time.  The nodes
    are evaluated one block at a time.  A matched strength that overflows,
    or underflows to 0, is refused."""
    g, T, T_slow = float(drive_strength), scaling.fast_time, scaling.slow_time
    matched = T * g
    if not math.isfinite(matched):
        raise ValueError(f"the matched drive strength T g = {T!r} x {g!r} overflows")
    if not matched / T_slow > 0.0:  # g T / T' < g T, as T < T'
        raise ValueError(
            f"the matched drive strength g T / T' = {g!r} x {T!r} / {T_slow!r} underflows to "
            f"{matched / T_slow!r}"
        )
    shared = NmrParams.harmonic(0.0, 2.0 * np.pi, matched)
    fast = NmrParams.harmonic(0.0, 2.0 * np.pi / T, g)
    slow = NmrParams.harmonic(0.0, 2.0 * np.pi / T_slow, matched / T_slow)
    n_nodes = grid.n_steps + 1
    rows, maxima = _block_rows(2), []
    for lo in range(0, n_nodes, rows):
        tau = _node_times(grid, np.arange(lo, min(lo + rows, n_nodes)))
        ref = nmr_fast_propagator(shared, tau)
        for p, period in ((fast, T), (slow, T_slow)):
            maxima.append(np.max(phase_aligned_distance(nmr_fast_propagator(p, tau * period), ref)))
    return float(np.max(maxima))
