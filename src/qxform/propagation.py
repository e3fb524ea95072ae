"""Time-ordered integration of i dU/dt = H(t) U on uniform grids, plus the
closed-form propagators of the uniformly rotating drive used as oracles.

The integrator is the midpoint-exponential rule: each step applies the exact
exponential of the Hamiltonian frozen at the step midpoint, so every step is
unitary by construction and the global error is second order in the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    _MATMUL_MIN_DIM,
    _hermitian_expm_stack,
    hermitian_expm,
    normalization_defect,
    pauli_matrix,
)
from .schedules import Harmonic, NmrParams

# Traces are aborted, not repaired, beyond this unitarity defect.
DEFECT_LIMIT = 1e-8

# Matrix elements per batched block: bounds the working set of every blocked
# evaluation (propagation steps, eigensystem stacks) at 64 MiB per complex stack.
_BLOCK_ELEMENTS = 1 << 22

_TRACE_MAGIC = "qxform-trace 1"


class UnitarityError(RuntimeError):
    """A propagated or stored unitary drifted beyond the defect limit."""

    def __init__(self, message: str, step_index: int, defect: float):
        super().__init__(message)
        self.step_index = step_index
        self.defect = defect


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_steps steps between t_start and t_end."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if int(self.n_steps) < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if not self.t_end > self.t_start:
            raise ValueError(
                f"grid needs t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)

    def midpoints(self) -> np.ndarray:
        t = self.times()
        return 0.5 * (t[:-1] + t[1:])

    def refined(self, factor: int = 2) -> "TimeGrid":
        return TimeGrid(self.t_start, self.t_end, self.n_steps * int(factor))


def _stored_indices(n_steps: int, stride: int) -> np.ndarray:
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.asarray(idx, dtype=int)


def _strict_tol(grid: TimeGrid) -> float:
    """Distance within which a time counts as hitting a grid node exactly."""
    return 1e-9 * max(1.0, abs(grid.t_start), abs(grid.t_end))


def _nearest_steps(grid: TimeGrid, times):
    """Step index of the grid node nearest to each (finite) time."""
    return np.clip(np.rint((times - grid.t_start) / grid.dt), 0, grid.n_steps).astype(int)


@dataclass(frozen=True, eq=False)
class UnitaryTrace:
    """Unitaries on (a stride-decimated subset of) the nodes of a time grid:
    a propagator U(t_k) or a frame change S(t_k) = U(t_k) u(t_k)^dag.

    Every stored matrix passed the defect gate; the largest observed defect
    is kept in ``max_defect``.  ``sampler`` is the closed form a frame change
    was sampled from, kept so the trace can be resampled on refined grids;
    composed, propagated and deserialized traces carry ``None``.
    """

    grid: TimeGrid
    times: np.ndarray
    matrices: np.ndarray
    label: str
    max_defect: float
    sampler: object = None

    def __post_init__(self):
        if "".join(self.label.splitlines()) != self.label:  # every break read_trace splits on
            raise ValueError(f"trace label {self.label!r} contains a line break")

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def node_index(self, t: float, strict: bool = False) -> int:
        """Index of the stored node nearest to t.

        Loose mode accepts any t within half a step of a stored node; strict
        mode requires t to hit a stored node to near machine precision and is
        meant for verification workflows.
        """
        k = int(np.argmin(np.abs(self.times - t)))
        gap = abs(float(self.times[k]) - t)
        tol = _strict_tol(self.grid) if strict else 0.5 * self.grid.dt
        if gap > tol:
            raise ValueError(
                f"time {t} is off the stored grid (nearest node {self.times[k]}, "
                f"gap {gap:.3e}, tolerance {tol:.3e})"
            )
        return k

    def at(self, t: float, strict: bool = False) -> np.ndarray:
        """The stored unitary at grid node t."""
        return self.matrices[self.node_index(t, strict=strict)]

    def apply(self, psi0: np.ndarray, t: float | None = None, strict: bool = False) -> np.ndarray:
        """U(t) psi0; t defaults to the end of the grid."""
        psi0 = np.asarray(psi0, dtype=complex)
        if psi0.shape != (self.dim,):
            raise ValueError(f"state has shape {psi0.shape}, expected ({self.dim},)")
        nd = normalization_defect(psi0)
        if nd > 1e-9:
            raise ValueError(f"initial state is not normalized (defect {nd:.3e})")
        if t is None:
            t = float(self.times[-1])
        return self.at(t, strict=strict) @ psi0

    def covers_full_grid(self) -> bool:
        return len(self.times) == self.grid.n_steps + 1

    def refined(self, factor: int = 2) -> "UnitaryTrace":
        """Resample the closed form on a ``factor`` times finer grid."""
        if self.sampler is None:
            raise ValueError(
                "cannot refine a trace that has no closed-form sampler; "
                "build the control trace from refined propagations instead"
            )
        from .transform import sampled_transform  # transform imports this module

        return sampled_transform(
            self.grid.refined(factor),
            self.sampler,
            self.label,
            identity_start=bool(np.array_equal(self.matrices[0], np.eye(self.dim))),
        )


def _block_rows(dim: int) -> int:
    """Rows of (dim, dim) matrices per batched block."""
    return max(1, _BLOCK_ELEMENTS // (dim * dim))


def _batch_defects(us: np.ndarray) -> np.ndarray:
    eye = np.eye(us.shape[-1])
    if us.shape[-1] < _MATMUL_MIN_DIM:
        gram = np.einsum("kji,kjl->kil", us.conj(), us)
    else:
        gram = us.conj().transpose(0, 2, 1) @ us
    return np.sqrt((np.abs(gram - eye) ** 2).sum(axis=(1, 2)))


def _check_stored(us: np.ndarray, indices: np.ndarray, what: str) -> float:
    defects = _batch_defects(us)
    worst = int(np.argmax(defects))
    if not (defects[worst] <= DEFECT_LIMIT):
        raise UnitarityError(
            f"{what} at step {int(indices[worst])} has unitarity defect "
            f"{defects[worst]:.3e} > {DEFECT_LIMIT:g}",
            step_index=int(indices[worst]),
            defect=float(defects[worst]),
        )
    return float(defects[worst])


def _unitary_trace(
    grid: TimeGrid,
    times,
    mats: np.ndarray,
    label: str,
    what: str,
    identity_tol: float | None = None,
    sampler=None,
) -> UnitaryTrace:
    """Gate ``mats`` (fresh, owned by the trace) and freeze them into a trace.

    With ``identity_tol`` the first matrix must lie within that distance of
    the identity; it is then snapped to the exact identity so composed frame
    changes start at exactly I.  ``what`` names the matrices in errors.
    """
    if identity_tol is not None:
        eye = np.eye(mats.shape[-1])
        first_gap = float(np.linalg.norm(mats[0] - eye))
        if not (first_gap <= identity_tol):
            raise ValueError(
                f"{what} at t={times[0]} deviates from the identity by {first_gap:.3e}"
            )
        mats[0] = eye
    times = np.array(times, dtype=float)
    max_defect = _check_stored(mats, _nearest_steps(grid, times), what)
    mats.flags.writeable = False
    times.flags.writeable = False
    return UnitaryTrace(grid, times, mats, label, max_defect, sampler)


def propagate(
    hamiltonian,
    grid: TimeGrid,
    label: str = "",
    stride: int = 1,
    block_size: int = 4096,
) -> UnitaryTrace:
    """Integrate i dU/dt = H(t) U with U(t_start) = I by midpoint exponentials.

    ``hamiltonian`` is anything with ``dim`` and ``matrix_stack(ts)``.  Every
    n-th node is retained per ``stride`` (the final node always is); a defect
    beyond the limit aborts with the offending step index.
    """
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    dim = hamiltonian.dim
    indices = _stored_indices(grid.n_steps, stride)
    est_bytes = len(indices) * dim * dim * 16
    if est_bytes > 2 * 2**30:
        raise ValueError(
            f"storing {len(indices)} unitaries of dimension {dim} needs "
            f"~{est_bytes / 2**30:.1f} GiB; increase the stride"
        )
    times = grid.times()
    mids = grid.midpoints()
    dt = grid.dt
    block = max(1, min(int(block_size), _block_rows(dim)))

    stored = np.empty((len(indices), dim, dim), dtype=complex)
    stored[0] = np.eye(dim)
    next_slot = 1
    u = np.eye(dim, dtype=complex)
    for lo in range(0, grid.n_steps, block):
        hi = min(lo + block, grid.n_steps)
        h_mid = hamiltonian.matrix_stack(mids[lo:hi])
        steps = _hermitian_expm_stack(h_mid, dt)
        _check_stored(steps, np.arange(lo, hi), "step unitary")
        for k in range(hi - lo):
            u = steps[k] @ u
            if next_slot < len(indices) and indices[next_slot] == lo + k + 1:
                stored[next_slot] = u
                next_slot += 1
    return _unitary_trace(grid, times[indices], stored, label, "stored unitary")


def _sample_stack(fn, times: np.ndarray) -> np.ndarray:
    """fn(times) as a fresh complex (len(times), d, d) stack; anything else is rejected."""
    mats = np.array(fn(times), dtype=complex)
    if mats.ndim != 3 or mats.shape[0] != len(times) or mats.shape[1] != mats.shape[2]:
        raise ValueError(
            f"sampler returned shape {mats.shape} for {len(times)} times; "
            f"expected ({len(times)}, d, d)"
        )
    return mats


def sample_trace(fn, grid: TimeGrid, label: str = "", stride: int = 1) -> UnitaryTrace:
    """Build a trace by sampling a closed-form propagator at grid nodes.

    ``fn`` is called once with the array of stored node times and must return
    the (n_nodes, d, d) stack of propagators.  The sample at t_start must
    equal the identity to within 1e-10; it is then snapped to the exact
    identity so composed transforms start at exactly I.
    """
    times = grid.times()[_stored_indices(grid.n_steps, int(stride))]
    return _unitary_trace(
        grid, times, _sample_stack(fn, times), label, "sampled unitary", identity_tol=1e-10
    )


# ---------------------------------------------------------------------------
# Closed-form propagators for the uniformly rotating drive


def _require_harmonic(p: NmrParams) -> tuple:
    if not p.is_harmonic_case():
        raise ValueError(
            "closed-form propagators require a uniformly rotating drive phase "
            "and a constant qubit splitting"
        )
    return p.drive_phase.rate, p.detuning, p.drive_strength


def nmr_fast_propagator(p: NmrParams, t) -> np.ndarray:
    """Exact lab-frame propagator of the rotating drive:
    exp(-i w Z t / 2) exp(-i (2 g X - d Z) t / 2), d = w - splitting.

    A number ``t`` gives one (2, 2) matrix, a 1-D array of times a stack."""
    rate, detuning, g = _require_harmonic(p)
    z = pauli_matrix("Z")
    x = pauli_matrix("X")
    return hermitian_expm(z, 0.5 * rate * t) @ hermitian_expm(
        2.0 * g * x - detuning * z, 0.5 * t
    )


def nmr_slow_propagator(p: NmrParams, t) -> np.ndarray:
    """Exact rotated-frame propagator with the frame advancing at the detuning:
    exp(-i d Z t / 2) exp(-i (2 g X - d Z) t / 2); ``t`` as in
    :func:`nmr_fast_propagator`."""
    _, detuning, g = _require_harmonic(p)
    if not isinstance(p.frame_phase, Harmonic):
        raise ValueError("slow closed form requires a uniformly rotating frame phase")
    if abs(p.frame_phase.rate - detuning) > 1e-12 * max(1.0, abs(detuning)):
        raise ValueError(
            f"slow closed form requires the frame rate to equal the detuning "
            f"({p.frame_phase.rate} != {detuning})"
        )
    z = pauli_matrix("Z")
    x = pauli_matrix("X")
    return hermitian_expm(z, 0.5 * detuning * t) @ hermitian_expm(
        2.0 * g * x - detuning * z, 0.5 * t
    )


# ---------------------------------------------------------------------------
# Portable text serialization (binary-free, full double precision)


def write_trace(trace: UnitaryTrace, path) -> None:
    """Write one record per stored node of any trace: the node time, then the
    unitary row-major as 're im' pairs, all through repr so doubles round-trip."""
    with open(path, "w") as fh:
        fh.write(_TRACE_MAGIC + "\n")
        fh.write(f"label {trace.label}\n")
        fh.write(
            f"grid {float(trace.grid.t_start)!r} {float(trace.grid.t_end)!r} {trace.grid.n_steps}\n"
        )
        fh.write(f"nodes {len(trace.times)} dim {trace.dim}\n")
        for t, u in zip(trace.times, trace.matrices):
            fh.write(f"t {float(t)!r}\n")
            for row in u:
                fh.write(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row) + "\n")


def read_trace(path) -> UnitaryTrace:
    """Read a file written by :func:`write_trace`.

    A malformed, truncated or over-long file, or node times that are not
    strictly ascending grid nodes from t_start to t_end, is a ValueError
    naming ``path:line``; every stored unitary passes the defect gate.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _TRACE_MAGIC:
        raise ValueError(f"{path}: not a trace file (missing '{_TRACE_MAGIC}' header)")
    pos = 1  # 1-based number of the last line consumed

    def next_line(what: str) -> str:
        nonlocal pos
        pos += 1
        if pos > len(lines):
            raise ValueError(f"file ends where {what} was expected")
        return lines[pos - 1]

    def fields(key: str | None, count: int, what: str) -> list:
        line = next_line(what)
        parts = line.split()
        if (key is not None and parts[:1] != [key]) or len(parts) != count:
            raise ValueError(f"expected {what}, got {line!r}")
        return parts if key is None else parts[1:]

    try:
        key, _, label = next_line("the 'label' line").partition(" ")
        if key != "label":
            raise ValueError(f"expected the 'label' line, got {lines[1]!r}")
        g = fields("grid", 4, "'grid t_start t_end n_steps'")
        grid = TimeGrid(float(g[0]), float(g[1]), int(g[2]))
        hdr = fields("nodes", 4, "'nodes N dim D'")
        if hdr[1] != "dim":
            raise ValueError(f"expected 'nodes N dim D', got {lines[pos - 1]!r}")
        n_nodes, dim = int(hdr[0]), int(hdr[2])
        if n_nodes < 1 or dim < 1:
            raise ValueError(f"need N >= 1 and D >= 1, got N={n_nodes}, D={dim}")
        tol = _strict_tol(grid)
        # grown line by line, so a header that overstates the size fails as truncated
        times, rows, step = [], [], -1
        for k in range(n_nodes):
            t = float(fields("t", 2, f"'t <time>' of node {k}")[0])
            prev, step = step, int(_nearest_steps(grid, t)) if np.isfinite(t) else 0
            if not (abs(t - (grid.t_start + step * grid.dt)) <= tol):
                raise ValueError(f"node {k} time {t!r} is not a node of the grid")
            if step <= prev:
                raise ValueError(f"node {k} time {t!r} does not follow node {k - 1}")
            if k == 0 and step != 0:
                raise ValueError(f"node 0 time {t!r} is not t_start {grid.t_start!r}")
            if k == n_nodes - 1 and step != grid.n_steps:
                raise ValueError(f"last node time {t!r} is not t_end {grid.t_end!r}")
            times.append(t)
            for r in range(dim):
                rows.append([float(x) for x in fields(None, 2 * dim, f"row {r} of node {k}")])
    except ValueError as exc:
        raise ValueError(f"{path}:{pos}: {exc}") from None
    extra = next((i for i in range(pos, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise ValueError(f"{path}:{extra + 1}: trailing data after the last of {n_nodes} nodes")
    vals = np.array(rows).reshape(n_nodes, dim, 2 * dim)
    mats = vals[..., 0::2] + 1j * vals[..., 1::2]
    return _unitary_trace(grid, times, mats, label, "deserialized unitary")
