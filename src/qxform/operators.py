"""Dense complex matrix kernel: Pauli strings, tensor embedding, Hermitian
exponentials, and the phase-insensitive metrics used by every other module.

Conventions
-----------
Qubit 0 occupies the leftmost (most significant) tensor slot: the basis label
|b0 b1 ... b_{n-1}> maps to index sum_i b_i 2^(n-1-i).  All operators are
plain complex numpy arrays and hbar = 1 throughout.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Dense storage keeps runs at desk scale; reject anything larger outright.
MAX_QUBITS = 10

# Every number a config or an edge list gives is 0 or has a magnitude in this
# range, as check_envelope refuses it otherwise.
ENVELOPE = (1e-100, 1e100)

# Batched @ from this dimension up, for _stack_matmul (the unitarity gates, the
# closed forms, the branch overlaps and the frame changes) and _hermitian_expm_stack.
# A dim-2 product of two 8192-row blocks on one Xeon core (taskset, one
# OpenBLAS thread, median of 9) takes 0.31 ms as _stack_matmul's entry-by-entry
# rank-one sum, 0.77 ms as the same sum broadcast over rows, 2.8 ms by einsum
# and 4.6 ms by @.  At dim 4 (2048 rows) the sum and @ are close, 1.1 against
# 1.3 ms, and the switch stays there, where the propagators' bits depend on
# it; at dim 8 (512 rows) @ takes 0.49 ms against 3.2 ms.
_MATMUL_MIN_DIM = 4

# Matrix elements per batched block, 512 KiB per complex stack: every per-node
# stack (propagation steps, eigensystems, gates, compositions, frame changes,
# node-wise distances) is evaluated one cache-sized block at a time, so the
# memory of a pass is a few blocks of temporaries plus the per-node arrays it
# returns, whatever the grid size.
_BLOCK_ELEMENTS = 1 << 15


def _as_int(value):
    """``value`` as an int if it is integral (an integral float counts), else
    None: a fraction, NaN, infinity or non-number."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n == value else None


def _qubit_index(value, where: str) -> int:
    """``value`` as a non-negative int; a fraction, NaN, infinity or
    non-number, or a negative index, is a ValueError naming ``where``."""
    index = _as_int(value)
    if index is None:
        raise ValueError(f"{where} has a non-integral qubit index {value!r}")
    if index < 0:
        raise ValueError(f"{where} has a negative qubit index {index}")
    return index


def check_qubit_count(n_qubits: int) -> int:
    """``n_qubits`` as an int from 1 to MAX_QUBITS, else a ValueError naming it."""
    n = _as_int(n_qubits)
    if n is None:
        raise ValueError(f"the qubit count {n_qubits!r} is not an integer")
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if n > MAX_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the dense-storage limit of {MAX_QUBITS} "
            f"(dimension 2^{n}); this package is restricted to desk-scale systems"
        )
    return n


def check_envelope(value):
    """``value`` unchanged if it is 0 or its magnitude lies in ENVELOPE; else,
    NaN and infinities too, a ValueError.

    Inside the envelope every run stays in the normal float range, about
    [2.2e-308, 1.8e308], so no input needs a float-range refusal of its own.
    What a run forms is a product of at most three envelope numbers, each
    between 1e-300 and 1e300, times the size factors of a 10-qubit problem
    (55 field and coupling terms on a diagonal entry, 10 in the transverse
    sum, 200 conjugated strings) and the step limit of 1e8 steps:

    - drive, frame, nutation and counterpart phases: a rate (a ramp's is
      2e100 / 1e-100 at most) times a time, or a ramp's value between its ends;
    - step phases dt·E, below 1e100 times 1e203;
    - slow_time·H, below 1e203, and the rescale ratio slow_time/fast_time, at
      most 1e200, which boosts H below 1e302;
    - T·g and g·T/T′, between 1e-300 and 1e200;
    - min_gap²·T, below 1e305;
    - a grid step, at least 1e-100 / 1e8 / 2 (a control's refined grid).

    The one time past 1e100 is the default quarter turn (π/2)/|d| of the
    detuning d of two envelope numbers.  Their smallest nonzero difference
    is 2^-385 ≈ 1.3e-116, so the turn is at most about 1.2e116, and the rates
    it multiplies, at most 2e100, keep its phases and steps below 1e217.
    """
    lo, hi = ENVELOPE
    if not (value == 0 or lo <= abs(value) <= hi):
        raise ValueError(f"expected 0 or a magnitude in [{lo:g}, {hi:g}], got {value!r}")
    return value


@functools.lru_cache(maxsize=MAX_QUBITS)
def _sign_table(n_qubits: int) -> np.ndarray:
    """(-1)^popcount(i & j) for i, j < 2^n: the Sylvester Hadamard matrix.
    Cached per qubit count and read-only."""
    signs = np.ones((1, 1))
    for _ in range(n_qubits):
        signs = np.kron(signs, [[1.0, 1.0], [1.0, -1.0]])
    signs.flags.writeable = False
    return signs


def _flip_form(factors, coefficient: float, n_qubits: int):
    """A Pauli string maps |j> to coefficient i^n_y (-1)^popcount(j & zmask)
    |j xor flip>.  Returns (flip, n_y odd, zmask, coefficient (-1)^(n_y // 2))."""
    factors = tuple(factors)
    x, y, z = (sum(1 << (n_qubits - 1 - q) for q, a in factors if a == axis) for axis in "XYZ")
    n_y = bin(y).count("1")
    return x | y, n_y % 2 == 1, y | z, coefficient * (-1.0) ** (n_y // 2)


class PauliString:
    """A tensor product of single-qubit Pauli factors with a real coefficient.

    ``factors`` holds (qubit index, axis) pairs; an empty tuple denotes the
    identity.  Factors are canonicalized to ascending qubit order; an index
    that is not a non-negative integer, a duplicate index and a non-finite
    coefficient are rejected.
    """

    def __init__(self, factors: tuple = (), coefficient: float = 1.0):
        facs = tuple((_qubit_index(q, "a Pauli string"), str(ax)) for q, ax in factors)
        for q, ax in facs:
            if ax not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli axis {ax!r} on qubit {q}; expected 'X', 'Y' or 'Z'")
        facs = tuple(sorted(facs))
        qubits = [q for q, _ in facs]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit indices in Pauli string: {qubits}")
        self.factors, self.coefficient = facs, float(coefficient)
        if not math.isfinite(self.coefficient):
            raise ValueError(f"the coefficient {self.coefficient!r} of a Pauli string is not finite")

    @property
    def support(self) -> frozenset:
        return frozenset(q for q, _ in self.factors)

    def is_diagonal(self) -> bool:
        """True when every factor is Z (identity included)."""
        return all(ax == "Z" for _, ax in self.factors)

    def matrix(self, n_qubits: int) -> np.ndarray:
        """Embed into the full 2^n_qubits space, identity on unlisted qubits."""
        n = check_qubit_count(n_qubits)
        out_of_range = [q for q in self.support if q >= n]
        if out_of_range:
            raise ValueError(
                f"qubit index {max(out_of_range)} out of range for {n} qubits"
            )
        flip, imaginary, zmask, scale = _flip_form(self.factors, self.coefficient, n)
        cols = np.arange(2**n)
        out = np.zeros((2**n, 2**n), dtype=complex)
        out[cols ^ flip, cols] = (1j if imaginary else 1.0) * scale * _sign_table(n)[zmask]
        return out


def pauli_matrix(axis: str) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 'X', 'Y' or 'Z'."""
    return PauliString(((0, axis),)).matrix(1)


def _block_rows(dim: int) -> int:
    """Rows of (dim, dim) matrices per batched block."""
    return max(1, _BLOCK_ELEMENTS // (dim * dim))


def _stack_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over the broadcast leading axes of both; ``out`` must not
    overlap either operand.

    From _MATMUL_MIN_DIM up this is np.matmul.  Below it the product is the
    sum of the d rank-one products a[..., :, j, None] * b[..., None, j, :] in
    ascending j, evaluated one output entry at a time over the whole stack,
    so every numpy call runs along the stack rather than along a row of d.
    """
    d = a.shape[-1]
    if d >= _MATMUL_MIN_DIM:
        return np.matmul(a, b, out=out)
    if out is None:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        out = np.empty((*lead, a.shape[-2], b.shape[-1]), dtype=np.result_type(a, b))
    for i in range(a.shape[-2]):
        for l in range(b.shape[-1]):
            entry = out[..., i, l]
            np.multiply(a[..., i, 0], b[..., 0, l], out=entry)
            for j in range(1, d):
                entry += a[..., i, j] * b[..., j, l]
    return out


def _row_norms(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Frobenius norm of each matrix of the complex (m, d, d) stack: the root
    of the sum of squares of its real and imaginary parts, in memory order."""
    parts = x.reshape(len(x), -1).view(np.float64)
    return np.sqrt(np.einsum("ki,ki->k", parts, parts), out=out)


# ---------------------------------------------------------------------------
# Hermiticity and Hermitian exponentials


def hermiticity_defect(a: np.ndarray) -> float:
    """Frobenius norm of A - A^dag."""
    a = np.asarray(a)
    return float(np.linalg.norm(a - a.conj().T))


def _check_phase_range(scale, eigenvalues) -> None:
    """Refuse phases scale * eigenvalue beyond the float range, whose
    exponentials would be NaN."""
    largest = float(np.max(np.abs(scale), initial=0.0))
    spectrum = float(np.max(np.abs(eigenvalues)))
    reach = largest * spectrum
    if not math.isfinite(reach):
        raise ValueError(
            f"phase |scale * eigenvalue| = {largest!r} * {spectrum!r} reaches {reach}, beyond the float range"
        )


def hermitian_expm(generator: np.ndarray, scale) -> np.ndarray:
    """exp(-1j * scale * generator) via eigendecomposition of the Hermitian generator.

    ``scale`` is a number, giving one (d, d) matrix, or a 1-D array, giving a
    (len(scale), d, d) stack from a single eigendecomposition.  The input must
    be Hermitian within 1e-12 per matrix dimension; the result is unitary to
    machine precision.
    """
    g = np.asarray(generator, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"generator must be a square matrix, got shape {g.shape}")
    scale = np.asarray(scale)
    if scale.ndim > 1:
        raise ValueError(f"scale must be a number or a 1-D array, got shape {scale.shape}")
    defect = hermiticity_defect(g)
    if not (defect <= 1e-12 * g.shape[0]):
        raise ValueError(f"generator is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh(g)
    _check_phase_range(scale, w)
    phases = np.exp(-1j * scale[..., None] * w)
    return _stack_matmul(v * phases[..., None, :], v.conj().T)


def _hermitian_expm_stack(generators: np.ndarray, scale: float, out=None, work=None) -> np.ndarray:
    # Batched variant for the propagation loop; Hermiticity is validated by
    # the Hamiltonian evaluator that produced the stack.  A stack with no
    # nonzero imaginary part goes whole to the real symmetric eigensolver
    # (1.4 times zheevd's speed at dim 8, 1.7 at dim 16) and U = V diag(p) V^T;
    # one complex member keeps the whole stack on zheevd, so a Hamiltonian's
    # bits depend on whether its lockstep partners are real.  ``work`` (complex,
    # of the stack's shape) takes conj(V); ``out``, ``generators`` itself if need
    # be, takes U, after a real V diag(p) that matmul copies: bits as if fresh.
    real = not generators.imag.any()
    w, v = np.linalg.eigh(generators.real if real else generators)
    _check_phase_range(scale, w)
    phases = -1j * scale * w
    np.exp(phases, out=phases)
    v_conj = np.conjugate(v, out=work)
    if v.shape[-1] < _MATMUL_MIN_DIM:  # not _stack_matmul: nmr transform_threshold moved -2.42e-12
        return np.einsum("kij,kj,klj->kil", v, phases, v_conj, out=out)
    v = np.multiply(v, phases[:, None, :], out=out if real else v)  # in place on eigh's complex output
    return np.matmul(v, v_conj.transpose(0, 2, 1), out=out)


# ---------------------------------------------------------------------------
# Phase-insensitive metrics


def phase_aligned_distance(a: np.ndarray, b: np.ndarray):
    """Frobenius distance between A and B minimized over a global phase on B.

    The optimum phase is phi* = arg tr(B^dag A).  When that trace vanishes no
    phase is preferred and the plain Frobenius distance is returned.  Stacks
    of matrices (shape (..., d, d)) are compared pair by pair, one block at a
    time, and give an array of the leading shape; single matrices give a
    float.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim < 2:
        raise ValueError(f"need matrices or stacks of matrices, got shape {a.shape}")
    lead = a.shape[:-2]
    a = a.reshape(-1, *a.shape[-2:])
    b = b.reshape(a.shape)
    dist = np.empty(len(a))
    rows = _block_rows(max(a.shape[-2:]))
    for lo in range(0, len(a), rows):
        x, y = a[lo : lo + rows], b[lo : lo + rows]
        tr = np.einsum("kij,kij->k", y.conj(), x)
        phi = np.where(np.abs(tr) == 0.0, 0.0, np.arctan2(tr.imag, tr.real))
        _row_norms(x - np.exp(1j * phi)[:, None, None] * y, out=dist[lo : lo + rows])
    return dist.reshape(lead) if lead else float(dist[0])


# ---------------------------------------------------------------------------
# State vectors


def minus_state(n_qubits: int) -> np.ndarray:
    """|->^n, the -1 eigenstate of X on every qubit."""
    single = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
    psi = single
    for _ in range(check_qubit_count(n_qubits) - 1):
        psi = np.kron(psi, single)
    return psi


def _unit_state(psi, shape: tuple, what: str) -> np.ndarray:
    """``psi`` as a complex array of ``shape`` whose norm is 1 to within 1e-9,
    else a ValueError naming ``what``; a NaN or infinite entry fails too."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != shape:
        raise ValueError(f"state dimension mismatch: {what} has shape {psi.shape}, expected {shape}")
    defect = abs(float(np.linalg.norm(psi)) - 1.0)
    if not defect <= 1e-9:
        raise ValueError(f"{what} is not normalized (defect {defect:.3e})")
    return psi


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for normalized state vectors of one shape."""
    a = _unit_state(a, np.shape(a), "first state")
    return float(abs(np.vdot(a, _unit_state(b, a.shape, "second state"))) ** 2)
