"""Builders and evaluators for the Hamiltonian families used in the package:
the driven qubit, its rotated slow frame, transverse-field annealing over a
diagonal problem term, and the rapidly driven counterpart obtained by
conjugating the problem term qubit-wise around X.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard

from .operators import PauliString, check_qubit_count, pauli_matrix
from .schedules import Constant, NmrParams, Schedule


# ---------------------------------------------------------------------------
# Derived coefficient functions (anything with .value(t) can drive a term)


@dataclass(frozen=True)
class _Scaled:
    base: Schedule
    factor: float

    def value(self, t):
        return self.factor * self.base.value(t)


@dataclass(frozen=True)
class _DriveTrig:
    """amplitude * cos(phase(t)) or amplitude * sin(phase(t))."""

    amplitude: float
    phase: Schedule
    harmonic: str  # "cos" | "sin"

    def value(self, t):
        fn = np.cos if self.harmonic == "cos" else np.sin
        return self.amplitude * fn(self.phase.value(t))


@dataclass(frozen=True)
class _FrameWeight:
    """(splitting + frame_phase' - drive_phase') / 2, the rotated-frame Z weight."""

    splitting: Schedule
    frame_phase: Schedule
    drive_phase: Schedule

    def value(self, t):
        return 0.5 * (
            self.splitting.value(t)
            + self.frame_phase.derivative(t)
            - self.drive_phase.derivative(t)
        )


@dataclass(frozen=True)
class _ShiftedRate:
    """base(t) + phase'(t); the transverse rate seen alongside a rotating frame."""

    base: Schedule
    phase: Schedule

    def value(self, t):
        return self.base.value(t) + self.phase.derivative(t)


@dataclass(frozen=True, eq=False)
class _ConjugatedFactors:
    """Coefficients of the terms a conjugated block expands into: the string's
    coefficient times cos(2 phase) per Z and -sin(2 phase) per Y, multiplied
    in ascending qubit order so each product matches the qubit-by-qubit
    Kronecker product bit for bit.  ``codes`` is (terms, max weight): 1 for Z,
    2 for Y, 0 pads with an exact factor 1."""

    phase: Schedule
    coefficients: np.ndarray
    codes: np.ndarray

    def value(self, t):
        two_phase = 2.0 * np.asarray(self.phase.value(t), dtype=float)
        factors = np.stack([np.ones_like(two_phase), np.cos(two_phase), -np.sin(two_phase)])
        out = self.coefficients
        for code in self.codes.T:
            out = out * factors[code].T
        return out


def _flip_form(factors, coefficient: float, n_qubits: int):
    """A Pauli string maps |j> to coefficient i^n_y (-1)^popcount(j & zmask)
    |j xor flip>.  Returns (flip, n_y odd, zmask, coefficient (-1)^(n_y // 2))."""
    factors = tuple(factors)
    x, y, z = (sum(1 << (n_qubits - 1 - q) for q, a in factors if a == axis) for axis in "XYZ")
    n_y = bin(y).count("1")
    return x | y, n_y % 2 == 1, y | z, coefficient * (-1.0) ** (n_y // 2)


# ---------------------------------------------------------------------------
# Time-dependent Hamiltonian


@dataclass(frozen=True, eq=False)
class FrameConjugatedTerms:
    """Diagonal Pauli strings conjugated qubit-wise by exp(-i phase(t) X).

    Each Z factor evaluates to cos(2 phase) Z - sin(2 phase) Y at time t; the
    common phase keeps the construction well defined for every string.
    """

    strings: tuple
    phase: Schedule

    def __post_init__(self):
        strings = tuple(self.strings)
        for s in strings:
            if not isinstance(s, PauliString) or not s.is_diagonal():
                raise ValueError(
                    "frame-conjugated terms must be Z-only Pauli strings"
                )
        object.__setattr__(self, "strings", strings)


class TimeDependentHamiltonian:
    """A finite sum of coefficient(t) * PauliString terms plus optional
    frame-conjugated blocks, evaluating to a dense Hermitian matrix.

    Terms with plain-number or Constant coefficients are folded into a static
    matrix at construction, and conjugated blocks are expanded there into
    Pauli terms.  A Pauli term fills one entry per column, so evaluation is one
    real-coefficient product per group of terms filling the same entries.
    Instances are immutable and safe to share across workers.
    """

    def __init__(self, n_qubits: int, terms=(), conjugated=()):
        self.n_qubits = check_qubit_count(n_qubits)
        self.dim = 2**self.n_qubits
        static = np.zeros((self.dim, self.dim), dtype=complex)
        coefficients = []  # (coefficient function, its column or slice of columns)
        columns = []  # (flip, imaginary?, zmask, scale) per varying term, see _flip_form
        labels = []
        stored_terms = []
        for coeff, string in terms:
            if not isinstance(string, PauliString):
                raise ValueError(f"expected a PauliString term, got {type(string).__name__}")
            if isinstance(coeff, (int, float)):
                coeff = Constant(float(coeff))
            if isinstance(coeff, Constant):
                static += coeff.c * string.matrix(self.n_qubits)
            else:
                coefficients.append((coeff, len(columns)))
                columns.append(_flip_form(string.factors, string.coefficient, self.n_qubits))
                labels.append(" ".join(f"{axis}{q}" for q, axis in string.factors) or "I")
            stored_terms.append((coeff, string))
        self.terms = tuple(stored_terms)
        self.conjugated = tuple(conjugated)
        for block in self.conjugated:
            if not isinstance(block, FrameConjugatedTerms):
                raise ValueError("conjugated entries must be FrameConjugatedTerms")
            start = len(columns)
            weight = max((len(s.support) for s in block.strings), default=0)
            amplitudes, codes = [], []
            for s in block.strings:
                if s.support and max(s.support) >= self.n_qubits:
                    raise ValueError(
                        f"conjugated string on qubit {max(s.support)} exceeds {self.n_qubits} qubits"
                    )
                qubits = sorted(s.support)
                for axes in itertools.product("ZY", repeat=len(qubits)):
                    amplitudes.append(s.coefficient)
                    codes.append([" ZY".index(a) for a in axes] + [0] * (weight - len(axes)))
                    columns.append(_flip_form(zip(qubits, axes), 1.0, self.n_qubits))
                    labels.append(" ".join(f"{a}{q}" for q, a in zip(qubits, axes)) or "I")
            codes = np.array(codes, dtype=int).reshape(len(amplitudes), weight)
            factors = _ConjugatedFactors(block.phase, np.array(amplitudes), codes)
            coefficients.append((factors, slice(start, len(columns))))
        # Each term fills one entry per column, (j xor flip, j).  Terms sharing a
        # flip and a real or imaginary part form a segment: one (rows, dim)
        # product, placed by ``_gather`` (its last column is the zero product).
        order = sorted(range(len(columns)), key=lambda k: columns[k][:2])
        keys = [columns[k][:2] for k in order]
        starts = [lo for lo in range(len(keys)) if lo == 0 or keys[lo] != keys[lo - 1]]
        cols = np.arange(self.dim)
        gather = np.full((self.dim, self.dim, 2), len(starts) * self.dim)
        for n, lo in enumerate(starts):
            flip, imaginary = keys[lo]
            gather[cols ^ flip, cols, int(imaginary)] = n * self.dim + cols
        self._static = static
        self._coefficients = tuple(coefficients)
        self._labels = tuple(labels)
        self._order = np.array(order, dtype=int)
        self._scales = np.array([columns[k][3] for k in order], dtype=float)
        self._zmasks = np.array([columns[k][2] for k in order], dtype=int)
        self._signs = hadamard(self.dim, dtype=float)  # (-1)^popcount(i & j)
        self._segments = tuple(map(slice, starts, starts[1:] + [len(order)]))
        self._gather = gather.ravel()  # real and imaginary part of each entry in turn
        for a in (self._static, self._order, self._scales, self._zmasks, self._signs, self._gather):
            a.flags.writeable = False

    def matrix(self, t: float) -> np.ndarray:
        """Dense Hermitian matrix at time t."""
        return self.matrix_stack(np.asarray([t], dtype=float))[0]

    def matrix_stack(self, ts) -> np.ndarray:
        """Dense Hermitian matrices at a batch of times, shape (len(ts), dim, dim)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        vals = np.empty((ts.size, len(self._labels)))
        with np.errstate(all="ignore"):  # non-finite values are named below
            for fn, cols in self._coefficients:
                vals[:, cols] = fn.value(ts)
        if not np.isfinite(vals).all():
            b, k = np.argwhere(~np.isfinite(vals))[0]
            raise RuntimeError(
                f"coefficient of Pauli term {self._labels[k]} is {vals[b, k]} at t={float(ts[b])!r}"
            )
        # the sign vectors are +-1, so this is each term's one rounding, as in a dense product
        vals = vals[:, self._order] * self._scales
        products = np.zeros((ts.size, (len(self._segments) + 1) * self.dim))
        for n, seg in enumerate(self._segments):
            signs = self._signs[self._zmasks[seg]]
            products[:, n * self.dim : (n + 1) * self.dim] = vals[:, seg] @ signs
        out = np.take(products, self._gather, axis=1).view(complex)
        out = out.reshape(ts.size, self.dim, self.dim)
        out += self._static
        skew = out - out.conj().transpose(0, 2, 1)
        defect = float(np.sqrt((np.abs(skew) ** 2).sum(axis=(1, 2)).max()))
        if not (defect <= 1e-12):
            raise RuntimeError(
                f"evaluated Hamiltonian is not Hermitian (defect {defect:.3e}); "
                "a coefficient function returned a non-real value"
            )
        return out


# ---------------------------------------------------------------------------
# Problem terms (diagonal in Z)


@dataclass(frozen=True)
class GroverProblem:
    """Search problem whose cost term is I - |marked><marked|."""

    n_qubits: int
    marked: int

    def __post_init__(self):
        n = check_qubit_count(self.n_qubits)
        if not 0 <= int(self.marked) < 2**n:
            raise ValueError(
                f"marked index {self.marked} out of range for {n} qubits"
            )

    def marked_bits(self) -> tuple:
        n = self.n_qubits
        return tuple((self.marked >> (n - 1 - i)) & 1 for i in range(n))

    def pauli_terms(self) -> tuple:
        """I - |marked><marked| expanded as the diagonal projector product
        prod_i (I + (-1)^{b_i} Z_i)/2 into 2^n Z-strings."""
        n = self.n_qubits
        bits = self.marked_bits()
        weight = 2.0**-n
        terms = [PauliString((), 1.0 - weight)]
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                sign = 1.0
                for i in subset:
                    sign *= -1.0 if bits[i] else 1.0
                terms.append(
                    PauliString(tuple((i, "Z") for i in subset), -sign * weight)
                )
        return tuple(terms)

    def energy_scale(self) -> float:
        return 1.0


@dataclass(frozen=True)
class IsingProblem:
    """Local fields and two-body ZZ couplings, diagonal in the Z basis."""

    n_qubits: int
    fields: tuple
    couplings: tuple = ()

    def __post_init__(self):
        n = check_qubit_count(self.n_qubits)
        fields = tuple(float(h) for h in self.fields)
        if len(fields) != n:
            raise ValueError(f"expected {n} local fields, got {len(fields)}")
        for k, h in enumerate(fields):
            if not math.isfinite(h):
                raise ValueError(f"fields[{k}] is not finite: {h}")
        seen = set()
        canon = []
        for k, entry in enumerate(self.couplings):
            i, j, coupling = int(entry[0]), int(entry[1]), float(entry[2])
            if not math.isfinite(coupling):
                raise ValueError(f"couplings[{k}] has a non-finite coupling: {coupling}")
            if i == j:
                raise ValueError(f"coupling ({i},{j}) lies on the diagonal")
            i, j = min(i, j), max(i, j)
            if j >= n:
                raise ValueError(f"coupling index {j} out of range for {n} qubits")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling for pair ({i},{j})")
            seen.add((i, j))
            canon.append((i, j, coupling))
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "couplings", tuple(sorted(canon)))

    def pauli_terms(self) -> tuple:
        terms = [
            PauliString(((i, "Z"),), h)
            for i, h in enumerate(self.fields)
            if h != 0.0
        ]
        terms += [
            PauliString(((i, "Z"), (j, "Z")), coupling)
            for i, j, coupling in self.couplings
            if coupling != 0.0
        ]
        return tuple(terms)

    def energy_scale(self) -> float:
        h_max = max((abs(h) for h in self.fields), default=0.0)
        j_max = max((abs(c) for _, _, c in self.couplings), default=0.0)
        return max(h_max, j_max)

    @classmethod
    def from_edge_list(cls, path, n_qubits: int | None = None) -> "IsingProblem":
        """Parse a plain-text edge list: ``i h_i`` lines for fields and
        ``i j J_ij`` lines for couplings; '#' starts a comment."""
        fields = {}
        couplings = []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                try:
                    if len(parts) not in (2, 3):
                        raise ValueError("expected 2 or 3 columns")
                    value = float(parts[-1])
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite value {parts[-1]}")
                    if len(parts) == 2:
                        fields[int(parts[0])] = value
                    else:
                        couplings.append((int(parts[0]), int(parts[1]), value))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: cannot parse {line!r} ({exc})") from None
        indices = set(fields) | {i for i, _, _ in couplings} | {j for _, j, _ in couplings}
        if not indices and n_qubits is None:
            raise ValueError(f"{path}: empty edge list and no qubit count given")
        n = n_qubits if n_qubits is not None else max(indices) + 1
        field_vec = tuple(fields.get(i, 0.0) for i in range(n))
        return cls(n_qubits=n, fields=field_vec, couplings=tuple(couplings))


def default_transverse_strength(problem) -> float:
    """Initial transverse field dominating the problem scale: 2 max(scale, 1)."""
    return 2.0 * max(problem.energy_scale(), 1.0)


# ---------------------------------------------------------------------------
# Builders


def nmr_hamiltonian(p: NmrParams) -> TimeDependentHamiltonian:
    """(splitting(t)/2) Z + g [X cos(drive_phase) + Y sin(drive_phase)] on one qubit."""
    g = p.drive_strength
    return TimeDependentHamiltonian(
        1,
        terms=(
            (_Scaled(p.qubit_splitting, 0.5), PauliString(((0, "Z"),))),
            (_DriveTrig(g, p.drive_phase, "cos"), PauliString(((0, "X"),))),
            (_DriveTrig(g, p.drive_phase, "sin"), PauliString(((0, "Y"),))),
        ),
    )


def rotating_frame_hamiltonian(p: NmrParams) -> TimeDependentHamiltonian:
    """The same qubit seen from the frame whose drive phase is ``frame_phase``:
    ((splitting + frame_phase' - drive_phase')/2) Z + g [X cos + Y sin](frame_phase).

    The transverse amplitude g carries over unchanged into the rotated frame.
    """
    if p.frame_phase is None:
        raise ValueError("rotating-frame Hamiltonian requires frame_phase")
    g = p.drive_strength
    return TimeDependentHamiltonian(
        1,
        terms=(
            (
                _FrameWeight(p.qubit_splitting, p.frame_phase, p.drive_phase),
                PauliString(((0, "Z"),)),
            ),
            (_DriveTrig(g, p.frame_phase, "cos"), PauliString(((0, "X"),))),
            (_DriveTrig(g, p.frame_phase, "sin"), PauliString(((0, "Y"),))),
        ),
    )


def annealing_hamiltonian(transverse: Schedule, problem) -> TimeDependentHamiltonian:
    """transverse(t) * sum_i X_i plus the problem's diagonal terms."""
    n = problem.n_qubits
    terms = [(transverse, PauliString(((i, "X"),))) for i in range(n)]
    terms += [(1.0, s) for s in problem.pauli_terms()]
    return TimeDependentHamiltonian(n, terms=terms)


def fast_counterpart_hamiltonian(
    transverse: Schedule, problem, phase: Schedule
) -> TimeDependentHamiltonian:
    """(transverse(t) + phase'(t)) * sum_i X_i plus the problem terms conjugated
    qubit-wise by exp(-i phase(t) X); reduces to ``annealing_hamiltonian`` at
    phase identically zero."""
    n = problem.n_qubits
    rate = _ShiftedRate(transverse, phase)
    terms = [(rate, PauliString(((i, "X"),))) for i in range(n)]
    return TimeDependentHamiltonian(
        n,
        terms=terms,
        conjugated=(FrameConjugatedTerms(problem.pauli_terms(), phase),),
    )


# ---------------------------------------------------------------------------
# Instantaneous spectra


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Full instantaneous spectrum: ascending energies, orthonormal column
    eigenvectors, the ground gap and a near-degeneracy flag."""

    energies: np.ndarray
    states: np.ndarray
    gap: float
    degenerate: bool

    def state(self, k: int) -> np.ndarray:
        return self.states[:, k]


def instantaneous_eigensystem(
    hamiltonian: TimeDependentHamiltonian, t: float, degeneracy_tol: float = 1e-10
) -> Eigensystem:
    """Eigendecomposition of the Hamiltonian frozen at time t.

    Degenerate subspaces come back with an arbitrary orthonormal basis; the
    ``degenerate`` flag is set when the ground gap falls below the tolerance.
    """
    matrix = hamiltonian.matrix(t)
    energies, states = np.linalg.eigh(matrix)
    gap = float(energies[1] - energies[0])
    energies.flags.writeable = False
    states.flags.writeable = False
    return Eigensystem(energies, states, gap, gap < degeneracy_tol)
