"""Builders and evaluators for the Hamiltonian families used in the package:
the driven qubit, its rotated slow frame, transverse-field annealing over a
diagonal problem term, and the rapidly driven counterpart obtained by
conjugating the problem term qubit-wise around X.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .operators import PauliString, _as_float, _as_int, _flip_form, _qubit_index, _sign_table, check_envelope, check_qubit_count
from .schedules import Constant, NmrParams, Schedule


# ---------------------------------------------------------------------------
# Derived coefficient functions (anything with .value(t) can weight a term)


class _Drive:
    """amplitude * (cos, sin)(phase(t)): the X and Y weights of a drive, one
    column each, from a single phase evaluation."""

    def __init__(self, amplitude: float, phase: Schedule):
        self.amplitude, self.phase = amplitude, phase

    def value(self, t):
        phase = self.phase.value(t)
        out = np.empty((2,) + np.shape(phase))  # each column contiguous, no stacked temporary
        np.cos(phase, out=out[0])
        np.sin(phase, out=out[1])
        out *= self.amplitude
        return out.T


class _RateShift:
    """base(t) + phase'(t), less against'(t) if given: the rate a rotating
    frame adds, the -i S^dag dS/dt term, to a Z rate or a transverse field."""

    def __init__(self, base: Schedule, phase: Schedule, against: Schedule | None = None):
        self.base, self.phase, self.against = base, phase, against

    def value(self, t):
        rate = self.base.value(t) + self.phase.derivative(t)
        return rate if self.against is None else rate - self.against.derivative(t)


class _ConjugatedFactors:
    """One column per string a conjugated Z-string expands into: the string's
    coefficient times cos(2 phase) per Z and -sin(2 phase) per Y, multiplied
    in ascending qubit order so each product matches the qubit-by-qubit
    Kronecker product bit for bit.  ``codes`` is (strings, max weight): 1 for
    Z, 2 for Y, 0 pads with an exact factor 1."""

    def __init__(self, phase: Schedule, coefficients: np.ndarray, codes: np.ndarray):
        self.phase, self.coefficients, self.codes = phase, coefficients, codes

    def value(self, t):
        two_phase = 2.0 * np.asarray(self.phase.value(t), dtype=float)
        factors = np.stack([np.ones_like(two_phase), np.cos(two_phase), -np.sin(two_phase)])
        out = np.broadcast_to(self.coefficients, two_phase.shape + self.coefficients.shape)
        for code in self.codes.T:
            out = out * factors[code].T
        return out


# ---------------------------------------------------------------------------
# Time-dependent Hamiltonian


class TimeDependentHamiltonian:
    """A finite sum of terms, each a coefficient weighting a group of Pauli
    strings, evaluating to a dense Hermitian matrix.

    A term is ``(coefficient, string)`` or ``(coefficient, strings)``.  The
    coefficient is a number or has ``value(ts)``, which returns either one
    column shared by every string of the group, shape (len(ts),), or one
    column per string, shape (len(ts), len(strings)).  A Pauli string fills
    one entry per column: constant coefficients add their strings into a
    static matrix at construction, and the varying strings filling the same
    entries form one real-coefficient product, each row's bits its own.
    Instances are immutable and safe to share across workers.
    """

    def __init__(self, n_qubits: int, terms=()):
        self.n_qubits = check_qubit_count(n_qubits)
        self.dim = 2**self.n_qubits
        static = np.zeros((self.dim, self.dim), dtype=complex)
        entries = static.reshape(-1).view(float)  # real and imaginary part of each entry in turn
        cols = np.arange(self.dim)
        coefficients = []  # (coefficient function, its slice of columns)
        labels = []
        segments = {}  # (flip, imaginary?) -> slots, and (column, zmask, scale) per string in the order given
        for coeff, strings in terms:
            strings = (strings,) if isinstance(strings, PauliString) else tuple(strings)
            for s in strings:
                if not isinstance(s, PauliString):
                    raise ValueError(f"expected a PauliString term, got {type(s).__name__}")
                if s.support and max(s.support) >= self.n_qubits:
                    raise ValueError(f"qubit index {max(s.support)} out of range for {self.n_qubits} qubits")
            if isinstance(coeff, numbers.Real):
                coeff = Constant(coeff)
            constant = isinstance(coeff, Constant) and math.isfinite(coeff.c)  # else evaluation names it
            if strings and not constant:
                coefficients.append((coeff, slice(len(labels), len(labels) + len(strings))))
            for s in strings:
                flip, imaginary, zmask, scale = _flip_form(s.factors, s.coefficient, self.n_qubits)
                slots = 2 * ((cols ^ flip) * self.dim + cols) + int(imaginary)  # entry (j xor flip, j) of column j
                if constant:
                    entries[slots] += coeff.c * scale * _sign_table(self.n_qubits)[zmask]
                else:
                    segments.setdefault((flip, imaginary), (slots, []))[1].append((len(labels), zmask, scale))
                    labels.append(" ".join(f"{axis}{q}" for q, axis in s.factors) or "I")
        bounds = list(itertools.accumulate((len(ms) for _, ms in segments.values()), initial=0))
        self._static = static
        self._coefficients = tuple(coefficients)
        self._labels = tuple(labels)
        self._columns = np.array([m[0] for _, ms in segments.values() for m in ms], dtype=int)
        self._scales = np.array([m[2] for _, ms in segments.values() for m in ms], dtype=float)
        self._segments = tuple(
            (slice(lo, hi), slots, np.array([m[1] for m in ms], dtype=int))
            for lo, hi, (slots, ms) in zip(bounds, bounds[1:], segments.values())
        )
        for a in (static, self._columns, self._scales, *(a for _, *arrays in self._segments for a in arrays)):
            a.flags.writeable = False

    def matrix(self, t: float) -> np.ndarray:
        """Dense Hermitian matrix at time t."""
        return self.matrix_stack(np.asarray([t], dtype=float))[0]

    def matrix_stack(self, ts) -> np.ndarray:
        """Dense Hermitian matrices at a batch of times, shape (len(ts), dim, dim)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        # one time fills two rows: numpy's one-row product is a vector-matrix one, rounded otherwise
        vals = np.empty((2 if ts.size == 1 else ts.size, len(self._labels)))
        with np.errstate(all="ignore"):  # non-finite values are named below
            for fn, cols in self._coefficients:
                value = fn.value(ts)
                if np.ndim(value) < 2:  # one column shared by the group
                    value = np.reshape(value, (-1, 1))
                if np.iscomplexobj(value):
                    full = np.zeros(vals.shape, dtype=complex)
                    full[:, cols] = value
                    if (full.imag != 0).any():
                        raise self._bad_coefficient(ts, full, full.imag != 0)
                    value = np.real(value)
                vals[:, cols] = value
        if not np.isfinite(vals).all():
            raise self._bad_coefficient(ts, vals, ~np.isfinite(vals))
        # in segment order; the sign rows are +-1, so this is each term's one rounding, as in a dense product
        vals = vals[:, self._columns] * self._scales
        signs = _sign_table(self.n_qubits)
        out = np.zeros((ts.size, 2 * self.dim * self.dim))  # real and imaginary part of each entry in turn
        for seg, slots, zmasks in self._segments:
            # a real (rows, terms) @ (terms, dim) product; _stack_matmul gives its bits 110x slower at dim 2
            out[:, slots] = (vals[:, seg] @ signs[zmasks])[: ts.size]
        out = out.view(complex).reshape(ts.size, self.dim, self.dim)
        out += self._static
        return out

    def _bad_coefficient(self, ts, vals, bad) -> ValueError:
        """Name the first (time, term) entry of ``vals`` flagged in ``bad``."""
        b, k = np.argwhere(bad)[0]
        return ValueError(
            f"coefficient of Pauli term {self._labels[k]} is {vals[b, k]} at t={float(ts[b])!r}"
        )


# ---------------------------------------------------------------------------
# Problem terms (diagonal in Z)


class GroverProblem:
    """Search problem whose cost term is I - |marked><marked|."""

    def __init__(self, n_qubits: int, marked: int):
        n, index = check_qubit_count(n_qubits), _as_int(marked)
        if index is None:
            raise ValueError(f"the marked index {marked!r} is not an integer")
        if not 0 <= index < 2**n:
            raise ValueError(f"marked index {marked} out of range for {n} qubits")
        self.n_qubits, self.marked = n, index

    def pauli_terms(self) -> tuple:
        """I - |marked><marked| expanded as the diagonal projector product
        prod_i (I + (-1)^{b_i} Z_i)/2 into 2^n Z-strings."""
        n = self.n_qubits
        bits = [(self.marked >> (n - 1 - i)) & 1 for i in range(n)]
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


class IsingProblem:
    """Local fields and two-body ZZ couplings, diagonal in the Z basis.
    Problems with equal qubit counts, fields and couplings are equal."""

    def __init__(self, n_qubits: int, fields: tuple, couplings: tuple = ()):
        n = check_qubit_count(n_qubits)
        fields = tuple(_as_float(h, f"fields[{k}]") for k, h in enumerate(fields))
        if len(fields) != n:
            raise ValueError(f"expected {n} local fields, got {len(fields)}")
        for k, h in enumerate(fields):
            if not math.isfinite(h):
                raise ValueError(f"fields[{k}] is not finite: {h}")
        seen = set()
        canon = []
        for k, entry in enumerate(couplings):
            if not hasattr(entry, "__len__") or len(entry) != 3:
                raise ValueError(f"couplings[{k}] is not an (i, j, J) triple: {entry!r}")
            i, j = (_qubit_index(x, f"couplings[{k}]") for x in entry[:2])
            coupling = _as_float(entry[2], f"couplings[{k}]")
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
        self.n_qubits, self.fields, self.couplings = n, fields, tuple(sorted(canon))
        diagonal = _diagonal(self)
        if not np.isfinite(diagonal).all():
            raise ValueError("the fields and couplings sum past the float range on the diagonal")
        # an anneal into energies spanning past the float range could resolve
        # neither its gaps nor its ground manifold
        lo, hi = float(diagonal.min()), float(diagonal.max())
        if not math.isfinite(hi - lo):
            raise ValueError(f"the problem energies span from {lo!r} to {hi!r}, past the float range")

    def _key(self) -> tuple:
        return self.n_qubits, self.fields, self.couplings

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

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
        ``i j J_ij`` lines for couplings; '#' starts a comment.  The register
        has ``n_qubits``, else one past the largest index (at least one).  A
        line that indexes a qubit outside it, couples a qubit to itself or
        repeats the qubits of an earlier line is refused, naming ``file:line``."""
        entries = []  # (line number, line, sorted qubit indices, value)
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                try:
                    if len(parts) not in (2, 3):
                        raise ValueError("expected 2 or 3 columns")
                    value = check_envelope(float(parts[-1]))
                    entries.append((lineno, line, tuple(sorted(int(x) for x in parts[:-1])), value))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: cannot parse {line!r} ({exc})") from None
        if not entries and n_qubits is None:
            raise ValueError(f"{path}: empty edge list and no qubit count given")
        n = check_qubit_count(1 + max(0, *(e[2][-1] for e in entries)) if n_qubits is None else n_qubits)
        seen = {}  # the qubits of each line -> its number
        for lineno, line, qubits, _ in entries:
            if not 0 <= qubits[0] <= qubits[-1] < n:
                raise ValueError(f"{path}:{lineno}: {line!r} indexes a qubit outside [0, {n})")
            if len(qubits) == 2 and qubits[0] == qubits[1]:
                raise ValueError(f"{path}:{lineno}: {line!r} couples qubit {qubits[0]} to itself")
            if qubits in seen:
                raise ValueError(f"{path}:{lineno}: {line!r} repeats the qubits of line {seen[qubits]}")
            seen[qubits] = lineno
        fields = {qubits[0]: value for _, _, qubits, value in entries if len(qubits) == 1}
        couplings = tuple((*qubits, value) for _, _, qubits, value in entries if len(qubits) == 2)
        return cls(n_qubits=n, fields=tuple(fields.get(i, 0.0) for i in range(n)), couplings=couplings)


def _diagonal(problem) -> np.ndarray:
    """The problem term's diagonal, summed string by string as a Hamiltonian's
    constant part sums it; a sum past the float range is left non-finite."""
    n = problem.n_qubits
    diagonal = np.zeros(2**n)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in problem.pauli_terms():
            diagonal += s.coefficient * _sign_table(n)[_flip_form(s.factors, 1.0, n)[2]]
    return diagonal


def default_transverse_strength(problem) -> float:
    """Initial transverse field dominating the problem scale: 2 max(scale, 1)."""
    return 2.0 * max(problem.energy_scale(), 1.0)


# ---------------------------------------------------------------------------
# Builders


def _driven_qubit(z_rate, g: float, phase: Schedule) -> TimeDependentHamiltonian:
    """(z_rate(t)/2) Z + g [X cos(phase) + Y sin(phase)] on one qubit."""
    return TimeDependentHamiltonian(
        1,
        terms=(
            (z_rate, PauliString(((0, "Z"),), 0.5)),
            (_Drive(g, phase), (PauliString(((0, "X"),)), PauliString(((0, "Y"),)))),
        ),
    )


def nmr_hamiltonian(p: NmrParams) -> TimeDependentHamiltonian:
    """(splitting(t)/2) Z + g [X cos(drive_phase) + Y sin(drive_phase)] on one qubit."""
    return _driven_qubit(p.qubit_splitting, p.drive_strength, p.drive_phase)


def rotating_frame_hamiltonian(p: NmrParams) -> TimeDependentHamiltonian:
    """The same qubit seen from the frame whose drive phase is ``frame_phase``:
    ((splitting + frame_phase' - drive_phase')/2) Z + g [X cos + Y sin](frame_phase).

    The transverse amplitude g carries over unchanged into the rotated frame.
    """
    if p.frame_phase is None:
        raise ValueError("rotating-frame Hamiltonian requires frame_phase")
    z_rate = _RateShift(p.qubit_splitting, p.frame_phase, against=p.drive_phase)
    return _driven_qubit(z_rate, p.drive_strength, p.frame_phase)


def annealing_hamiltonian(transverse: Schedule, problem) -> TimeDependentHamiltonian:
    """transverse(t) * sum_i X_i plus the problem's diagonal terms."""
    sum_x = tuple(PauliString(((i, "X"),)) for i in range(problem.n_qubits))
    terms = [(transverse, sum_x)] + [(1.0, s) for s in problem.pauli_terms()]
    return TimeDependentHamiltonian(problem.n_qubits, terms=terms)


def fast_counterpart_hamiltonian(
    transverse: Schedule, problem, phase: Schedule
) -> TimeDependentHamiltonian:
    """(transverse(t) + phase'(t)) * sum_i X_i plus the problem terms conjugated
    qubit-wise by exp(-i phase(t) X); reduces to ``annealing_hamiltonian`` at
    phase identically zero.  A Z-string on k qubits expands into the 2^k
    strings of its Z and Y choices."""
    n = problem.n_qubits
    terms = problem.pauli_terms()
    strings, amplitudes, codes = [], [], []
    weight = max((len(s.support) for s in terms), default=0)
    for s in terms:
        if not s.is_diagonal():
            raise ValueError("conjugated problem terms must be Z-only Pauli strings")
        qubits = sorted(s.support)
        for axes in itertools.product("ZY", repeat=len(qubits)):
            strings.append(PauliString(tuple(zip(qubits, axes))))
            amplitudes.append(s.coefficient)
            codes.append([" ZY".index(a) for a in axes] + [0] * (weight - len(axes)))
    codes = np.array(codes, dtype=int).reshape(len(amplitudes), weight)
    factors = _ConjugatedFactors(phase, np.array(amplitudes, dtype=float), codes)
    sum_x = tuple(PauliString(((i, "X"),)) for i in range(n))
    return TimeDependentHamiltonian(n, terms=((_RateShift(transverse, phase), sum_x), (factors, strings)))
