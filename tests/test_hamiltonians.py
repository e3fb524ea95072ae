import itertools
import math
import os
import re
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm, hadamard

import qxform.hamiltonians as hamiltonians
from qxform.hamiltonians import (
    GroverProblem,
    IsingProblem,
    TimeDependentHamiltonian,
    annealing_hamiltonian,
    default_transverse_strength,
    fast_counterpart_hamiltonian,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from qxform.operators import ENVELOPE, PauliString, _sign_table, hermiticity_defect, minus_state, fidelity
from qxform.schedules import Constant, Harmonic, LinearRamp, NmrParams

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestNmrBuilder:
    def test_zero_drive_phase(self):
        p = NmrParams.harmonic(1.2, 0.9, 2.0)
        got = nmr_hamiltonian(p).matrix(0.0)  # phase(0) = 0
        np.testing.assert_allclose(got, 0.6 * Z + 2.0 * X, atol=1e-15)

    def test_quarter_turn_drive_phase(self):
        # rate pi/2 at t=1 puts the drive along Y
        p = NmrParams(Constant(1.2), 2.0, Harmonic(math.pi / 2))
        got = nmr_hamiltonian(p).matrix(1.0)
        np.testing.assert_allclose(got, 0.6 * Z + 2.0 * Y, atol=1e-15)

    def test_eigenvalues_closed_form(self):
        # brute-force oracle: the 2x2 spectrum is +-sqrt((w0/2)^2 + g^2)
        w0, g = 1.4, 2.3
        p = NmrParams.harmonic(w0, 2.0, g)
        h = nmr_hamiltonian(p)
        expected = math.sqrt((w0 / 2) ** 2 + g**2)
        for t in (0.0, 0.37, 1.9):
            vals = np.linalg.eigvalsh(h.matrix(t))
            np.testing.assert_allclose(vals, [-expected, expected], atol=1e-12)


class TestRotatingFrameBuilder:
    def test_frame_equal_to_drive_reproduces_lab(self):
        p = NmrParams(Constant(1.1), 1.7, Harmonic(2.2), frame_phase=Harmonic(2.2))
        lab = nmr_hamiltonian(p)
        frame = rotating_frame_hamiltonian(p)
        for t in (0.0, 0.63, 2.0):
            np.testing.assert_allclose(frame.matrix(t), lab.matrix(t), atol=1e-14)

    def test_detuned_frame_empties_z_coefficient(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)  # frame rate = detuning
        frame = rotating_frame_hamiltonian(p)
        d = p.detuning
        for t in (0.0, 0.9, 4.2):
            expected = 2.0 * (math.cos(d * t) * X + math.sin(d * t) * Y)
            np.testing.assert_allclose(frame.matrix(t), expected, atol=1e-14)

    def test_detuned_frame_eigenvalues_are_plus_minus_g(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        frame = rotating_frame_hamiltonian(p)
        for t in (0.1, 1.3):
            np.testing.assert_allclose(
                np.linalg.eigvalsh(frame.matrix(t)), [-2.0, 2.0], atol=1e-12
            )

    def test_frame_phase_required(self):
        p = NmrParams(Constant(1.0), 1.0, Harmonic(1.0))
        with pytest.raises(ValueError, match="frame_phase"):
            rotating_frame_hamiltonian(p)


class TestAnnealingBuilder:
    def test_grover_problem_term_is_projector_complement(self):
        ramp = LinearRamp(2.0, 0.0, 1.0)
        h = annealing_hamiltonian(ramp, GroverProblem(2, 3))
        np.testing.assert_allclose(
            h.matrix(1.0), np.diag([1.0, 1.0, 1.0, 0.0]), atol=1e-14
        )

    def test_pure_transverse_ground_state_is_minus_product(self):
        problem = IsingProblem(3, fields=(0.0, 0.0, 0.0))
        h = annealing_hamiltonian(LinearRamp(5.0, 0.0, 1.0), problem)
        energies, states = np.linalg.eigh(h.matrix(0.0))
        assert energies[0] == pytest.approx(-15.0, abs=1e-12)
        assert fidelity(states[:, 0], minus_state(3)) == pytest.approx(1.0, abs=1e-12)

    def test_ising_two_qubit_diagonal_oracle(self):
        # brute-force 4x4 assembly with qubit 0 on the leftmost tensor slot:
        # h0 Z0 + J01 Z0 Z1 = diag(1,1,-1,-1) - diag(1,-1,-1,1) = diag(0,2,0,-2)
        problem = IsingProblem(2, fields=(1.0, 0.0), couplings=((0, 1, -1.0),))
        expected = 1.0 * np.kron(Z, np.eye(2)) + (-1.0) * np.kron(Z, Z)
        np.testing.assert_allclose(expected, np.diag([0.0, 2.0, 0.0, -2.0]), atol=0)
        h = annealing_hamiltonian(LinearRamp(1.0, 0.0, 1.0), problem)
        np.testing.assert_allclose(h.matrix(1.0), expected, atol=1e-14)

    def test_grover_expansion_matches_projector_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            n = int(rng.integers(1, 5))
            marked = int(rng.integers(0, 2**n))
            problem = GroverProblem(n, marked)
            built = sum(s.matrix(n) for s in problem.pauli_terms())
            ket = np.zeros(2**n)
            ket[marked] = 1.0
            expected = np.eye(2**n) - np.outer(ket, ket)
            np.testing.assert_allclose(built, expected, atol=1e-12)

    def test_grover_diagonal_structure(self):
        problem = GroverProblem(3, 5)
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), problem)
        hp = h.matrix(1.0)
        diag = np.real(np.diag(hp)).copy()
        assert np.linalg.norm(hp - np.diag(np.diag(hp))) < 1e-14
        assert diag[5] == pytest.approx(0.0, abs=1e-14)
        diag[5] = 1.0
        np.testing.assert_allclose(diag, np.ones(8), atol=1e-14)

    def test_default_transverse_strength(self):
        assert default_transverse_strength(GroverProblem(2, 0)) == 2.0
        ising = IsingProblem(2, fields=(0.5, 0.0), couplings=((0, 1, -3.0),))
        assert default_transverse_strength(ising) == 6.0


class TestFastCounterpart:
    def test_zero_phase_reduces_to_annealing(self):
        ramp = LinearRamp(2.0, 0.0, 1.0)
        problem = IsingProblem(3, fields=(0.5, -0.3, 0.2), couplings=((0, 1, -1.0), (1, 2, 0.7)))
        slow = annealing_hamiltonian(ramp, problem)
        fast = fast_counterpart_hamiltonian(ramp, problem, Constant(0.0))
        for t in np.linspace(0.0, 1.0, 7):
            np.testing.assert_allclose(fast.matrix(t), slow.matrix(t), atol=1e-14)

    def test_quarter_phase_turns_z_into_minus_y(self):
        # oracle: exp(-i pi X/4) Z exp(i pi X/4) = -Y, checked via scipy expm
        oracle = expm(-1j * np.pi / 4 * X) @ Z @ expm(1j * np.pi / 4 * X)
        np.testing.assert_allclose(oracle, -Y, atol=1e-15)
        problem = IsingProblem(1, fields=(1.0,))
        fast = fast_counterpart_hamiltonian(
            Constant(0.0), problem, Constant(math.pi / 4)
        )
        np.testing.assert_allclose(fast.matrix(0.3), -Y, atol=1e-14)

    def test_conjugation_identity_random_phases(self):
        rng = np.random.default_rng(41)
        problem = IsingProblem(1, fields=(1.0,))
        for phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=64):
            fast = fast_counterpart_hamiltonian(Constant(0.0), problem, Constant(float(phi)))
            oracle = expm(-1j * phi * X) @ Z @ expm(1j * phi * X)
            np.testing.assert_allclose(fast.matrix(0.0), oracle, atol=1e-12)

    def test_half_turn_flips_z_sign(self):
        problem = IsingProblem(2, fields=(1.0, -0.5), couplings=((0, 1, 0.8),))
        slow = annealing_hamiltonian(Constant(0.0), problem)
        fast = fast_counterpart_hamiltonian(Constant(0.0), problem, Constant(math.pi / 2))
        # single-Z terms flip sign, the ZZ coupling keeps it
        expected = (
            -1.0 * PauliString(((0, "Z"),)).matrix(2)
            + 0.5 * PauliString(((1, "Z"),)).matrix(2)
            + 0.8 * PauliString(((0, "Z"), (1, "Z"))).matrix(2)
        )
        np.testing.assert_allclose(fast.matrix(0.1), expected, atol=1e-13)
        np.testing.assert_allclose(slow.matrix(0.1) - fast.matrix(0.1),
                                   2.0 * (PauliString(((0, "Z"),)).matrix(2)
                                          - 0.5 * PauliString(((1, "Z"),)).matrix(2)),
                                   atol=1e-13)

    def test_rotating_phase_shifts_transverse_rate(self):
        problem = IsingProblem(2, fields=(0.0, 0.0))
        rate = 3.7
        fast = fast_counterpart_hamiltonian(Constant(0.0), problem, Harmonic(rate))
        sum_x = PauliString(((0, "X"),)).matrix(2) + PauliString(((1, "X"),)).matrix(2)
        for t in (0.0, 0.52):
            np.testing.assert_allclose(fast.matrix(t), rate * sum_x, atol=1e-13)

    def test_ten_qubit_counterparts_build(self):
        # a half turn maps Z to -Z on every qubit, up to sin(pi) ~ 1e-16 Y parts:
        # Grover's I - |m><m| becomes I - |not m><not m|, and Ising fields flip sign
        half_turn = Constant(math.pi / 2)
        grover = fast_counterpart_hamiltonian(Constant(0.0), GroverProblem(10, 77), half_turn)
        expected = np.eye(1024)
        expected[77 ^ 1023, 77 ^ 1023] = 0.0
        np.testing.assert_allclose(grover.matrix(0.0), expected, rtol=0, atol=1e-12)
        fields = tuple(np.linspace(-1.0, 1.0, 10))
        couplings = [(i, j, 0.1 * (i - j)) for i, j in itertools.combinations(range(10), 2)]
        ising = fast_counterpart_hamiltonian(
            Constant(0.0), IsingProblem(10, fields, couplings), half_turn
        )
        flipped = IsingProblem(10, tuple(-h for h in fields), couplings)
        expected = annealing_hamiltonian(Constant(0.0), flipped).matrix(0.0)
        np.testing.assert_allclose(ising.matrix(0.0), expected, rtol=0, atol=1e-12)

    def test_non_diagonal_conjugated_strings_rejected(self):
        class MixedProblem:
            n_qubits = 1

            def pauli_terms(self):
                return (PauliString(((0, "Z"),)), PauliString(((0, "X"),), 0.5))

        with pytest.raises(ValueError, match="Z-only"):
            fast_counterpart_hamiltonian(Constant(0.0), MixedProblem(), Constant(0.0))


def sum_x(n):
    return sum(PauliString(((q, "X"),)).matrix(n) for q in range(n))


def kron_chain_counterpart(transverse, problem, phase, ts):
    """The driven counterpart evaluated as it was before its conjugated terms
    were expanded: (transverse + phase') sum_i X_i, then every Z-string as a
    qubit-by-qubit Kronecker chain of cos(2 phase) Z - sin(2 phase) Y."""
    n, rows = problem.n_qubits, len(ts)
    rate = transverse.value(ts) + phase.derivative(ts)
    out = rate[:, None, None] * sum_x(n)
    two_phase = 2.0 * phase.value(ts)
    c, s = np.cos(two_phase), np.sin(two_phase)
    conj_z = np.zeros((rows, 2, 2), dtype=complex)
    conj_z[:, 0, 0], conj_z[:, 0, 1], conj_z[:, 1, 0], conj_z[:, 1, 1] = c, 1j * s, -1j * s, -c
    ident = np.broadcast_to(np.eye(2), (rows, 2, 2))
    for string in problem.pauli_terms():
        cur = np.full((rows, 1, 1), string.coefficient, dtype=complex)
        for q in range(n):
            factor = conj_z if q in string.support else ident
            size = 2 * cur.shape[1]
            cur = (cur[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(rows, size, size)
        out = out + cur
    return out


def problems(data, n):
    if data.draw(st.booleans()):
        return GroverProblem(n, data.draw(st.integers(0, 2**n - 1)))
    value = st.floats(-3.0, 3.0, allow_nan=False)
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    fields = data.draw(st.lists(value, min_size=n, max_size=n))
    return IsingProblem(n, fields, [(i, j, data.draw(value)) for i, j in chosen])


@given(n=st.integers(1, 5), rows=st.integers(1, 64), data=st.data())
def test_counterpart_matches_kron_chain_evaluation(n, rows, data):
    problem = problems(data, n)
    transverse = LinearRamp(data.draw(st.floats(0.0, 6.0)), 0.0, 1.0)
    phase = Harmonic(data.draw(st.floats(-50.0, 50.0)))
    ts = data.draw(hnp.arrays(np.float64, rows, elements=st.floats(0.0, 1.0)))
    got = fast_counterpart_hamiltonian(transverse, problem, phase).matrix_stack(ts)
    expected = kron_chain_counterpart(transverse, problem, phase, ts)
    # the same products; BLAS may sum the terms of one entry in another order
    tol = 8 * np.finfo(float).eps * max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


@pytest.mark.parametrize(
    "problem",
    [
        IsingProblem(3, fields=(0.5, -0.2, 0.1), couplings=((0, 1, -1.0), (1, 2, 0.7))),
        GroverProblem(3, 6),
        # 256 Z-strings of every weight up to 8, 3^8 expanded terms
        GroverProblem(8, 77),
    ],
)
def test_counterpart_matches_frame_change_oracle(problem):
    # oracle: R (A + phase') sum X R^dag + R D R^dag with R = expm(-i phase sum X)
    n = problem.n_qubits
    transverse, phase = LinearRamp(2.0, 0.0, 1.0), Harmonic(7.3)
    h = fast_counterpart_hamiltonian(transverse, problem, phase)
    diag = sum(s.matrix(n) for s in problem.pauli_terms())
    for t in np.random.default_rng(47).uniform(0.0, 1.0, size=8):
        r = expm(-1j * phase.value(t) * sum_x(n))
        rate = transverse.value(t) + phase.derivative(t)
        expected = r @ (rate * sum_x(n)) @ r.conj().T + r @ diag @ r.conj().T
        np.testing.assert_allclose(h.matrix(t), expected, rtol=0, atol=1e-12)


class TestEvaluation:
    def _samples(self):
        problem = IsingProblem(3, fields=(0.5, -0.2, 0.1), couplings=((0, 1, -1.0),))
        ramp = LinearRamp(2.0, 0.0, 1.0)
        return [
            nmr_hamiltonian(NmrParams.harmonic(1.0, 1.5, 2.0)),
            rotating_frame_hamiltonian(NmrParams.harmonic(1.0, 1.5, 2.0)),
            annealing_hamiltonian(ramp, problem),
            fast_counterpart_hamiltonian(ramp, problem, Harmonic(5.0)),
            annealing_hamiltonian(ramp, GroverProblem(3, 6)),
        ]

    def test_hermitian_at_200_random_times(self):
        rng = np.random.default_rng(43)
        for h in self._samples():
            ts = rng.uniform(0.0, 1.0, size=200)
            for m in h.matrix_stack(ts):
                assert hermiticity_defect(m) <= 1e-12

    def test_matrix_stack_matches_scalar(self):
        for h in self._samples():
            ts = np.linspace(0.0, 1.0, 5)
            stack = h.matrix_stack(ts)
            for k, t in enumerate(ts):
                np.testing.assert_allclose(stack[k], h.matrix(float(t)), atol=1e-15)

    def test_string_outside_register_rejected(self):
        # a constant coefficient folds the string into the static part, a varying one gives it a column
        outside = PauliString(((3, "X"),))
        for coefficient in (1.0, LinearRamp(0.0, 1.0, 1.0)):
            for strings in (outside, (PauliString(((0, "X"),)), outside)):
                with pytest.raises(ValueError, match="qubit index 3 out of range for 1 qubits"):
                    TimeDependentHamiltonian(1, terms=((coefficient, strings),))
        with pytest.raises(ValueError, match="the qubit count 2.7 is not an integer"):
            TimeDependentHamiltonian(2.7)

    @staticmethod
    def _with_coefficient(value):
        class Coefficient:
            def value(self, t):
                return np.where(np.asarray(t) < 0.25, 1.0 + 0j, value)

        return TimeDependentHamiltonian(
            2,
            terms=(
                (LinearRamp(1.0, 0.0, 1.0), PauliString(((0, "X"),))),
                (Coefficient(), PauliString(((0, "Z"), (1, "Y")))),
            ),
        )

    def test_complex_coefficient_fails_by_name(self):
        h = self._with_coefficient(1 + 0.5j)
        with pytest.raises(ValueError, match=r"Pauli term Z0 Y1 is \(1\+0\.5j\) at t=0\.5$"):
            h.matrix_stack([0.0, 0.5, 1.0])

    def test_non_finite_constant_coefficient_fails_by_name(self):
        h = nmr_hamiltonian(NmrParams(Constant(math.inf), 1.0, Harmonic(1.0)))
        with pytest.raises(ValueError, match=r"Pauli term Z0 is inf at t=0\.0$"):
            h.matrix(0.0)
        h = TimeDependentHamiltonian(2, terms=((math.nan, PauliString(((1, "X"),))),))
        with pytest.raises(ValueError, match=r"Pauli term X1 is nan at t=0\.5$"):
            h.matrix(0.5)

    def test_complex_coefficient_with_zero_imaginary_part_is_real(self):
        got = self._with_coefficient(1 + 0j).matrix_stack([0.0, 0.5, 1.0])
        expected = self._with_coefficient(1.0).matrix_stack([0.0, 0.5, 1.0])
        assert np.array_equal(got, expected)

    def test_matrix_stack_peak_is_its_output_and_coefficients(self):
        # 8192 rows at dim 2 return 512 KiB; the coefficient columns and one
        # segment's product at a time add under 512 KiB to that
        h = nmr_hamiltonian(NmrParams.harmonic(1.0, 2.0, 25.0))
        ts = np.linspace(0.0, 1.0, 8192)
        h.matrix_stack(ts[:16])  # one-time allocations
        tracemalloc.start()
        try:
            h.matrix_stack(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sign_table_is_the_sylvester_hadamard_matrix(self, n):
        signs = _sign_table(n)
        expected = hadamard(2**n, dtype=float)
        assert signs.dtype == expected.dtype
        assert np.array_equal(signs, expected)


class _Column:
    """Column ``k`` of a group's coefficient, weighting the group's k-th string alone."""

    def __init__(self, coefficient, k):
        self.coefficient, self.k = coefficient, k

    def value(self, t):
        value = self.coefficient.value(t)
        return value[:, self.k] if np.ndim(value) == 2 else value


def one_string_per_term(monkeypatch, build, *args):
    """What ``build`` returns, and the same strings given one per term."""
    built = []

    def capture(n_qubits, terms=()):
        built.append((n_qubits, tuple(terms)))
        return TimeDependentHamiltonian(n_qubits, terms)

    monkeypatch.setattr(hamiltonians, "TimeDependentHamiltonian", capture)
    h = build(*args)
    monkeypatch.undo()
    (n, terms), = built
    single = []
    for coefficient, strings in terms:
        strings = (strings,) if isinstance(strings, PauliString) else strings
        varying = not isinstance(coefficient, (int, float, Constant))
        single += [(_Column(coefficient, k) if varying else coefficient, s) for k, s in enumerate(strings)]
    return h, TimeDependentHamiltonian(n, single)


def _builders():
    ramp, phase = LinearRamp(2.0, 0.0, 1.0), Harmonic(7.3)
    drives = [
        NmrParams.harmonic(1.0, 1.5, 2.0),
        NmrParams(LinearRamp(1.2, -0.4, 1.0), 0.8, Harmonic(2.5), frame_phase=Harmonic(-1.1)),
    ]
    problems = [GroverProblem(n, (5 * n) % 2**n) for n in range(1, 5)]
    problems += [
        IsingProblem(1, fields=(0.7,)),
        IsingProblem(2, fields=(0.5, -0.3), couplings=((0, 1, -1.0),)),
        IsingProblem(3, fields=(0.5, 0.0, 0.2), couplings=((0, 2, 0.9), (1, 2, -0.4))),
        IsingProblem(4, fields=(0.5,) * 4, couplings=((0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0))),
        # no Z-string at all: the conjugated group is empty
        IsingProblem(3, fields=(0.0, 0.0, 0.0)),
    ]
    cases = [(nmr_hamiltonian, p) for p in drives] + [(rotating_frame_hamiltonian, p) for p in drives]
    cases += [(annealing_hamiltonian, ramp, p) for p in problems]
    cases += [(fast_counterpart_hamiltonian, ramp, p, phase) for p in problems]
    return cases


@pytest.mark.parametrize("case", _builders(), ids=lambda case: case[0].__name__)
def test_grouped_terms_match_one_string_per_term(monkeypatch, case):
    # each group keeps the column order and the products of its strings given alone
    grouped, single = one_string_per_term(monkeypatch, *case)
    ts = np.random.default_rng(53).uniform(0.0, 1.0, size=40)
    assert np.array_equal(grouped.matrix_stack(ts), single.matrix_stack(ts))


@given(n=st.integers(1, 5), rows=st.integers(1, 32), data=st.data())
def test_matrix_stack_is_exactly_hermitian(n, rows, data):
    # real coefficients times +-1 signs, placed in mirrored entries: no rounding breaks symmetry
    problem = problems(data, n)
    value = st.floats(-50.0, 50.0, allow_nan=False)
    transverse = LinearRamp(data.draw(value), data.draw(value), 1.0)
    drive = NmrParams.harmonic(data.draw(value), data.draw(value), data.draw(st.floats(0.1, 50.0)))
    ts = data.draw(hnp.arrays(np.float64, rows, elements=st.floats(0.0, 1.0)))
    for h in (
        annealing_hamiltonian(transverse, problem),
        fast_counterpart_hamiltonian(transverse, problem, Harmonic(data.draw(value))),
        nmr_hamiltonian(drive),
    ):
        stack = h.matrix_stack(ts)
        assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))


def dense_sum(n, terms):
    """sum c s.matrix(n) over constant (c, s) terms, string by string in the order given."""
    total = np.zeros((2**n, 2**n), dtype=complex)
    for c, s in terms:
        total += c * s.matrix(n)
    return total


def _constant_parts():
    """(Hamiltonian, its constant terms) pairs: the families' problem terms and splittings, and
    strings of every axis under random constant coefficients."""
    rng = np.random.default_rng(67)
    ramp = LinearRamp(2.0, 0.0, 1.0)
    problems = [GroverProblem(n, (5 * n + 1) % 2**n) for n in range(1, 9)]
    for n in range(1, 7):
        fields = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        pairs = itertools.combinations(range(n), 2)
        problems.append(IsingProblem(n, tuple(fields), tuple((i, j, rng.normal()) for i, j in pairs)))
    cases = [(annealing_hamiltonian(ramp, p), [(1.0, s) for s in p.pauli_terms()]) for p in problems]
    for splitting in (1.0, -0.37, 3.3e-7):
        z = PauliString(((0, "Z"),), 0.5)
        cases.append((nmr_hamiltonian(NmrParams.harmonic(splitting, 2.0, 25.0)), [(splitting, z)]))
    for n in range(1, 5):
        axes = itertools.product("IXYZ", repeat=n)
        strings = [PauliString(tuple((q, a) for q, a in enumerate(row) if a != "I"), rng.normal()) for row in axes]
        terms = [(float(rng.normal() * 10.0 ** rng.uniform(-3, 3)), s) for s in strings]
        cases.append((TimeDependentHamiltonian(n, terms), terms))
    return cases


@pytest.mark.parametrize("h, terms", _constant_parts())
def test_static_part_is_the_dense_sum_bit_for_bit(h, terms):
    # compared as int64 words, so that a signed zero counts
    assert np.array_equal(h._static.view(np.int64), dense_sum(h.n_qubits, terms).view(np.int64))


class TestEigensystem:
    def test_residuals_and_orthonormality(self):
        problem = IsingProblem(3, fields=(0.5, -0.2, 0.1), couplings=((0, 2, -0.9),))
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), problem)
        for t in (0.0, 0.4, 1.0):
            m = h.matrix(t)
            energies, states = np.linalg.eigh(m)
            for k in range(8):
                res = np.linalg.norm(m @ states[:, k] - energies[k] * states[:, k])
                assert res <= 1e-9
            gram = states.conj().T @ states
            assert np.linalg.norm(gram - np.eye(8)) < 1e-10
            assert np.all(np.diff(energies) >= -1e-14)

    def test_rotating_frame_eigenstates_match_conjugated_oracle(self):
        # oracle: |E+-(t)> = exp(-i d Z t / 2) |+-> with energies +-g
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        frame = rotating_frame_hamiltonian(p)
        d, g = p.detuning, p.drive_strength
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        for t in (0.0, 0.7, 2.1):
            energies, states = np.linalg.eigh(frame.matrix(t))
            rot = expm(-1j * d * Z * t / 2)
            np.testing.assert_allclose(energies, [-g, g], atol=1e-12)
            assert fidelity(states[:, 0], rot @ minus) == pytest.approx(1.0, abs=1e-12)
            assert fidelity(states[:, 1], rot @ plus) == pytest.approx(1.0, abs=1e-12)

    def test_grover_final_ground_state_is_marked(self):
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), GroverProblem(3, 6))
        energies, states = np.linalg.eigh(h.matrix(1.0))
        assert energies[0] == pytest.approx(0.0, abs=1e-14)
        assert abs(states[6, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_zero_diagonal(self):
        p = NmrParams(Constant(0.0), 1.3, Constant(0.0))
        h = nmr_hamiltonian(p)  # 1.3 X
        energies = np.linalg.eigh(h.matrix(0.0))[0]
        np.testing.assert_allclose(energies, [-1.3, 1.3], atol=1e-14)


def string_forms(problem):
    return [(s.factors, s.coefficient) for s in problem.pauli_terms()]


class TestProblems:
    def test_grover_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            GroverProblem(2, 4)
        with pytest.raises(ValueError, match="the qubit count 2.5 is not an integer"):
            GroverProblem(2.5, 0)
        problem = GroverProblem(3.0, 7)  # an integral float is its int
        assert type(problem.n_qubits) is int
        assert string_forms(problem) == string_forms(GroverProblem(3, 7))
        # so is an integral float index, which the Z-string expansion shifts
        problem = GroverProblem(3, 7.0)
        assert type(problem.marked) is int
        ramp = LinearRamp(2.0, 0.0, 1.0)
        assert np.array_equal(
            annealing_hamiltonian(ramp, problem).matrix(0.0),
            annealing_hamiltonian(ramp, GroverProblem(3, 7)).matrix(0.0),
        )
        for marked in (7.5, "7", math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^the marked index {re.escape(repr(marked))} is not an integer$"):
                GroverProblem(3, marked)

    def test_ising_validation(self):
        with pytest.raises(ValueError, match="the qubit count inf is not an integer"):
            IsingProblem(math.inf, fields=(0.0, 0.0))
        problem = IsingProblem(2.0, (1.0, 1.0))
        assert type(problem.n_qubits) is int and problem == IsingProblem(2, (1.0, 1.0))
        assert string_forms(problem) == string_forms(IsingProblem(2, (1.0, 1.0)))
        with pytest.raises(ValueError, match="diagonal"):
            IsingProblem(2, fields=(0.0, 0.0), couplings=((1, 1, 1.0),))
        with pytest.raises(ValueError, match="duplicate"):
            IsingProblem(2, fields=(0.0, 0.0), couplings=((0, 1, 1.0), (1, 0, 2.0)))
        with pytest.raises(ValueError, match="fields"):
            IsingProblem(3, fields=(0.0, 0.0))

    @pytest.mark.parametrize(
        "fields, couplings, name",
        [
            ((float("nan"), 0.0), (), r"fields\[0\]"),
            ((0.0, -math.inf), (), r"fields\[1\]"),
            ((0.0, 0.0), ((0, 1, math.inf),), r"couplings\[0\]"),
            ((0.0, 0.0, 0.0), ((0, 1, 1.0), (1, 2, float("nan"))), r"couplings\[1\]"),
        ],
    )
    def test_ising_rejects_non_finite_terms(self, fields, couplings, name):
        with pytest.raises(ValueError, match=name):
            IsingProblem(len(fields), fields=fields, couplings=couplings)

    @pytest.mark.parametrize(
        "couplings, message",
        [
            (((-1, 1, -0.5),), r"couplings\[0\] has a negative qubit index -1"),
            (((0, 1, 0.2), (2, -1, 0.3)), r"couplings\[1\] has a negative qubit index -1"),
            (((0.5, 1.7, -0.5),), r"couplings\[0\] has a non-integral qubit index 0\.5"),
            (((0, 1, 0.2), (0, 1.7, -0.5)), r"couplings\[1\] has a non-integral qubit index 1\.7"),
            (((0, float("nan"), 1.0),), r"couplings\[0\] has a non-integral qubit index nan"),
            (((math.inf, 1, 1.0),), r"couplings\[0\] has a non-integral qubit index inf"),
        ],
    )
    def test_ising_rejects_bad_coupling_indices(self, couplings, message):
        with pytest.raises(ValueError, match=message):
            IsingProblem(3, fields=(0.0, 0.0, 0.0), couplings=couplings)

    @pytest.mark.parametrize(
        "fields, couplings",
        [
            ((1e308, 1e308), ()),
            ((1e308, -1e308), ()),
            ((1e308, 0.0), ((0, 1, 1e308),)),
        ],
    )
    def test_ising_rejects_a_diagonal_past_the_float_range(self, fields, couplings):
        with pytest.raises(ValueError, match="the fields and couplings sum past the float range on the diagonal"):
            IsingProblem(2, fields=fields, couplings=couplings)

    def test_ising_diagonal_at_the_float_range_is_accepted(self):
        # 8e307 + 1 rounds to 8e307, and a span of the largest float is finite
        problem = IsingProblem(2, fields=(8e307, 1.0), couplings=((0, 1, 0.5),))
        h = annealing_hamiltonian(LinearRamp(1.0, 0.0, 1.0), problem)
        assert np.isfinite(h.matrix(0.0)).all()
        IsingProblem(1, fields=(sys.float_info.max / 2,))

    @pytest.mark.parametrize(
        "fields, couplings, bound",
        [
            ((1e308, 0.0, 0.0, 0.0), (), "1e+308"),
            ((math.nextafter(sys.float_info.max / 2, math.inf),), (), "8.98846567431158e+307"),
            ((0.0, 0.0), ((0, 1, 1e308),), "1e+308"),
        ],
    )
    def test_ising_rejects_energies_spanning_past_the_float_range(self, fields, couplings, bound):
        # every diagonal entry is finite, but the span from the smallest to the largest is not
        message = f"the problem energies span from -{bound} to {bound}, past the float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IsingProblem(len(fields), fields=fields, couplings=couplings)

    def test_ising_accepts_integral_indices_of_any_numeric_type(self):
        problem = IsingProblem(3, (0.0, 0.0, 0.0), couplings=((np.int64(2), 0.0, 1.0),))
        assert problem.couplings == ((0, 2, 1.0),)
        assert all(type(index) is int for index in problem.couplings[0][:2])

    def test_edge_list_round_trip(self, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text(
            "# four-site chain\n"
            "0 0.5\n1 0.5\n2 0.5\n3 0.5\n"
            "0 1 -1.0\n1 2 -1.0\n2 3 -1.0  # couplings\n"
        )
        problem = IsingProblem.from_edge_list(path)
        assert problem.n_qubits == 4
        assert problem.fields == (0.5, 0.5, 0.5, 0.5)
        assert problem.couplings == ((0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 0.5\n1 nan\n", 2),
            ("0 0.5\n1 -inf\n", 2),
            ("0 0.5\n# chain\n0 1 inf\n", 3),
            ("0 0.5\n0 1 NaN\n", 2),
            ("0 0.5\n0 1 1e101\n", 2),
            ("0 5e-324\n", 1),
        ],
    )
    def test_edge_list_rejects_non_finite_values(self, tmp_path, text, line):
        # and every value outside the envelope: 0 or a magnitude in [1e-100, 1e100]
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"edges.txt:{line}: .*expected 0 or a magnitude in \[1e-100, 1e\+100\]"):
            IsingProblem.from_edge_list(path)
        lo, hi = ENVELOPE
        path.write_text(f"0 {lo!r}\n1 {-hi!r}\n0 1 0.0\n")
        assert IsingProblem.from_edge_list(path) == IsingProblem(2, (lo, -hi), ((0, 1, 0.0),))

    def test_edge_list_bad_line_names_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0.5\n0 1 2 3\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            IsingProblem.from_edge_list(path)

    @pytest.mark.parametrize(
        "text, n_qubits, line, why",
        [
            # a field line outside the register was dropped, and a repeated one kept its last value
            ("0 0.5\n7 3.0\n", 2, 2, "'7 3.0' indexes a qubit outside [0, 2)"),
            ("0 0.5\n-1 2.0\n", 2, 2, "'-1 2.0' indexes a qubit outside [0, 2)"),
            ("-1 2.0\n", None, 1, "'-1 2.0' indexes a qubit outside [0, 1)"),
            ("0 0.5\n0 0.7\n", None, 2, "'0 0.7' repeats the qubits of line 1"),
            # a coupling line was named by its position among the couplings, or not at all
            ("0 0.5\n0 2 1.0\n", 2, 2, "'0 2 1.0' indexes a qubit outside [0, 2)"),
            ("0 1 1.0\n# again\n1 0 2.0\n", None, 3, "'1 0 2.0' repeats the qubits of line 1"),
            ("1 1 1.0\n", None, 1, "'1 1 1.0' couples qubit 1 to itself"),
        ],
    )
    def test_edge_list_refuses_bad_indices_naming_the_line(self, tmp_path, text, n_qubits, line, why):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: {why}')}$"):
            IsingProblem.from_edge_list(path, n_qubits=n_qubits)

    def test_edge_list_register_is_refused_before_it_is_built(self, tmp_path):
        # one past the largest index is the register: 10^12 qubits are refused
        # by count, not laid out field by field
        path = tmp_path / "edges.txt"
        path.write_text("1000000000000 0.5\n")
        with pytest.raises(ValueError, match="exceeds the dense-storage limit"):
            IsingProblem.from_edge_list(path)


# |h, J| <= 5e306 over at most 15 terms: every diagonal entry and the span stay finite
_TERM = st.one_of(st.just(0.0), st.floats(-5e306, 5e306))


@given(n=st.integers(1, 5), data=st.data())
def test_energy_span_is_at_least_twice_the_energy_scale(n, data):
    # with E(z) = sum h_i z_i + sum J_ij z_i z_j, h_i is the mean of E(z) z_i and
    # J_ij that of E(z) z_i z_j, so neither exceeds half the span: a problem whose
    # default transverse strength 2 max|h, J| overflows spans past the float range,
    # and IsingProblem refuses it before that strength is computed
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    fields = data.draw(st.lists(_TERM, min_size=n, max_size=n))
    problem = IsingProblem(n, fields, [(i, j, data.draw(_TERM)) for i, j in chosen])
    diagonal = hamiltonians._diagonal(problem)
    assert 2 * problem.energy_scale() <= diagonal.max() - diagonal.min()


def _outside_envelope(lines):
    """The index of the first edge-list line whose value is neither 0 nor of
    a magnitude in the envelope, else None."""
    lo, hi = ENVELOPE
    values = [float(line.split()[-1]) for line in lines]
    return next((k for k, v in enumerate(values) if not (v == 0 or lo <= abs(v) <= hi)), None)


def _edge_lines(problem, data):
    """``problem`` as edge-list lines in a drawn order, each coupling's pair in
    either order."""
    lines = [f"{i} {h!r}" for i, h in enumerate(problem.fields)]
    for i, j, coupling in problem.couplings:
        i, j = data.draw(st.permutations((i, j)))
        lines.append(f"{i} {j} {coupling!r}")
    return data.draw(st.permutations(lines))


@given(n=st.integers(1, 5), data=st.data())
def test_edge_list_reads_back_equal_and_refuses_indices_outside_the_register(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    fields = data.draw(st.lists(_TERM, min_size=n, max_size=n))
    problem = IsingProblem(n, fields, [(i, j, data.draw(_TERM)) for i, j in chosen])
    lines = _edge_lines(problem, data)
    outside = st.one_of(st.integers(max_value=-1), st.integers(min_value=n))
    qubits = [data.draw(outside)] + data.draw(st.lists(st.integers(0, n - 1), max_size=1))
    bad = " ".join(map(str, data.draw(st.permutations(qubits)))) + " 1.0"
    at = data.draw(st.integers(0, len(lines)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        # a value outside the envelope is refused as its line is read, before any index is checked
        k = _outside_envelope(lines)
        if k is None:
            assert IsingProblem.from_edge_list(path) == problem
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{k + 1}: cannot parse {lines[k]!r}')}"):
                IsingProblem.from_edge_list(path)
        lines = [*lines[:at], bad, *lines[at:]]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        k = _outside_envelope(lines)
        if k is None:
            refusal = f"^{re.escape(f'{path}:{at + 1}: {bad!r} indexes a qubit outside [0, {n})')}$"
        else:
            refusal = f"^{re.escape(f'{path}:{k + 1}: cannot parse {lines[k]!r}')}"
        with pytest.raises(ValueError, match=refusal):
            IsingProblem.from_edge_list(path, n_qubits=n)
