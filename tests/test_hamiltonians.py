import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from qxform.hamiltonians import (
    FrameConjugatedTerms,
    GroverProblem,
    IsingProblem,
    TimeDependentHamiltonian,
    annealing_hamiltonian,
    default_transverse_strength,
    fast_counterpart_hamiltonian,
    instantaneous_eigensystem,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from qxform.operators import PauliString, hermiticity_defect, minus_state, fidelity
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
        eig = instantaneous_eigensystem(h, 0.0)
        assert eig.energies[0] == pytest.approx(-15.0, abs=1e-12)
        assert fidelity(eig.state(0), minus_state(3)) == pytest.approx(1.0, abs=1e-12)

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
        with pytest.raises(ValueError, match="Z-only"):
            FrameConjugatedTerms((PauliString(((0, "X"),)),), Constant(0.0))


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
        with pytest.raises(ValueError, match="out of range"):
            TimeDependentHamiltonian(1, terms=((1.0, PauliString(((1, "Z"),))),))


class TestEigensystem:
    def test_residuals_and_orthonormality(self):
        problem = IsingProblem(3, fields=(0.5, -0.2, 0.1), couplings=((0, 2, -0.9),))
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), problem)
        for t in (0.0, 0.4, 1.0):
            eig = instantaneous_eigensystem(h, t)
            m = h.matrix(t)
            for k in range(8):
                res = np.linalg.norm(m @ eig.state(k) - eig.energies[k] * eig.state(k))
                assert res <= 1e-9
            gram = eig.states.conj().T @ eig.states
            assert np.linalg.norm(gram - np.eye(8)) < 1e-10
            assert np.all(np.diff(eig.energies) >= -1e-14)

    def test_rotating_frame_eigenstates_match_conjugated_oracle(self):
        # oracle: |E+-(t)> = exp(-i d Z t / 2) |+-> with energies +-g
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        frame = rotating_frame_hamiltonian(p)
        d, g = p.detuning, p.drive_strength
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        for t in (0.0, 0.7, 2.1):
            eig = instantaneous_eigensystem(frame, t)
            rot = expm(-1j * d * Z * t / 2)
            np.testing.assert_allclose(eig.energies, [-g, g], atol=1e-12)
            assert fidelity(eig.state(0), rot @ minus) == pytest.approx(1.0, abs=1e-12)
            assert fidelity(eig.state(1), rot @ plus) == pytest.approx(1.0, abs=1e-12)

    def test_grover_final_ground_state_is_marked(self):
        h = annealing_hamiltonian(LinearRamp(2.0, 0.0, 1.0), GroverProblem(3, 6))
        eig = instantaneous_eigensystem(h, 1.0)
        assert eig.energies[0] == pytest.approx(0.0, abs=1e-14)
        assert abs(eig.state(0)[6]) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_zero_diagonal(self):
        p = NmrParams(Constant(0.0), 1.3, Constant(0.0))
        h = nmr_hamiltonian(p)  # 1.3 X
        eig = instantaneous_eigensystem(h, 0.0)
        np.testing.assert_allclose(eig.energies, [-1.3, 1.3], atol=1e-14)

    def test_degeneracy_flag(self):
        problem = IsingProblem(2, fields=(0.0, 0.0))
        h = annealing_hamiltonian(LinearRamp(1.0, 0.0, 1.0), problem)
        assert instantaneous_eigensystem(h, 1.0).degenerate  # H(T) = 0
        assert not instantaneous_eigensystem(h, 0.0).degenerate


class TestProblems:
    def test_grover_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            GroverProblem(2, 4)

    def test_ising_validation(self):
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
        ],
    )
    def test_edge_list_rejects_non_finite_values(self, tmp_path, text, line):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"edges.txt:{line}: .*non-finite"):
            IsingProblem.from_edge_list(path)

    def test_edge_list_bad_line_names_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0.5\n0 1 2 3\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            IsingProblem.from_edge_list(path)
