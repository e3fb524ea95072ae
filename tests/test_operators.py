import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qxform.operators import (
    MAX_QUBITS,
    PauliString,
    _hermitian_expm_stack,
    _row_norms,
    _sign_table,
    _stack_matmul,
    check_qubit_count,
    fidelity,
    hermitian_expm,
    hermiticity_defect,
    minus_state,
    normalization_defect,
    pauli_matrix,
    phase_aligned_distance,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def hermitian_stack(rng, dim, kind):
    """24 generators of dimension ``dim``, stored complex: every one complex
    Hermitian ("complex"), every one real symmetric ("real"), or real symmetric
    but for one complex Hermitian member ("mixed")."""
    if kind == "complex":
        return np.stack([random_hermitian(rng, dim) for _ in range(24)])
    a = rng.normal(size=(24, dim, dim))
    gens = (0.5 * (a + a.transpose(0, 2, 1))).astype(complex)
    if kind == "mixed":
        gens[12] = random_hermitian(rng, dim)
    return gens


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


class TestPauliMatrix:
    def test_x_flips_basis_state(self):
        assert np.array_equal(pauli_matrix("X") @ np.eye(2)[0], np.eye(2)[1])

    def test_z_is_diag_1_minus1(self):
        assert np.array_equal(pauli_matrix("Z"), np.diag([1.0, -1.0]))

    def test_y_squares_to_identity(self):
        y = pauli_matrix("Y")
        assert np.allclose(y @ y, I2, atol=1e-15)

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_hermitian_and_unitary(self, axis):
        m = pauli_matrix(axis)
        assert hermiticity_defect(m) == 0.0
        assert np.linalg.norm(m.conj().T @ m - I2) < 1e-15

    @pytest.mark.parametrize("axis, literal", [("X", X), ("Y", Y), ("Z", Z)])
    def test_bits_equal_the_literal_matrix(self, axis, literal):
        # compared as int64 words, so the sign of each zero counts: the
        # literal -1j of Y has real part -0.0
        assert np.signbit(Y[0, 1].real) and not np.signbit(Y[1, 0].real)
        assert np.array_equal(pauli_matrix(axis).view(np.int64), literal.view(np.int64))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            pauli_matrix("W")

    @pytest.mark.parametrize("axis", ["", "XY"])
    def test_axis_is_one_letter(self, axis):
        with pytest.raises(ValueError, match="axis"):
            PauliString(((0, axis),))


class TestEmbed:
    def test_single_x_on_first_qubit(self):
        got = PauliString(((0, "X"),)).matrix(2)
        assert np.array_equal(got, np.kron(X, I2))

    def test_empty_string_is_identity(self):
        got = PauliString((), 1.0).matrix(3)
        assert np.array_equal(got, np.eye(8))

    def test_zz_diagonal(self):
        got = PauliString(((0, "Z"), (1, "Z"))).matrix(2)
        assert np.array_equal(got, np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            PauliString(((2, "X"),)).matrix(2)

    @pytest.mark.parametrize(
        "count, message",
        [
            (MAX_QUBITS + 1, f"{MAX_QUBITS + 1} qubits exceeds the dense-storage limit of {MAX_QUBITS} "),
            (0, "need at least one qubit, got 0"),
            (2.5, "the qubit count 2.5 is not an integer"),
            (1.9, "the qubit count 1.9 is not an integer"),
            (float("nan"), "the qubit count nan is not an integer"),
            (math.inf, "the qubit count inf is not an integer"),
        ],
    )
    @pytest.mark.parametrize("build", [check_qubit_count, PauliString((), 1.0).matrix, minus_state])
    def test_qubit_cap(self, build, count, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build(count)

    def test_random_strings_match_kron_oracle(self):
        rng = np.random.default_rng(7)
        single = {"X": X, "Y": Y, "Z": Z}
        for _ in range(32):
            n = int(rng.integers(1, 7))
            qubits = sorted(rng.choice(n, size=rng.integers(0, n + 1), replace=False))
            axes = [str(rng.choice(["X", "Y", "Z"])) for _ in qubits]
            coeff = float(rng.normal())
            # oracle: direct kron chain built independently of PauliString
            expected = np.array([[coeff]], dtype=complex)
            placed = dict(zip(qubits, axes))
            for q in range(n):
                expected = np.kron(expected, single[placed[q]] if q in placed else I2)
            got = PauliString(tuple(zip(qubits, axes)), coeff).matrix(n)
            assert np.array_equal(got, expected)

    def test_sign_table_is_cached_and_read_only(self):
        assert _sign_table(3) is _sign_table(3)
        assert not _sign_table(3).flags.writeable

    def test_diagonal_fast_path_matches_kron(self):
        rng = np.random.default_rng(11)
        for _ in range(16):
            n = int(rng.integers(1, 5))
            qubits = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            ps = PauliString(tuple((int(q), "Z") for q in qubits), float(rng.normal()))
            expected = np.array([[ps.coefficient]], dtype=complex)
            for q in range(n):
                expected = np.kron(expected, Z if q in ps.support else I2)
            np.testing.assert_allclose(ps.matrix(n), expected, atol=1e-15)


class TestPauliString:
    def test_factors_canonicalized(self):
        ps = PauliString(((2, "Y"), (0, "X")))
        assert ps.factors == ((0, "X"), (2, "Y"))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PauliString(((0, "X"), (0, "Z")))

    def test_qubit_index_must_be_a_non_negative_integer(self):
        # no index is truncated or parsed: 1.5 is not qubit 1, "1" is not 1
        for q in (1.5, "1", math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^a Pauli string has a non-integral qubit index {re.escape(repr(q))}$"):
                PauliString(((q, "X"),))
        with pytest.raises(ValueError, match="^a Pauli string has a negative qubit index -1$"):
            PauliString(((-1, "X"),))
        # integral floats and numpy integers are their ints
        for q in (1.0, np.int64(1), np.uint8(1)):
            factors = PauliString(((q, "X"),)).factors
            assert factors == ((1, "X"),) and type(factors[0][0]) is int

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, coefficient):
        # refused where it is stored, not later as a NaN matrix or a phase
        # beyond the float range
        with pytest.raises(ValueError, match=f"^the coefficient {coefficient!r} of a Pauli string is not finite$"):
            PauliString(((0, "Z"),), coefficient)

    def test_embed_distributes_over_disjoint_strings(self):
        rng = np.random.default_rng(23)
        for _ in range(16):
            n = 4
            qs = list(rng.permutation(n))
            a = PauliString(
                tuple((int(q), str(rng.choice(["X", "Y", "Z"]))) for q in sorted(qs[:2])),
                float(rng.normal()),
            )
            b = PauliString(
                tuple((int(q), str(rng.choice(["X", "Y", "Z"]))) for q in sorted(qs[2:])),
                float(rng.normal()),
            )
            np.testing.assert_allclose(
                a.matrix(n) @ b.matrix(n),
                PauliString(a.factors + b.factors, a.coefficient * b.coefficient).matrix(n),
                atol=1e-12,
            )


class TestHermitianExpm:
    def test_x_quarter_turn(self):
        np.testing.assert_allclose(hermitian_expm(X, np.pi / 2), -1j * X, atol=1e-15)

    def test_phase_beyond_the_float_range_rejected(self):
        # 1e308 * 2 overflows; the exponential would be NaN
        with pytest.raises(ValueError, match="beyond the float range"):
            hermitian_expm(2.0 * X, 1e308)
        with pytest.raises(ValueError, match="beyond the float range"):
            hermitian_expm(2.0 * X, np.array([0.0, 1e308]))
        with pytest.raises(ValueError, match="beyond the float range"):  # the real eigensolver
            _hermitian_expm_stack(np.stack([X, 2.0 * X]), 1e308)
        with pytest.raises(ValueError, match="beyond the float range"):  # the complex one
            _hermitian_expm_stack(np.stack([X, 2.0 * Y]), 1e308)
        # at the edge of the range the phases stay finite
        assert np.isfinite(hermitian_expm(X, 1e308)).all()

    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(3)
        g = random_hermitian(rng, 4)
        np.testing.assert_allclose(hermitian_expm(g, 0.0), np.eye(4), atol=1e-15)

    def test_z_generator_diagonal(self):
        theta = 0.813
        np.testing.assert_allclose(
            hermitian_expm(Z, theta),
            np.diag([np.exp(-1j * theta), np.exp(1j * theta)]),
            atol=1e-15,
        )

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(5)
        for _ in range(32):
            dim = int(rng.choice([2, 3, 4, 8]))
            g = random_hermitian(rng, dim)
            s = float(rng.normal())
            np.testing.assert_allclose(
                hermitian_expm(g, s), expm(-1j * s * g), atol=1e-12
            )

    def test_inverse_property(self):
        rng = np.random.default_rng(9)
        for _ in range(16):
            g = random_hermitian(rng, 4)
            s = float(rng.normal())
            prod = hermitian_expm(g, s) @ hermitian_expm(g, -s)
            assert np.linalg.norm(prod - np.eye(4)) < 1e-10

    def test_group_property_same_generator(self):
        rng = np.random.default_rng(13)
        for _ in range(16):
            g = random_hermitian(rng, 4)
            s, t = rng.normal(size=2)
            lhs = hermitian_expm(g, s + t)
            rhs = hermitian_expm(g, s) @ hermitian_expm(g, t)
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_expm(bad, 1.0)

    def test_nan_generator_rejected(self):
        bad = np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_expm(bad, 1.0)

    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_stack_matches_per_matrix(self, dim, kind):
        # covers both sides of the einsum / batched-matmul switch, and both eigensolvers
        rng = np.random.default_rng(dim)
        gens = hermitian_stack(rng, dim, kind)
        scale = 0.37
        stack = _hermitian_expm_stack(gens, scale)
        for g, u in zip(gens, stack):
            assert np.abs(u - hermitian_expm(g, scale)).max() <= 1e-13

    @pytest.mark.parametrize("kind", ["complex", "real", "mixed"])
    @pytest.mark.parametrize("dim", [2, 16])
    def test_stack_keeps_its_assembly_bits(self, dim, kind):
        # the propagators' bits: einsum V diag(p) V^dag below dim 4, (V p) @ V^dag from it up;
        # V from the real eigensolver (V^dag = V^T) only when no member is complex
        rng = np.random.default_rng(40 + dim)
        gens = hermitian_stack(rng, dim, kind)
        dt = 0.37
        w, v = np.linalg.eigh(gens.real if kind == "real" else gens)
        phases = np.exp(-1j * dt * w)
        if dim < 4:
            expected = np.einsum("kij,kj,klj->kil", v, phases, v.conj())
        else:
            expected = (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)
        assert np.array_equal(_hermitian_expm_stack(gens, dt), expected)


class TestStackMatmul:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_matmul(self, dim):
        rng = np.random.default_rng(dim)
        a, b = (rng.normal(size=(2, 5, dim, dim)) + 1j * rng.normal(size=(2, 5, dim, dim)) for _ in range(2))
        np.testing.assert_allclose(_stack_matmul(a, b), a @ b, rtol=0, atol=1e-14)
        out = np.full_like(a, np.nan)
        assert _stack_matmul(a, b, out=out) is out
        np.testing.assert_array_equal(out, _stack_matmul(a, b))

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_one_matrix_broadcasts_against_a_stack(self, dim):
        rng = np.random.default_rng(10 + dim)
        stack = rng.normal(size=(7, dim, dim)) + 1j * rng.normal(size=(7, dim, dim))
        single = random_unitary(rng, dim)
        for a, b in ((stack, single), (single, stack)):
            got = _stack_matmul(a, b)
            assert got.shape == (7, dim, dim)
            np.testing.assert_allclose(got, a @ b, rtol=0, atol=1e-14)
            out = np.empty((7, dim, dim), dtype=complex)
            _stack_matmul(a, b, out=out)
            np.testing.assert_array_equal(out, got)
        np.testing.assert_allclose(_stack_matmul(single, single), single @ single, rtol=0, atol=1e-14)

    def test_below_dim_4_sums_the_rank_one_products_in_order(self):
        rng = np.random.default_rng(2)
        a, b = (rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2)) for _ in range(2))
        expected = a[:, :, 0, None] * b[:, None, 0, :] + a[:, :, 1, None] * b[:, None, 1, :]
        assert np.array_equal(_stack_matmul(a, b), expected)


class TestRowNorms:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    def test_matches_the_frobenius_norm_with_inf_and_nan_entries(self, dim):
        rng = np.random.default_rng(30 + dim)
        x = rng.normal(size=(6, dim, dim)) + 1j * rng.normal(size=(6, dim, dim))
        x[1, 0, -1] = np.inf
        x[2, -1, 0] = complex(1.0, -np.inf)
        x[3, 0, 0] = complex(np.nan, 1.0)
        x[4, -1, -1] = complex(np.inf, np.nan)
        with np.errstate(invalid="ignore"):  # the reference's inf * 0 in conj(x) * x
            expected = np.linalg.norm(x, axis=(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _row_norms(x)
            out = np.full(6, -1.0)
            assert _row_norms(x, out=out) is out
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(out, got)
        assert np.isinf(got[1:3]).all() and np.isnan(got[3:5]).all()


class TestPhaseAlignment:
    def test_identical_unitaries(self):
        rng = np.random.default_rng(17)
        u = random_unitary(rng, 4)
        assert phase_aligned_distance(u, u) < 1e-14

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(19)
        u = random_unitary(rng, 4)
        assert phase_aligned_distance(u, np.exp(1j * np.pi / 3) * u) < 1e-14

    def test_identity_vs_x_uses_fallback(self):
        # tr(X^dag I) = 0, so no phase is preferred; plain Frobenius distance
        # of I - X is 2 (four unit-magnitude entries)
        assert phase_aligned_distance(I2, X) == np.linalg.norm(I2 - X) == 2.0

    def test_minimizes_over_phases(self):
        rng = np.random.default_rng(29)
        for _ in range(16):
            a = random_unitary(rng, 3)
            b = random_unitary(rng, 3)
            best = phase_aligned_distance(a, b)
            # brute-force oracle: dense scan over candidate phases
            for phi in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
                assert best <= np.linalg.norm(a - np.exp(1j * phi) * b) + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(16):
            a = random_unitary(rng, 4)
            b = random_unitary(rng, 4)
            assert abs(phase_aligned_distance(a, b) - phase_aligned_distance(b, a)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            phase_aligned_distance(I2, np.eye(4))


class TestStatesAndFidelity:
    def test_self_fidelity(self):
        assert fidelity(np.eye(2)[0], np.eye(2)[0]) == 1.0

    def test_orthogonal_states(self):
        assert fidelity(np.eye(2)[0], np.eye(2)[1]) == 0.0

    def test_half_overlap(self):
        assert fidelity(np.eye(2)[0], np.ones(2) / np.sqrt(2)) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            fidelity(np.eye(2)[0], np.eye(4)[0])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            fidelity(2.0 * np.eye(2)[0], np.eye(2)[0])

    def test_minus_state_is_transverse_ground(self):
        n = 3
        sum_x = sum(PauliString(((i, "X"),)).matrix(n) for i in range(n))
        psi = minus_state(n)
        np.testing.assert_allclose(sum_x @ psi, -n * psi, atol=1e-12)
        assert normalization_defect(psi) < 1e-12
