import math
import warnings

import numpy as np
import pytest

from qxform.schedules import (
    Constant,
    CosineRamp,
    Harmonic,
    LinearRamp,
    NmrParams,
    Tabulated,
)


class TestClosedForms:
    def test_constant(self):
        s = Constant(3.5)
        assert s.value(0.0) == 3.5
        assert s.value(123.0) == 3.5
        assert s.derivative(4.0) == 0.0

    def test_harmonic(self):
        s = Harmonic(2.5)
        assert s.value(2.0) == 5.0
        assert s.derivative(17.0) == 2.5

    def test_linear_ramp_values(self):
        s = LinearRamp(4.0, 0.0, 8.0)
        assert s.value(0.0) == 4.0
        assert s.value(4.0) == 2.0
        assert s.derivative(1.0) == -0.5

    def test_linear_ramp_endpoints_exact(self):
        a, b = 0.1, 0.3
        s = LinearRamp(a, b, 0.7)
        assert s.value(0.0) == a
        assert s.value(0.7) == b

    def test_cosine_ramp_endpoints_and_flat_ends(self):
        s = CosineRamp(2.0, -1.0, 3.0)
        assert s.value(0.0) == 2.0
        assert s.value(3.0) == pytest.approx(-1.0, abs=1e-15)
        assert s.derivative(0.0) == pytest.approx(0.0, abs=1e-15)
        assert s.derivative(3.0) == pytest.approx(0.0, abs=1e-12)

    def test_vectorized_evaluation(self):
        s = CosineRamp(1.0, 0.0, 2.0)
        ts = np.linspace(0.0, 2.0, 11)
        np.testing.assert_allclose(s.value(ts), [s.value(float(t)) for t in ts])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            LinearRamp(1.0, 0.0, 0.0)


class TestDomains:
    @pytest.mark.parametrize(
        "sched", [LinearRamp(1.0, 0.0, 2.0), CosineRamp(1.0, 0.0, 2.0)]
    )
    def test_outside_domain_rejected(self, sched):
        with pytest.raises(ValueError, match="domain"):
            sched.value(2.5)
        with pytest.raises(ValueError, match="domain"):
            sched.derivative(-0.5)

    def test_unbounded_domains(self):
        assert Constant(1.0).value(1e6) == 1.0
        assert Harmonic(2.0).value(1e6) == 2e6


class TestDerivativeConsistency:
    def test_linear_forms_match_central_difference_exactly(self):
        h = 1e-4
        for s, t in [
            (Constant(2.0), 5.0),
            (Harmonic(1.3), 2.0),
            (LinearRamp(3.0, -1.0, 4.0), 1.7),
        ]:
            fd = (s.value(t + h) - s.value(t - h)) / (2 * h)
            assert abs(s.derivative(t) - fd) < 1e-9

    def test_cosine_ramp_central_difference_slope_two(self):
        # halving the step must shrink the discrepancy ~4x (second order)
        s = CosineRamp(0.0, 2.0, 1.0)
        t = 0.3
        exact = s.derivative(t)
        hs = np.array([2e-2, 1e-2, 5e-3, 2.5e-3])
        errs = []
        for h in hs:
            fd = (s.value(t + h) - s.value(t - h)) / (2 * h)
            errs.append(abs(fd - exact))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestTabulated:
    def _sine_table(self, spacing=1e-3, t_end=2.0):
        ts = np.arange(0.0, t_end + spacing / 2, spacing)
        return Tabulated(tuple(ts), tuple(np.sin(ts)))

    def test_values_exact_at_samples(self):
        s = self._sine_table(spacing=0.05)
        assert s.value(0.25) == pytest.approx(math.sin(0.25), abs=1e-12)

    def test_derivative_at_zero_matches_cosine_oracle(self):
        s = self._sine_table(spacing=1e-3)
        assert abs(s.derivative(0.0) - 1.0) < 1e-6

    def test_derivative_is_exact_for_cubics(self):
        # a not-a-knot spline reproduces a cubic, so its derivative is exact
        ts = np.linspace(0.0, 2.0, 7)
        s = Tabulated(tuple(ts), tuple(ts**3))
        for t in (0.0, 0.1, 0.77, 1.0, 1.95, 2.0):
            assert s.derivative(t) == pytest.approx(3.0 * t * t, rel=0, abs=1e-12)

    def test_interior_derivative_matches_cosine_oracle(self):
        s = self._sine_table(spacing=1e-3)
        for t in (0.5, 1.0, 1.9):
            assert abs(s.derivative(t) - math.cos(t)) < 1e-6

    def test_domain_end(self):
        s = self._sine_table(spacing=0.01, t_end=1.0)
        assert s.t_max == 1.0
        with pytest.raises(ValueError, match="domain"):
            s.value(1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Tabulated((0.0, 0.5, 0.5, 1.0), (0.0, 1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="4 samples"):
            Tabulated((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="start at t=0"):
            Tabulated((0.5, 1.0, 1.5, 2.0), (0.0, 1.0, 2.0, 3.0))


    @pytest.mark.parametrize(
        "times, values",
        [
            # overflowing slopes: once two overflow warnings, then scipy's own refusal
            ((0.0, 1.0, 2.0, 3.0), (0.0, 5e307, -5e307, 0.0)),
            # spacings 1e-213 apart: once warnings and NaN coefficients, so NaN at t=0
            (
                (0.0, 9.376127831219486e-214, 3.541366425911608e-17, 0.7992375781513843),
                (0.0, -7.706293537176723, -1.1896348083127052e23, -1.855690103409468e-168),
            ),
        ],
        ids=["slopes", "nan-coefficients"],
    )
    def test_spline_past_the_float_range_refused_without_a_warning(self, times, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the cubic spline through these samples has coefficients past"):
                Tabulated(times, values)


class TestNmrParams:
    def test_harmonic_constructor(self):
        p = NmrParams.harmonic(1.0, 1.5, 2.0)
        assert p.detuning == 0.5
        assert p.frame_phase.rate == 0.5
        assert p.is_harmonic_case()

    def test_positive_drive_strength_required(self):
        with pytest.raises(ValueError, match="positive"):
            NmrParams.harmonic(1.0, 1.5, 0.0)

    def test_detuning_requires_harmonic_case(self):
        p = NmrParams(
            qubit_splitting=LinearRamp(1.0, 0.0, 2.0),
            drive_strength=1.0,
            drive_phase=Harmonic(2.0),
        )
        with pytest.raises(ValueError, match="detuning"):
            _ = p.detuning
