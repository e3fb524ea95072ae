"""Real-valued time profiles with evaluable derivatives.

These carry every time-dependent coefficient in the package: transverse-field
ramps, drive phases, rotating-frame phases and qubit splittings.  All rates
are angular frequencies (hbar = 1) and time is the reciprocal unit.
"""

from __future__ import annotations

import math
import numpy as np


class Schedule:
    """A real function on [0, t_max] that can also report its derivative.

    ``value`` and ``derivative`` accept scalars or numpy arrays; times outside
    the domain are rejected.  Subclasses are immutable: their attributes are
    set once, by ``__init__``.
    """

    @property
    def t_max(self) -> float:
        return math.inf

    def value(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def _checked(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        hi = self.t_max
        tol = 1e-9 * (max(1.0, hi) if math.isfinite(hi) else 1.0)
        if np.any(t < -tol) or np.any(t > hi + tol):
            raise ValueError(
                f"time {np.min(t) if np.any(t < -tol) else np.max(t)} outside "
                f"schedule domain [0, {hi}]"
            )
        if math.isfinite(hi):
            t = np.clip(t, 0.0, hi)
        return t


class Constant(Schedule):
    def __init__(self, c: float):
        self.c = c

    def value(self, t):
        return np.full_like(self._checked(t), self.c)

    def derivative(self, t):
        return np.zeros_like(self._checked(t))


class _Ramp(Schedule):
    """A ramp from ``start`` to ``stop`` over [0, duration]."""

    def __init__(self, start: float, stop: float, duration: float):
        if not duration > 0:  # NaN too
            raise ValueError(f"ramp duration must be positive, got {duration}")
        self.start, self.stop, self.duration = start, stop, duration

    @property
    def t_max(self) -> float:
        return self.duration


class LinearRamp(_Ramp):
    """Straight-line ramp from ``start`` to ``stop`` over [0, duration]."""

    def value(self, t):
        u = self._checked(t) / self.duration
        # endpoints reproduce start/stop exactly
        return self.start * (1.0 - u) + self.stop * u

    def derivative(self, t):
        self._checked(t)
        return np.full_like(np.asarray(t, dtype=float), (self.stop - self.start) / self.duration)


class Harmonic(Schedule):
    """Uniformly advancing phase: value is rate * t."""

    def __init__(self, rate: float):
        self.rate = rate

    def value(self, t):
        return self.rate * self._checked(t)

    def derivative(self, t):
        return np.full_like(self._checked(t), self.rate)


class CosineRamp(_Ramp):
    """Half-cosine ramp from ``start`` to ``stop`` with flat ends."""

    def value(self, t):
        u = self._checked(t) / self.duration
        return self.start + (self.stop - self.start) * 0.5 * (1.0 - np.cos(np.pi * u))

    def derivative(self, t):
        u = self._checked(t) / self.duration
        return (self.stop - self.start) * (np.pi / (2.0 * self.duration)) * np.sin(np.pi * u)


class Tabulated(Schedule):
    """Cubic (not-a-knot) spline through strictly increasing samples starting
    at t=0.  The derivative is the exact derivative of the spline.  Samples
    whose spline coefficients leave the float range are refused.
    """

    def __init__(self, times: tuple, values: tuple):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be one-dimensional and equal length")
        if t.size < 4:
            raise ValueError(f"cubic interpolation needs at least 4 samples, got {t.size}")
        if t[0] != 0.0:
            raise ValueError(f"tabulated schedule must start at t=0, got {t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.times = tuple(float(x) for x in t)
        self.values = tuple(float(x) for x in v)
        from scipy.interpolate import CubicSpline  # imported on first use: scipy is slow to load

        try:
            with np.errstate(over="ignore", invalid="ignore"):  # named below
                spline = CubicSpline(t, v)
        except ValueError:  # scipy's own refusal of slopes past the float range
            spline = None
        if spline is None or not np.isfinite(spline.c).all():
            raise ValueError("the cubic spline through these samples has coefficients past the float range")
        self._spline = spline

    @property
    def t_max(self) -> float:
        return self.times[-1]

    def value(self, t):
        return self._spline(self._checked(t))

    def derivative(self, t):
        return self._spline(self._checked(t), 1)


class NmrParams:
    """Parameters of the driven single-qubit Hamiltonian and its target frame.

    ``qubit_splitting`` multiplies Z/2, ``drive_strength`` is the constant
    transverse amplitude, ``drive_phase`` steers the X/Y drive direction and
    ``frame_phase`` (optional) is the drive direction of the rotated frame.
    """

    def __init__(
        self,
        qubit_splitting: Schedule,
        drive_strength: float,
        drive_phase: Schedule,
        frame_phase: Schedule | None = None,
    ):
        if not drive_strength > 0:  # NaN too
            raise ValueError(f"drive strength must be positive, got {drive_strength}")
        self.qubit_splitting, self.drive_strength = qubit_splitting, drive_strength
        self.drive_phase, self.frame_phase = drive_phase, frame_phase

    @classmethod
    def harmonic(
        cls, qubit_splitting: float, drive_rate: float, drive_strength: float
    ) -> "NmrParams":
        """Uniformly rotating drive with constant splitting.

        The frame phase defaults to the detuned rotation (drive_rate minus
        splitting), the choice that empties the Z coefficient of the rotated
        frame.
        """
        return cls(
            qubit_splitting=Constant(qubit_splitting),
            drive_strength=drive_strength,
            drive_phase=Harmonic(drive_rate),
            frame_phase=Harmonic(drive_rate - qubit_splitting),
        )

    def is_harmonic_case(self) -> bool:
        return isinstance(self.drive_phase, Harmonic) and isinstance(
            self.qubit_splitting, Constant
        )

    @property
    def detuning(self) -> float:
        """Drive rate minus splitting; defined for the harmonic special case."""
        if not self.is_harmonic_case():
            raise ValueError(
                "detuning requires a uniformly rotating drive phase and constant splitting"
            )
        return self.drive_phase.rate - self.qubit_splitting.c
