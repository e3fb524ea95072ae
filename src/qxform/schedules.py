"""Real-valued time profiles with evaluable derivatives.

These carry every time-dependent coefficient in the package: transverse-field
ramps, drive phases, rotating-frame phases and qubit splittings.  All rates
are angular frequencies (hbar = 1) and time is the reciprocal unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Schedule:
    """A real function on [0, t_max] that can also report its derivative.

    ``value`` and ``derivative`` accept scalars or numpy arrays; times outside
    the domain are rejected.  Subclasses are immutable.
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


@dataclass(frozen=True)
class Constant(Schedule):
    c: float

    def value(self, t):
        return np.full_like(self._checked(t), self.c)

    def derivative(self, t):
        return np.zeros_like(self._checked(t))


@dataclass(frozen=True)
class _Ramp(Schedule):
    """A ramp from ``start`` to ``stop`` over [0, duration]."""

    start: float
    stop: float
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError(f"ramp duration must be positive, got {self.duration}")

    @property
    def t_max(self) -> float:
        return self.duration


@dataclass(frozen=True)
class LinearRamp(_Ramp):
    """Straight-line ramp from ``start`` to ``stop`` over [0, duration]."""

    def value(self, t):
        u = self._checked(t) / self.duration
        # endpoints reproduce start/stop exactly
        return self.start * (1.0 - u) + self.stop * u

    def derivative(self, t):
        self._checked(t)
        return np.full_like(np.asarray(t, dtype=float), (self.stop - self.start) / self.duration)


@dataclass(frozen=True)
class Harmonic(Schedule):
    """Uniformly advancing phase: value is rate * t."""

    rate: float

    def value(self, t):
        return self.rate * self._checked(t)

    def derivative(self, t):
        return np.full_like(self._checked(t), self.rate)


@dataclass(frozen=True)
class CosineRamp(_Ramp):
    """Half-cosine ramp from ``start`` to ``stop`` with flat ends."""

    def value(self, t):
        u = self._checked(t) / self.duration
        return self.start + (self.stop - self.start) * 0.5 * (1.0 - np.cos(np.pi * u))

    def derivative(self, t):
        u = self._checked(t) / self.duration
        return (self.stop - self.start) * (np.pi / (2.0 * self.duration)) * np.sin(np.pi * u)


@dataclass(frozen=True, eq=False)
class Tabulated(Schedule):
    """Cubic (not-a-knot) spline through strictly increasing samples starting
    at t=0.  The derivative is the exact derivative of the spline.
    """

    times: tuple
    values: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be one-dimensional and equal length")
        if t.size < 4:
            raise ValueError(f"cubic interpolation needs at least 4 samples, got {t.size}")
        if t[0] != 0.0:
            raise ValueError(f"tabulated schedule must start at t=0, got {t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", tuple(float(x) for x in t))
        object.__setattr__(self, "values", tuple(float(x) for x in v))
        from scipy.interpolate import CubicSpline  # imported on first use: scipy is slow to load

        object.__setattr__(self, "_spline", CubicSpline(t, v))

    @property
    def t_max(self) -> float:
        return self.times[-1]

    def value(self, t):
        return self._spline(self._checked(t))

    def derivative(self, t):
        return self._spline(self._checked(t), 1)


@dataclass(frozen=True)
class NmrParams:
    """Parameters of the driven single-qubit Hamiltonian and its target frame.

    ``qubit_splitting`` multiplies Z/2, ``drive_strength`` is the constant
    transverse amplitude, ``drive_phase`` steers the X/Y drive direction and
    ``frame_phase`` (optional) is the drive direction of the rotated frame.
    """

    qubit_splitting: Schedule
    drive_strength: float
    drive_phase: Schedule
    frame_phase: Schedule | None = None

    def __post_init__(self):
        if self.drive_strength <= 0:
            raise ValueError(f"drive strength must be positive, got {self.drive_strength}")

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
