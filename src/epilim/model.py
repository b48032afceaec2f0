"""What defines a model: its kind, contact rate, period laws and initial
masses (ModelSpec), and its transitions. ``_STAGES`` says for each kind
which agent pools exist, which ModelSpec law their periods come from and
which transitions their members pass through; ``transition_deltas`` says
what each transition does to the counts. The simulator and the limit
solvers read the model from here alone.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .distributions import DurationDist, JointDurationDist, equilibrium_dist

__all__ = [
    "KINDS",
    "INFECT",
    "BECOME_INFECTIOUS",
    "RECOVER",
    "BECOME_SUSCEPTIBLE",
    "TabulatedRate",
    "ModelSpec",
    "transition_deltas",
]

KINDS = ("SIS", "SIR", "SIRS", "SEIR")

INFECT = 0
BECOME_INFECTIOUS = 1
RECOVER = 2
BECOME_SUSCEPTIBLE = 3

# Per kind, every agent pool in id order: (pool, ModelSpec law of its periods,
# transition codes its members pass through in order). Initial pools are
# named by their mass, as in fclt._LAW; "new" holds the post-time-zero
# infections, whose codes follow their INFECT event. A two-code pool draws
# (first period, second period) pairs from a joint law.
_STAGES = {
    "SIS": (("i0", "f0", (BECOME_SUSCEPTIBLE,)), ("new", "f", (BECOME_SUSCEPTIBLE,))),
    "SIR": (("i0", "f0", (RECOVER,)), ("new", "f", (RECOVER,))),
    "SEIR": (("i0", "f0", (RECOVER,)), ("e0", "h0", (BECOME_INFECTIOUS, RECOVER)),
             ("new", "h", (BECOME_INFECTIOUS, RECOVER))),
    "SIRS": (("i0", "h0", (RECOVER, BECOME_SUSCEPTIBLE)), ("r0", "f0", (BECOME_SUSCEPTIBLE,)),
             ("new", "h", (RECOVER, BECOME_SUSCEPTIBLE))),
}


def transition_deltas(kind: str, code: int):
    """(dS, dE, dI, dR) applied by an event of the given code."""
    if code == INFECT:
        return (-1, 1, 0, 0) if kind == "SEIR" else (-1, 0, 1, 0)
    if code == BECOME_INFECTIOUS:
        return (0, -1, 1, 0)
    if code == RECOVER:
        return (0, 0, -1, 1)
    if code == BECOME_SUSCEPTIBLE:
        return (1, 0, -1, 0) if kind == "SIS" else (1, 0, 0, -1)
    raise ValueError(f"unknown transition code {code}")


@dataclass(frozen=True)
class TabulatedRate:
    """Piecewise-constant contact rate: values[j] applies on [times[j], times[j+1])."""

    times: tuple
    values: tuple

    def __post_init__(self):
        ts = tuple(float(v) for v in self.times)
        vs = tuple(float(v) for v in self.values)
        if len(ts) != len(vs) or not ts:
            raise ValueError("times and values must be equal-length and nonempty")
        if ts[0] != 0.0 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("breakpoints must start at 0 and increase strictly")
        if any(v < 0 for v in vs):
            raise ValueError("rate values must be nonnegative")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)

    def at(self, t: float) -> float:
        return self.values[max(bisect.bisect_right(self.times, t) - 1, 0)]

    def max_value(self) -> float:
        return max(self.values)

    def on_grid(self, grid) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.times, grid, side="right") - 1, 0, None)
        return np.asarray(self.values)[idx]

    def integral(self, a, b):
        """int_a^b of the rate (0 where b <= a), exact across breakpoints;
        elementwise over arrays of bounds."""
        ts, vs = self.times, self.values
        total = 0.0
        for j, v in enumerate(vs):
            lo = np.maximum(a, ts[j])
            hi = np.minimum(b, ts[j + 1]) if j + 1 < len(ts) else b
            # the per-piece sum, not Lambda(b) - Lambda(a), which rounds differently
            total = total + np.where(hi > lo, v * (hi - lo), 0.0)
        return total if np.ndim(total) else float(total)


@dataclass
class ModelSpec:
    """Model kind, contact rate, period laws, and initial fractions.

    Period laws by kind:
      SIS/SIR:  f (infectious period), f0 (residual law of the initially
                infectious; defaults to the stationary excess of f).
      SEIR:     h = joint law of (exposure, infectious); h0 = joint residual
                law for the initially exposed; f0 = residual infectious law
                for the initially infectious.
      SIRS:     h = joint law of (infectious, immune); h0 = joint residual
                law for the initially infectious; f0 = residual immunity law
                for the initially immune.
    The h0/f0 defaults take the stationary excess of the first-period law
    (paired with the unchanged second law), which requires h independent.
    """

    kind: str
    lam: object
    i0: float
    e0: float = 0.0
    r0: float = 0.0
    f: DurationDist | None = None
    f0: DurationDist | None = None
    h: JointDurationDist | None = None
    h0: JointDurationDist | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.lam, TabulatedRate):
            self.lam = float(self.lam)
            if self.lam < 0:
                raise ValueError("lam must be nonnegative")
        for name in ("i0", "e0", "r0"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
            setattr(self, name, v)
        if self.e0 > 0 and self.kind != "SEIR":
            raise ValueError("e0 only applies to SEIR")
        if self.r0 > 0 and self.kind != "SIRS":
            raise ValueError("r0 only applies to SIRS")
        if self.i0 + self.e0 + self.r0 >= 1.0:
            raise ValueError("initial non-susceptible fractions must sum below 1")

        if self.kind in ("SIS", "SIR"):
            if self.f is None:
                raise ValueError(f"{self.kind} needs the infectious-period law f")
            if self.h is not None or self.h0 is not None:
                raise ValueError(f"{self.kind} takes f/f0, not joint laws")
            if self.f0 is None:
                self.f0 = equilibrium_dist(self.f)
        else:
            if self.h is None:
                raise ValueError(f"{self.kind} needs the joint period law h")
            if self.f is not None:
                raise ValueError(f"{self.kind} takes h/h0/f0, not f")
            # each initial pool with mass and no law of its own gets the default
            for pool, law, _ in _STAGES[self.kind]:
                if pool == "new" or getattr(self, pool) <= 0 or getattr(self, law) is not None:
                    continue
                if not self.h.independent:
                    raise ValueError("no default residual law for a bucketed joint; "
                                     "pass the initial laws explicitly")
                if law == "h0":
                    self.h0 = JointDurationDist(g=equilibrium_dist(self.h.g), f=self.h.f)
                else:
                    self.f0 = equilibrium_dist(self.h.f)

    def residual_joint(self) -> JointDurationDist | None:
        """The joint residual law h0 of the two-stage initial pool, or h where
        h0 is unset, which is only where that pool's mass is zero."""
        return self.h0 if self.h0 is not None else self.h

    # -- contact-rate helpers --

    def lam_constant(self):
        """The constant rate, or None when tabulated."""
        return None if isinstance(self.lam, TabulatedRate) else self.lam

    def lam_max(self) -> float:
        if isinstance(self.lam, TabulatedRate):
            return self.lam.max_value()
        return self.lam

    def lam_on_grid(self, grid) -> np.ndarray:
        if isinstance(self.lam, TabulatedRate):
            return self.lam.on_grid(grid)
        return np.full(len(grid), self.lam)

    def lam_integral(self, a, b):
        """int_a^b of the rate (0 where b <= a), elementwise over arrays."""
        if isinstance(self.lam, TabulatedRate):
            return self.lam.integral(a, b)
        return self.lam * np.maximum(np.subtract(b, a), 0.0)
