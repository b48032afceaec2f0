"""Period-duration laws, joint laws, and sojourn-kernel tabulation.

Every compartment sojourn in the models is driven by a nonnegative duration
law. This module provides the supported parametric families, the
stationary-excess (residual lifetime) transform, joint laws for consecutive
periods, and the tabulated kernels

    Phi(t) = P(xi + eta <= t),    Psi(t) = P(xi <= t < xi + eta),

on a uniform grid, with Psi = G - Phi enforced exactly by construction.

Each family gives int_0^t sf and int_0^t s sf(s) ds in closed form; its
second moment and its stationary-excess law are exact functions of them.
The stationary-excess law is sampled as U X*, with U uniform on (0, 1) and
X* drawn from the base law's length-biased law x dF(x) / m, which each
family that can be the base gives in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "DurationDist",
    "Exponential",
    "Deterministic",
    "Uniform",
    "Gamma",
    "LogNormal",
    "Weibull",
    "PiecewiseEmpirical",
    "JointDurationDist",
    "KernelTable",
    "equilibrium_dist",
    "tabulate_kernels",
    "uniform_grid",
    "grid_step",
    "dist_from_record",
    "dist_to_record",
]


def _grid_steps(horizon: float, dt: float) -> int:
    """Number of steps of ``uniform_grid(horizon, dt)``, without building it."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < dt:
        raise ValueError("horizon must be at least dt")
    return int(round(horizon / dt))


def uniform_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2dt, ..., horizon (horizon rounded to a whole step)."""
    k = _grid_steps(horizon, dt)
    return np.linspace(0.0, k * dt, k + 1)


def grid_step(grid: np.ndarray) -> float:
    """Step of a uniform grid from 0; rejects grids that are non-uniform, too
    short or start elsewhere (every solver reads node k as time k dt)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two nodes")
    if grid[0] != 0.0:
        raise ValueError(f"grid must start at 0, not {grid[0]:g}")
    steps = np.diff(grid)
    dt = steps[0]
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(dt, 1.0)):
        raise ValueError("grid must be uniform with positive step")
    return float(dt)


def _asarr(t):
    return np.asarray(t, dtype=float)


_FLOAT_MAX = np.finfo(float).max


def _t_sf(t, sf):
    """t * sf(t) for t >= 0, with t capped at the largest float: at t = inf,
    where sf is 0, that gives the limit 0 and not inf * 0."""
    return np.minimum(t, _FLOAT_MAX) * sf


def _sqrt_between(a, b, v):
    """sqrt(a^2 + v (b^2 - a^2)), the inverse CDF at v of the density
    proportional to x on [a, b]: exactly a where b = a, and never past b."""
    return np.minimum(np.sqrt(a * a + v * ((b - a) * (b + a))), b)


def _half_sq(t, part2, sf):
    """int_0^t s sf(s) ds = (E[X^2; X <= t] + t^2 sf(t)) / 2, with t^2 sf as t * (t * sf)."""
    return 0.5 * (part2 + _t_sf(t, _t_sf(t, sf)))


class DurationDist:
    """Base class for nonnegative duration laws.

    Subclasses provide cdf, mean, atoms, sample, int_sf (int_0^t sf) and
    _int_t_sf (int_0^t s sf(s) ds), the last two in closed form; second_moment
    is derived from _int_t_sf. A law that can be the base of an
    _EquilibriumDist also provides _length_biased, draws from its
    length-biased law, and _third_moment, E[X^3] in closed form, which the
    stationary-excess law's second moment reads. Survival is always 1 - cdf,
    so the two never drift.
    """

    family = "abstract"

    def cdf(self, t):
        raise NotImplementedError

    def sf(self, t):
        return 1.0 - self.cdf(t)

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        """E[X^2] = 2 int_0^inf s sf(s) ds."""
        return float(2.0 * self._int_t_sf(np.inf))

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """Discontinuities of the CDF as (location, jump) pairs."""
        return ()

    def int_sf(self, t):
        """Integrated survival: int_0^t sf(s) ds, elementwise, 0 for t<=0."""
        raise NotImplementedError

    def _int_t_sf(self, t):
        """int_0^t s sf(s) ds = E[min(X, t)^2] / 2, elementwise, 0 for t<=0."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def _length_biased(self, rng: np.random.Generator, size=None):
        """Draws from the length-biased law x dF(x) / mean."""
        raise NotImplementedError(f"{self!r} has no length-biased sampler")

    def _third_moment(self) -> float:
        """E[X^3]."""
        raise NotImplementedError(f"{self!r} has no third moment")

    def params(self) -> list[float]:
        raise NotImplementedError

    def cdf_continuous(self, t):
        """CDF with all atom jumps removed (the continuous part)."""
        t = _asarr(t)
        out = self.cdf(t)
        for loc, jump in self.atoms():
            out = out - jump * (t >= loc)
        return out

    def __repr__(self):
        ps = ", ".join(f"{p:g}" for p in self.params())
        return f"{self.family}({ps})"

    def __eq__(self, other):
        return (
            isinstance(other, DurationDist)
            and self.family == other.family
            and self.params() == other.params()
        )

    def __hash__(self):
        return hash((self.family, tuple(self.params())))


class Exponential(DurationDist):
    family = "Exponential"

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)

    def cdf(self, t):
        t = _asarr(t)
        # where -rate * t overflows to -inf, expm1 gives the exact limit -1
        with np.errstate(over="ignore"):
            return -np.expm1(-self.rate * np.clip(t, 0.0, None))

    def mean(self):
        return 1.0 / self.rate

    def int_sf(self, t):
        return self.cdf(t) / self.rate

    def _int_t_sf(self, t):
        return Gamma(1.0, self.rate)._int_t_sf(t)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def params(self):
        return [self.rate]


class Deterministic(DurationDist):
    family = "Deterministic"

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("value must be nonnegative")
        self.value = float(value)

    def cdf(self, t):
        return (_asarr(t) >= self.value).astype(float)

    def mean(self):
        return self.value

    def atoms(self):
        return ((self.value, 1.0),)

    def int_sf(self, t):
        return np.clip(_asarr(t), 0.0, self.value)

    def _int_t_sf(self, t):
        return 0.5 * np.clip(_asarr(t), 0.0, self.value) ** 2

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def params(self):
        return [self.value]


class Uniform(DurationDist):
    family = "Uniform"

    def __init__(self, lo: float, hi: float):
        if not (0 <= lo < hi):
            raise ValueError("need 0 <= lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)

    def cdf(self, t):
        # t clipped to the support first: (t - lo) / w cannot overflow
        return (np.clip(_asarr(t), self.lo, self.hi) - self.lo) / (self.hi - self.lo)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def int_sf(self, t):
        # mean - (hi - t)^2 / (2w) on [lo, inf), exactly the mean from hi on;
        # below lo that exceeds t, so the minimum reads t there
        t = np.clip(_asarr(t), 0.0, None)
        w = self.hi - self.lo
        tail = (self.hi - np.clip(t, self.lo, self.hi)) ** 2 / (2.0 * w)
        return np.minimum(t, self.mean() - tail)

    def _int_t_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        x = np.clip(t, self.lo, self.hi)
        return _half_sq(t, (x**3 - self.lo**3) / (3.0 * (self.hi - self.lo)), self.sf(t))

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size)

    def _length_biased(self, rng, size=None):
        # density x / ((hi^2 - lo^2) / 2) on [lo, hi], inverted in closed form
        return _sqrt_between(self.lo, self.hi, rng.uniform(size=size))

    def _third_moment(self):
        # (hi^4 - lo^4) / (4 (hi - lo)), with the difference divided out
        return (self.lo + self.hi) * (self.lo**2 + self.hi**2) / 4.0

    def params(self):
        return [self.lo, self.hi]


class Gamma(DurationDist):
    family = "Gamma"

    def __init__(self, shape: float, rate: float):
        if shape <= 0 or rate <= 0:
            raise ValueError("shape and rate must be positive")
        self.shape = float(shape)
        self.rate = float(rate)

    def _x(self, t):
        # t / (1 / rate), not t * rate: the bits scipy.stats.gamma feeds these
        # ufuncs; where it overflows to inf, each use reads its exact limit
        with np.errstate(over="ignore"):
            return t / (1.0 / self.rate)

    def cdf(self, t):
        return special.gammainc(self.shape, self._x(np.clip(_asarr(t), 0.0, None)))

    def mean(self):
        return self.shape / self.rate

    def int_sf(self, t):
        # int_0^t sf = t*sf(t) + int_0^t s f(s) ds, and the partial mean of a
        # Gamma(a, r) is (a/r) * CDF of Gamma(a+1, r).
        t = np.clip(_asarr(t), 0.0, None)
        x = self._x(t)
        part = self.mean() * special.gammainc(self.shape + 1.0, x)
        return _t_sf(t, special.gammaincc(self.shape, x)) + part

    def _int_t_sf(self, t):
        # the partial second moment is a(a+1)/r^2 * CDF of Gamma(a+2, r)
        t = np.clip(_asarr(t), 0.0, None)
        x = self._x(t)
        m2 = self.shape * (self.shape + 1.0) / self.rate**2
        return _half_sq(t, m2 * special.gammainc(self.shape + 2.0, x),
                        special.gammaincc(self.shape, x))

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    def _length_biased(self, rng, size=None):
        return rng.gamma(self.shape + 1.0, 1.0 / self.rate, size)

    def _third_moment(self):
        return self.shape * (self.shape + 1.0) * (self.shape + 2.0) / self.rate**3

    def params(self):
        return [self.shape, self.rate]


class LogNormal(DurationDist):
    family = "LogNormal"

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def _z(self, t):
        # log(t / exp(mu)) / sigma: the bits scipy.stats.lognorm feeds ndtr;
        # t = 0 gives -inf and an overflow inf, each use's exact limit
        with np.errstate(divide="ignore", over="ignore"):
            return np.log(t / math.exp(self.mu)) / self.sigma

    def cdf(self, t):
        return special.ndtr(self._z(np.clip(_asarr(t), 0.0, None)))

    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def int_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        sf = special.ndtr(-self._z(t))
        with np.errstate(divide="ignore"):
            z = (np.log(t) - self.mu - self.sigma**2) / self.sigma
        part = self.mean() * special.ndtr(np.where(t > 0, z, -np.inf))
        return _t_sf(t, sf) + part

    def _int_t_sf(self, t):
        # the partial second moment is e^(2mu + 2sigma^2) Phi((ln t - mu - 2sigma^2) / sigma)
        t = np.clip(_asarr(t), 0.0, None)
        with np.errstate(divide="ignore"):
            z = (np.log(t) - self.mu - 2.0 * self.sigma**2) / self.sigma
        m2 = math.exp(2.0 * self.mu + 2.0 * self.sigma**2)
        return _half_sq(t, m2 * special.ndtr(z), self.sf(t))

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size)

    def _length_biased(self, rng, size=None):
        return rng.lognormal(self.mu + self.sigma**2, self.sigma, size)

    def _third_moment(self):
        return math.exp(3.0 * self.mu + 4.5 * self.sigma**2)

    def params(self):
        return [self.mu, self.sigma]


class Weibull(DurationDist):
    family = "Weibull"

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)

    def _u(self, t):
        # (t / scale)^shape; where it overflows to inf, each use reads its exact limit
        with np.errstate(over="ignore"):
            return (t / self.scale) ** self.shape

    def cdf(self, t):
        return -np.expm1(-self._u(np.clip(_asarr(t), 0.0, None)))

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def int_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        u = self._u(t)
        # partial mean via the regularized lower incomplete gamma function
        part = self.mean() * special.gammainc(1.0 + 1.0 / self.shape, u)
        return _t_sf(t, np.exp(-u)) + part

    def _int_t_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        u = self._u(t)
        m2 = self.scale**2 * math.gamma(1.0 + 2.0 / self.shape)
        return _half_sq(t, m2 * special.gammainc(1.0 + 2.0 / self.shape, u), np.exp(-u))

    def sample(self, rng, size=None):
        return self.scale * rng.weibull(self.shape, size)

    def _length_biased(self, rng, size=None):
        # X = scale E^(1/shape) with E ~ Exp(1); weighing by X weighs E by
        # E^(1/shape), which makes E a Gamma(1 + 1/shape, 1)
        return self.scale * rng.standard_gamma(1.0 + 1.0 / self.shape, size) ** (1.0 / self.shape)

    def _third_moment(self):
        return self.scale**3 * math.gamma(1.0 + 3.0 / self.shape)

    def params(self):
        return [self.shape, self.scale]


class PiecewiseEmpirical(DurationDist):
    """CDF given by knots (t_i, p_i), linear in between, p_last = 1.

    Repeated t with increasing p encodes an atom; p_0 > 0 encodes an atom
    at the first knot.
    """

    family = "PiecewiseEmpirical"

    def __init__(self, ts, ps):
        ts = np.asarray(ts, dtype=float)
        ps = np.asarray(ps, dtype=float)
        if ts.ndim != 1 or ts.shape != ps.shape or ts.size < 1:
            raise ValueError("knot arrays must be equal-length 1-d")
        if ts[0] < 0 or np.any(np.diff(ts) < 0):
            raise ValueError("knot times must be nonnegative and nondecreasing")
        if np.any(np.diff(ps) < 0) or ps[0] < 0 or abs(ps[-1] - 1.0) > 1e-12:
            raise ValueError("knot probabilities must be nondecreasing with last value 1")
        self.ts = ts
        self.ps = ps

    def cdf(self, t):
        t = _asarr(t)
        i = np.searchsorted(self.ts, t, side="right")
        i = np.clip(i, 1, len(self.ts) - 1)
        t0, t1 = self.ts[i - 1], self.ts[i]
        p0, p1 = self.ps[i - 1], self.ps[i]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(t1 > t0, (t - t0) / np.where(t1 > t0, t1 - t0, 1.0), 1.0)
        val = p0 + (p1 - p0) * np.clip(frac, 0.0, 1.0)
        val = np.where(t < self.ts[0], 0.0, val)
        val = np.where(t >= self.ts[-1], 1.0, val)
        return val

    def atoms(self):
        # a jump of p at the first knot or at a repeated knot
        jump = np.diff(self.ps, prepend=0.0)
        at = (jump > 0) & (np.diff(self.ts, prepend=self.ts[0]) == 0)
        return tuple((float(t), float(j)) for t, j in zip(self.ts[at], jump[at]))

    def _int_pow_sf(self, t, p):
        """int_0^t s^p sf(s) ds for p = 0 or 1, exact: sf is 1 up to the
        first knot and linear between knots, so each piece is a closed form."""
        knots = np.concatenate([[0.0, self.ts[0]], self.ts])
        sfk = np.concatenate([[1.0, 1.0], 1.0 - self.ps])

        def piece(a, b, sa, sb):  # int_a^b s^p sf, sf linear from sa to sb
            if p == 0:
                return (b - a) * 0.5 * (sa + sb)
            return (b - a) * (sa * (2.0 * a + b) + sb * (a + 2.0 * b)) / 6.0

        cum = np.concatenate([[0.0], np.cumsum(piece(knots[:-1], knots[1:], sfk[:-1], sfk[1:]))])
        t = np.clip(_asarr(t), 0.0, None)
        i = np.clip(np.searchsorted(knots, t, side="right"), 1, len(knots) - 1)
        a, b, sa, sb = knots[i - 1], knots[i], sfk[i - 1], sfk[i]
        x = np.minimum(t, b)
        # a piece of zero width (an atom) is reached only at its end, with x = a
        sx = sa + (sb - sa) * (x - a) / np.where(b > a, b - a, 1.0)
        return cum[i - 1] + piece(a, x, sa, sx)

    def mean(self):
        return float(self._int_pow_sf(np.inf, 0))

    def int_sf(self, t):
        return self._int_pow_sf(t, 0)

    def _int_t_sf(self, t):
        return self._int_pow_sf(t, 1)

    def sample(self, rng, size=None):
        u = rng.uniform(size=size)
        return np.interp(u, self.ps, self.ts)

    def _length_biased(self, rng, size=None):
        # pieces between consecutive knots, the first knot's atom as a piece
        # of zero width; a piece [a, b] of mass p has length-biased weight
        # p (a + b) / 2, so an atom at 0 is never picked, and inside a piece
        # the law is the linear piece's (or the atom's) own
        knots = np.concatenate([self.ts[:1], self.ts])
        a, b = knots[:-1], knots[1:]
        cum = np.cumsum(np.diff(self.ps, prepend=0.0) * 0.5 * (a + b))
        i = np.searchsorted(cum, rng.uniform(size=size) * cum[-1], side="right")
        return _sqrt_between(a[i], b[i], rng.uniform(size=size))

    def _third_moment(self):
        # the same pieces: [a, b] of mass p holds p (b^4 - a^4) / (4 (b - a)) =
        # p (a + b)(a^2 + b^2) / 4, which is p a^3 for an atom (a == b)
        a = np.concatenate([self.ts[:1], self.ts[:-1]])
        b = self.ts
        return float(np.sum(np.diff(self.ps, prepend=0.0) * (a + b) * (a * a + b * b)) / 4.0)

    def params(self):
        return [float(v) for pair in zip(self.ts, self.ps) for v in pair]


class _EquilibriumDist(DurationDist):
    """Stationary-excess law F_e(t) = int_0^t sf / m of a base law with mean m.

    Absolutely continuous, exact and stateless: cdf, mean and int_sf are closed
    forms in the base law's int_sf, _int_t_sf and second moment. F_e is the
    law of U X*, with U uniform on (0, 1) and X* from the base law's
    length-biased law x dF(x) / m, and sample draws it so: U first, then X*
    by the base law's _length_biased. So E[(U X*)^2] = E[X^3] / (3 m) is
    second_moment, from the base law's _third_moment; _int_t_sf, which would
    need the base law's partial third moments, raises.
    """

    family = "EquilibriumOf"

    def __init__(self, base: DurationDist):  # equilibrium_dist checks the mean
        self.base = base
        self._mean_base = base.mean()

    def cdf(self, t):
        return np.clip(self.base.int_sf(t) / self._mean_base, 0.0, 1.0)

    def mean(self):
        return self.base.second_moment() / (2.0 * self._mean_base)

    def second_moment(self):
        return self.base._third_moment() / (3.0 * self._mean_base)

    def _int_t_sf(self, t):
        raise NotImplementedError("partial third moments of the base law are not tracked")

    def int_sf(self, t):
        # by parts: int_0^t (1 - F_e) = (int_0^t s sf(s) ds + t int_t^inf sf) / m;
        # the tail is exactly 0 where sf is, not m - int_sf's rounding
        t = np.clip(_asarr(t), 0.0, None)
        tail = np.where(self.base.sf(t) > 0, self._mean_base - self.base.int_sf(t), 0.0)
        return (self.base._int_t_sf(t) + _t_sf(t, tail)) / self._mean_base

    def sample(self, rng, size=None):
        x = rng.uniform(size=size) * self.base._length_biased(rng, size)
        return float(x) if size is None else x

    def params(self):
        return self.base.params()

    def __repr__(self):
        return f"EquilibriumOf({self.base!r})"

    def __eq__(self, other):
        return isinstance(other, _EquilibriumDist) and self.base == other.base

    def __hash__(self):
        return hash(("EquilibriumOf", self.base))


def equilibrium_dist(d: DurationDist) -> DurationDist:
    """Stationary-excess (residual lifetime) law of d: an Exponential law is
    its own, a point mass at eta gives Uniform(0, eta), and any other law is
    wrapped in the exact _EquilibriumDist, which samples it as U times a draw
    of d's length-biased law (d needs _length_biased)."""
    m = d.mean()
    if not np.isfinite(m) or m <= 0:
        raise ValueError(f"equilibrium law undefined: mean(d) = {m}")
    if isinstance(d, Exponential):
        return Exponential(d.rate)
    if isinstance(d, Deterministic):
        return Uniform(0.0, d.value)
    return _EquilibriumDist(d)


_FAMILIES = {
    "Exponential": (Exponential, 1),
    "Deterministic": (Deterministic, 1),
    "Uniform": (Uniform, 2),
    "Gamma": (Gamma, 2),
    "LogNormal": (LogNormal, 2),
    "Weibull": (Weibull, 2),
}


def dist_from_record(rec: dict) -> DurationDist:
    """Build a DurationDist from a {family, params} config record."""
    if not isinstance(rec, dict) or set(rec) != {"family", "params"}:
        raise ValueError(f"distribution record must have exactly keys family/params, got {rec!r}")
    fam, params = rec["family"], rec["params"]
    if fam == "PiecewiseEmpirical":
        if len(params) < 2 or len(params) % 2:
            raise ValueError("PiecewiseEmpirical params must be flattened (t, p) pairs")
        return PiecewiseEmpirical(params[0::2], params[1::2])
    if fam not in _FAMILIES:
        raise ValueError(f"unknown distribution family {fam!r}")
    cls, k = _FAMILIES[fam]
    if len(params) != k:
        raise ValueError(f"{fam} takes {k} params, got {len(params)}")
    return cls(*params)


def dist_to_record(d: DurationDist) -> dict:
    return {"family": d.family, "params": d.params()}


@dataclass(frozen=True)
class JointDurationDist:
    """Joint law of two consecutive periods (xi, eta).

    Either independent (marginal g and f) or with a bucketed conditional:
    eta | xi=u follows the DurationDist of the bucket center nearest to u.
    """

    g: DurationDist
    f: DurationDist | None = None
    bucket_centers: tuple[float, ...] | None = None
    bucket_dists: tuple[DurationDist, ...] | None = None

    def __post_init__(self):
        if self.f is None:
            if not self.bucket_centers or not self.bucket_dists:
                raise ValueError("need either an independent f or bucketed conditionals")
            if len(self.bucket_centers) != len(self.bucket_dists):
                raise ValueError("bucket centers and dists must pair up")
            if list(self.bucket_centers) != sorted(self.bucket_centers):
                raise ValueError("bucket centers must be sorted")
        elif self.bucket_centers or self.bucket_dists:
            raise ValueError("independent f and bucketed conditionals are exclusive")

    @property
    def independent(self) -> bool:
        return self.f is not None

    def conditional(self, u: float) -> DurationDist:
        if self.independent:
            return self.f
        return self.bucket_dists[int(self._bucket_index(u))]

    def _bucket_index(self, u):
        centers = np.asarray(self.bucket_centers)
        return np.argmin(np.abs(_asarr(u)[..., None] - centers), axis=-1)

    def cond_cdf(self, v, u):
        """P(eta <= v | xi = u), vectorized over v (and u of the same shape)."""
        if self.independent:
            return self.f.cdf(v)
        v = _asarr(v)
        u = np.broadcast_to(_asarr(u), v.shape)
        idx = self._bucket_index(u)
        out = np.empty_like(v)
        for b, d in enumerate(self.bucket_dists):
            mask = idx == b
            if np.any(mask):
                out[mask] = d.cdf(v[mask])
        return out

    def sample_pair(self, rng: np.random.Generator, size=None):
        scalar = size is None
        n = 1 if scalar else int(size)
        xi = np.atleast_1d(self.g.sample(rng, n))
        if self.independent:
            eta = np.atleast_1d(self.f.sample(rng, n))
        else:
            eta = np.empty(n)
            idx = self._bucket_index(xi)
            for b, d in enumerate(self.bucket_dists):
                mask = idx == b
                cnt = int(mask.sum())
                if cnt:
                    eta[mask] = np.atleast_1d(d.sample(rng, cnt))
        if scalar:
            return float(xi[0]), float(eta[0])
        return xi, eta

    def conditionals(self):
        return (self.f,) if self.independent else self.bucket_dists


@dataclass(frozen=True)
class KernelTable:
    """Sojourn kernels on a uniform grid with Psi = G - Phi exact.

    phi[k] = P(xi + eta <= t_k), psi[k] = P(xi <= t_k < xi + eta), and the
    initial-condition analogs phi0/psi0 built from h0. Atom lists carry the
    jump locations of Phi and Psi so downstream quadrature can treat the
    discontinuities exactly.
    """

    grid: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    phi0: np.ndarray
    psi0: np.ndarray
    phi_atoms: tuple[tuple[float, float], ...]
    psi_atoms: tuple[tuple[float, float], ...]
    h: JointDurationDist = field(repr=False, default=None)
    h0: JointDurationDist = field(repr=False, default=None)


def _merge_atoms(pairs):
    acc: dict[float, float] = {}
    for loc, jump in pairs:
        acc[loc] = acc.get(loc, 0.0) + jump
    return tuple(sorted((loc, j) for loc, j in acc.items() if abs(j) > 1e-15))


def _next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, as ``scipy.fft.next_fast_len(n, real=True)``."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best, p35 = min(best, p35 << (-(-n // p35) - 1).bit_length()), 3 * p35
        p5 *= 5
    return best


def _conv_head(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """First m entries of the full linear convolution of a and b along the
    last axis, by FFT in O(N log N). The leading axes of a and b broadcast,
    so a batch of rows in either one is convolved in one call.

    Rounding is absolute, a few eps times the largest output, where a direct
    sum of nonnegative terms is accurate entry by entry.
    """
    a, b = a[..., :m], b[..., :m]  # later entries reach no output below m
    size = _next_fast_len(a.shape[-1] + b.shape[-1] - 1)
    fb, fa = np.fft.rfft(b, size), np.fft.rfft(a, size)
    # b's spectrum stays the first factor, and the product goes into the
    # batched spectrum: one buffer fewer at the peak
    spec = np.multiply(fb, fa, out=fb if fb.ndim >= fa.ndim else fa)
    return np.fft.irfft(spec, size)[..., :m]


def _conv_cdf_values(joint: JointDurationDist, grid: np.ndarray, shifts: int = 1) -> np.ndarray:
    """out[d, k] = int over u in [0, t_k] of F(t_{k+d} - u | u) dG(u), for
    every shift d < shifts and node k with k + d < n; the rest is 0.

    Row 0 is Phi(t_k) = P(xi + eta <= t_k); row d is P(xi <= t_k,
    xi + eta <= t_{k+d}), the law of both stages at two times. Atom masses
    of G and (independent case) of F are added exactly: an F atom at b adds
    G_c(min(t_k, t_{k+d} - b)), a G atom at a adds F(t_{k+d} - a | a). The
    continuous-by-continuous part uses product-trapezoidal Stieltjes sums,
    which stay second order because all integrands are piecewise smooth
    between the (exactly handled) atoms. Each sum is one FFT convolution
    (_conv_head) per law or bucket, batched over the shifts.
    """
    g = joint.g
    g_atoms = g.atoms()
    if not joint.independent:
        if g_atoms or any(d.atoms() for d in joint.bucket_dists):
            raise ValueError("bucketed conditionals require atomless marginals")
    k = len(grid)
    late = np.arange(k) + np.arange(shifts)[:, None]  # [d, k]: index k + d
    ahead = grid[np.minimum(late, k - 1)]  # t_{k+d}
    gc_nodes = g.cdf_continuous(grid)
    dgc = np.diff(gc_nodes)
    out = np.zeros((shifts, k))

    def add_continuous(fdist, weights):
        # trapezoid of F_c(t_{k+d} - u) against the continuous G mass in `weights`
        fc = fdist.cdf_continuous(grid)
        w = 0.5 * (fc[1:] + fc[:-1])
        # row d: the cell averages of F_c from cell d on
        wd = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([w, np.zeros(shifts - 1)]), k - 1)
        out[:, 1:] += _conv_head(wd, weights, k - 1)
        # atoms of F against the continuous part of G: exact term G_c(min(t, t' - b))
        for b, jb in fdist.atoms():
            mask = ahead >= b
            out[mask] += jb * g.cdf_continuous(np.minimum(grid, ahead - b)[mask])

    if joint.independent:
        add_continuous(joint.f, dgc)
    else:
        centers = np.asarray(joint.bucket_centers)
        mids = 0.5 * (grid[1:] + grid[:-1])
        idx = np.argmin(np.abs(mids[:, None] - centers), axis=1)
        for b, d in enumerate(joint.bucket_dists):
            wts = np.where(idx == b, dgc, 0.0)
            if np.any(wts):
                add_continuous(d, wts)

    # atoms of G: exact F(t_{k+d} - a | a) weighted by the jump
    for a, ja in g_atoms:
        fdist = joint.conditional(a)
        mask = np.broadcast_to(grid >= a, out.shape)
        vals = np.zeros((shifts, k))
        vals[mask] = fdist.cdf(ahead[mask] - a)
        out += ja * vals
    out[late >= k] = 0.0
    return out


def _phi_atom_list(joint: JointDurationDist):
    if not joint.independent:
        return ()
    pairs = []
    for a, ja in joint.g.atoms():
        for b, jb in joint.f.atoms():
            pairs.append((a + b, ja * jb))
    return _merge_atoms(pairs)


def tabulate_kernels(h: JointDurationDist, h0: JointDurationDist, grid) -> KernelTable:
    """Tabulate Phi, Psi (from h) and Phi0, Psi0 (from h0) on a uniform grid."""
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)

    atom_locs = sorted(
        {loc for d in (h.g, h0.g) for loc, _ in d.atoms()}
        | {loc for j in (h, h0) for d in j.conditionals() if d is not None for loc, _ in d.atoms()}
    )
    if len(atom_locs) >= 2:
        gap = min(b - a for a, b in zip(atom_locs, atom_locs[1:]))
        if gap > 0 and dt > gap:
            warnings.warn(
                f"grid step {dt:g} exceeds the smallest atom gap {gap:g}; "
                "jumps may straddle nodes",
                stacklevel=2,
            )

    phi = _conv_cdf_values(h, grid)[0]
    psi = h.g.cdf(grid) - phi  # identity Psi = G - Phi, enforced exactly
    phi0 = _conv_cdf_values(h0, grid)[0]
    psi0 = h0.g.cdf(grid) - phi0

    phi_atoms = _phi_atom_list(h)
    psi_atoms = _merge_atoms(list(h.g.atoms()) + [(loc, -j) for loc, j in phi_atoms])
    return KernelTable(
        grid=grid,
        phi=phi,
        psi=psi,
        phi0=phi0,
        psi0=psi0,
        phi_atoms=phi_atoms,
        psi_atoms=psi_atoms,
        h=h,
        h0=h0,
    )
