"""Period-duration laws, joint laws, and sojourn-kernel tabulation.

Every compartment sojourn in the models is driven by a nonnegative duration
law. This module provides the supported parametric families, the
stationary-excess (residual lifetime) transform, joint laws for consecutive
periods, and the tabulated kernels

    Phi(t) = P(xi + eta <= t),    Psi(t) = P(xi <= t < xi + eta),

on a uniform grid, with Psi = G - Phi enforced exactly by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.fft import next_fast_len

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
    """Step of a uniform grid; rejects non-uniform or too-short grids."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two nodes")
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


class DurationDist:
    """Base class for nonnegative duration laws.

    Subclasses provide cdf, mean, second_moment, atoms, int_sf (the
    integrated survival function) and sample. Survival is always computed
    as 1 - cdf so the two can never drift apart.
    """

    family = "abstract"

    def cdf(self, t):
        raise NotImplementedError

    def sf(self, t):
        return 1.0 - self.cdf(t)

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """Discontinuities of the CDF as (location, jump) pairs."""
        return ()

    def int_sf(self, t):
        """Integrated survival: int_0^t sf(s) ds, elementwise, 0 for t<=0."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

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
        return -np.expm1(-self.rate * np.clip(t, 0.0, None))

    def mean(self):
        return 1.0 / self.rate

    def second_moment(self):
        return 2.0 / self.rate**2

    def int_sf(self, t):
        t = _asarr(t)
        return -np.expm1(-self.rate * np.clip(t, 0.0, None)) / self.rate

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

    def second_moment(self):
        return self.value**2

    def atoms(self):
        return ((self.value, 1.0),)

    def int_sf(self, t):
        return np.clip(_asarr(t), 0.0, self.value)

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
        t = _asarr(t)
        return np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def second_moment(self):
        return (self.hi**3 - self.lo**3) / (3.0 * (self.hi - self.lo))

    def int_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        w = self.hi - self.lo
        x = np.clip(t, None, self.hi)
        inner = (w**2 - (self.hi - np.clip(x, self.lo, None)) ** 2) / (2.0 * w)
        return np.minimum(t, self.lo) + inner

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size)

    def params(self):
        return [self.lo, self.hi]


class Gamma(DurationDist):
    family = "Gamma"

    def __init__(self, shape: float, rate: float):
        if shape <= 0 or rate <= 0:
            raise ValueError("shape and rate must be positive")
        self.shape = float(shape)
        self.rate = float(rate)

    def cdf(self, t):
        # t / (1 / rate), not t * rate: the bits scipy.stats.gamma feeds these ufuncs
        return special.gammainc(self.shape, np.clip(_asarr(t), 0.0, None) / (1.0 / self.rate))

    def mean(self):
        return self.shape / self.rate

    def second_moment(self):
        return self.shape * (self.shape + 1.0) / self.rate**2

    def int_sf(self, t):
        # int_0^t sf = t*sf(t) + int_0^t s f(s) ds, and the partial mean of a
        # Gamma(a, r) is (a/r) * CDF of Gamma(a+1, r).
        t = np.clip(_asarr(t), 0.0, None)
        x = t / (1.0 / self.rate)
        part = self.mean() * special.gammainc(self.shape + 1.0, x)
        return _t_sf(t, special.gammaincc(self.shape, x)) + part

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    def params(self):
        return [self.shape, self.rate]


class LogNormal(DurationDist):
    family = "LogNormal"

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def cdf(self, t):
        # log(t / exp(mu)) / sigma: the bits scipy.stats.lognorm feeds ndtr
        with np.errstate(divide="ignore"):
            return special.ndtr(np.log(np.clip(_asarr(t), 0.0, None) / math.exp(self.mu))
                                / self.sigma)

    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def second_moment(self):
        return math.exp(2.0 * self.mu + 2.0 * self.sigma**2)

    def int_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        with np.errstate(divide="ignore"):
            sf = special.ndtr(-np.log(t / math.exp(self.mu)) / self.sigma)
            z = (np.log(t) - self.mu - self.sigma**2) / self.sigma
        part = self.mean() * special.ndtr(np.where(t > 0, z, -np.inf))
        return _t_sf(t, sf) + part

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size)

    def params(self):
        return [self.mu, self.sigma]


class Weibull(DurationDist):
    family = "Weibull"

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)

    def cdf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        return -np.expm1(-((t / self.scale) ** self.shape))

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def second_moment(self):
        return self.scale**2 * math.gamma(1.0 + 2.0 / self.shape)

    def int_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        u = (t / self.scale) ** self.shape
        # partial mean via the regularized lower incomplete gamma function
        part = self.mean() * special.gammainc(1.0 + 1.0 / self.shape, u)
        return _t_sf(t, np.exp(-u)) + part

    def sample(self, rng, size=None):
        return self.scale * rng.weibull(self.shape, size)

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
        out = []
        if self.ps[0] > 0:
            out.append((float(self.ts[0]), float(self.ps[0])))
        for j in range(1, len(self.ts)):
            if self.ts[j] == self.ts[j - 1] and self.ps[j] > self.ps[j - 1]:
                out.append((float(self.ts[j]), float(self.ps[j] - self.ps[j - 1])))
        return tuple(out)

    def _segment_integrals(self):
        # exact integral of sf over [0, ts[0]] and over each knot segment
        sfk = 1.0 - self.ps
        widths = np.diff(self.ts)
        seg = widths * 0.5 * (sfk[:-1] + sfk[1:])
        head = self.ts[0]
        return head, seg

    def mean(self):
        head, seg = self._segment_integrals()
        return float(head + seg.sum())

    def second_moment(self):
        # 2 * int t*sf(t) dt, exact on each linear segment
        sfk = 1.0 - self.ps
        total = self.ts[0] ** 2  # sf = 1 on [0, ts[0])
        for j in range(len(self.ts) - 1):
            a, b = self.ts[j], self.ts[j + 1]
            if b == a:
                continue
            s0, s1 = sfk[j], sfk[j + 1]
            slope = (s1 - s0) / (b - a)
            # 2*int_a^b t*(s0 + slope*(t-a)) dt
            total += 2.0 * (
                (s0 - slope * a) * (b**2 - a**2) / 2.0 + slope * (b**3 - a**3) / 3.0
            )
        return float(total)

    def int_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        head, seg = self._segment_integrals()
        cum = np.concatenate([[head], head + np.cumsum(seg)])  # value at each knot
        sfk = 1.0 - self.ps
        i = np.searchsorted(self.ts, t, side="right")
        i = np.clip(i, 1, len(self.ts) - 1)
        t0, t1 = self.ts[i - 1], self.ts[i]
        s0, s1 = sfk[i - 1], sfk[i]
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(t1 > t0, t1 - t0, 1.0)
            x = np.clip(t - t0, 0.0, t1 - t0)
            sft = s0 + (s1 - s0) * x / w
        partial = cum[i - 1] + 0.5 * (s0 + sft) * x
        out = np.where(t <= self.ts[0], t, partial)
        out = np.where(t >= self.ts[-1], cum[-1], out)
        return out

    def sample(self, rng, size=None):
        u = rng.uniform(size=size)
        return np.interp(u, self.ps, self.ts)

    def params(self):
        return [float(v) for pair in zip(self.ts, self.ps) for v in pair]


class _EquilibriumDist(DurationDist):
    """Stationary-excess law of a base distribution: F_e(t) = int_0^t sf / mean.

    Always absolutely continuous. int_sf falls back to a cached fine-grid
    trapezoid (the concrete families all have closed forms; only this
    wrapper needs the numeric route).
    """

    family = "EquilibriumOf"

    def __init__(self, base: DurationDist):
        m = base.mean()
        if not np.isfinite(m) or m <= 0:
            raise ValueError("base law needs a finite positive mean")
        self.base = base
        self._mean_base = m
        self._cache_hi = 0.0
        self._cache = None

    def cdf(self, t):
        return np.clip(self.base.int_sf(t) / self._mean_base, 0.0, 1.0)

    def mean(self):
        return self.base.second_moment() / (2.0 * self._mean_base)

    def second_moment(self):
        raise NotImplementedError("third moments of the base law are not tracked")

    def int_sf(self, t):
        t = np.clip(_asarr(t), 0.0, None)
        hi = float(np.max(t, initial=0.0, where=np.isfinite(t)))
        if self._cache is None or hi > self._cache_hi:
            self._cache_hi = max(hi, 1.0) * 2.0
            xs = np.linspace(0.0, self._cache_hi, 20001)
            sf = self.sf(xs)
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (sf[1:] + sf[:-1]) * np.diff(xs))])
            self._cache = (xs, cum)
        xs, cum = self._cache
        return np.where(np.isinf(t), self.mean(), np.interp(t, xs, cum))[()]

    def sample(self, rng, size=None):
        u = rng.uniform(size=size)
        scalar = size is None
        u = np.atleast_1d(u)
        hi = max(self._mean_base, 1.0)
        while np.any(self.cdf(hi) < np.max(u)) and hi < 1e12:
            hi *= 2.0
        lo = np.zeros_like(u)
        hiv = np.full_like(u, hi)
        for _ in range(80):  # bisection, monotone continuous CDF
            mid = 0.5 * (lo + hiv)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hiv = np.where(below, hiv, mid)
        out = 0.5 * (lo + hiv)
        return float(out[0]) if scalar else out

    def params(self):
        return self.base.params()

    def __repr__(self):
        return f"EquilibriumOf({self.base!r})"

    def __eq__(self, other):
        return isinstance(other, _EquilibriumDist) and self.base == other.base

    def __hash__(self):
        return hash(("EquilibriumOf", self.base))


def equilibrium_dist(d: DurationDist) -> DurationDist:
    """Stationary-excess (residual lifetime) law of d.

    Exponential laws are their own stationary excess; a point mass at eta
    becomes Uniform(0, eta). Everything else is wrapped exactly via the
    integrated survival function.
    """
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
        centers = np.asarray(self.bucket_centers)
        return self.bucket_dists[int(np.argmin(np.abs(centers - u)))]

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


def _conv_head(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """First m entries of the full linear convolution of a and b along the
    last axis, by FFT in O(N log N). The leading axes of a and b broadcast,
    so a batch of rows in either one is convolved in one call.

    Rounding is absolute, a few eps times the largest output, where a direct
    sum of nonnegative terms is accurate entry by entry.
    """
    a, b = a[..., :m], b[..., :m]  # later entries reach no output below m
    size = next_fast_len(a.shape[-1] + b.shape[-1] - 1, real=True)
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
