"""Exact event-driven simulation of the stochastic SIS/SIR/SIRS/SEIR models.

Infections arrive as a Poisson process with rate lambda(t) * S * I / n; each
newly infected agent draws its period durations up front and its later
transitions are scheduled in a priority queue. Between events the intensity
is constant, so the next infection candidate is an exponential draw; a
time-tabulated rate is handled by thinning against its maximum. No time
discretization anywhere: the compartment path is the exact state sampled at
grid times.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DurationDist,
    JointDurationDist,
    equilibrium_dist,
    uniform_grid,
)

__all__ = [
    "KINDS",
    "INFECT",
    "BECOME_INFECTIOUS",
    "RECOVER",
    "BECOME_SUSCEPTIBLE",
    "TRANSITION_NAMES",
    "TabulatedRate",
    "ModelSpec",
    "EventLog",
    "CompartmentPath",
    "simulate",
    "simulate_ensemble",
    "integrated_intensity",
    "transition_deltas",
]

KINDS = ("SIS", "SIR", "SIRS", "SEIR")

INFECT = 0
BECOME_INFECTIOUS = 1
RECOVER = 2
BECOME_SUSCEPTIBLE = 3

TRANSITION_NAMES = {
    INFECT: "Infect",
    BECOME_INFECTIOUS: "BecomeInfectious",
    RECOVER: "Recover",
    BECOME_SUSCEPTIBLE: "BecomeSusceptible",
}


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
        i = np.searchsorted(self.times, t, side="right") - 1
        return self.values[max(int(i), 0)]

    def max_value(self) -> float:
        return max(self.values)

    def on_grid(self, grid) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.times, grid, side="right") - 1, 0, None)
        return np.asarray(self.values)[idx]

    def integral(self, a: float, b: float) -> float:
        """int_a^b of the rate, exact across breakpoints."""
        if b <= a:
            return 0.0
        ts, vs = self.times, self.values
        total = 0.0
        for j, v in enumerate(vs):
            lo = max(a, ts[j])
            hi = min(b, ts[j + 1]) if j + 1 < len(ts) else b
            if hi > lo:
                total += v * (hi - lo)
        return total


def _marginal_second(joint: JointDurationDist) -> DurationDist:
    if not joint.independent:
        raise ValueError(
            "no default residual law for a bucketed joint; pass the initial laws explicitly"
        )
    return joint.f


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
            if self.kind == "SEIR":
                if self.e0 > 0 and self.h0 is None:
                    self.h0 = JointDurationDist(
                        g=equilibrium_dist(self.h.g), f=_marginal_second(self.h)
                    )
                if self.i0 > 0 and self.f0 is None:
                    self.f0 = equilibrium_dist(_marginal_second(self.h))
            else:  # SIRS
                if self.i0 > 0 and self.h0 is None:
                    self.h0 = JointDurationDist(
                        g=equilibrium_dist(self.h.g), f=_marginal_second(self.h)
                    )
                if self.r0 > 0 and self.f0 is None:
                    self.f0 = equilibrium_dist(_marginal_second(self.h))

    def residual_joint(self) -> JointDurationDist | None:
        """The joint residual law h0 of the two-stage initial pool, or h where
        h0 is unset, which is only where that pool's mass is zero."""
        return self.h0 if self.h0 is not None else self.h

    # -- contact-rate helpers --

    def lam_constant(self):
        """The constant rate, or None when tabulated."""
        return None if isinstance(self.lam, TabulatedRate) else self.lam

    def lam_at(self, t: float) -> float:
        if isinstance(self.lam, TabulatedRate):
            return self.lam.at(t)
        return self.lam

    def lam_max(self) -> float:
        if isinstance(self.lam, TabulatedRate):
            return self.lam.max_value()
        return self.lam

    def lam_on_grid(self, grid) -> np.ndarray:
        if isinstance(self.lam, TabulatedRate):
            return self.lam.on_grid(grid)
        return np.full(len(grid), self.lam)

    def lam_integral(self, a: float, b: float) -> float:
        if isinstance(self.lam, TabulatedRate):
            return self.lam.integral(a, b)
        return self.lam * max(b - a, 0.0)


@dataclass
class EventLog:
    """All transitions of one run, in processing order."""

    times: np.ndarray
    agents: np.ndarray
    codes: np.ndarray
    kind: str
    n: int
    i0_count: int
    e0_count: int = 0
    r0_count: int = 0

    def __len__(self):
        return len(self.times)


@dataclass
class CompartmentPath:
    """Exact compartment counts sampled at uniform grid times.

    A counts cumulative infections; L counts cumulative onsets of
    infectiousness (equal to A except for SEIR, where infection enters E
    first).
    """

    grid: np.ndarray
    S: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray
    A: np.ndarray
    L: np.ndarray
    n: int
    kind: str
    seed: object = None


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


class _Pool:
    """Blockwise scalar draws from a vectorized sampler."""

    __slots__ = ("make", "buf", "i", "block")

    def __init__(self, make, block=1024):
        self.make = make
        self.block = block
        self.buf = make(block)
        self.i = 0

    def draw(self):
        i = self.i
        if i >= self.block:
            self.buf = self.make(self.block)
            i = 0
        self.i = i + 1
        return self.buf[i]


class _PairPool:
    __slots__ = ("joint", "rng", "xi", "eta", "i", "block")

    def __init__(self, joint, rng, block=512):
        self.joint = joint
        self.rng = rng
        self.block = block
        self.xi, self.eta = joint.sample_pair(rng, block)
        self.i = 0

    def draw(self):
        i = self.i
        if i >= self.block:
            self.xi, self.eta = self.joint.sample_pair(self.rng, self.block)
            i = 0
        self.i = i + 1
        return self.xi[i], self.eta[i]


def simulate(spec: ModelSpec, n: int, horizon: float, grid_dt: float, rng=None, seed=None):
    """One exact replication; returns (CompartmentPath, EventLog)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    grid = uniform_grid(horizon, grid_dt)
    kn = len(grid)
    gtimes = grid.tolist()
    kind = spec.kind

    i0n = int(round(n * spec.i0))
    e0n = int(round(n * spec.e0))
    r0n = int(round(n * spec.r0))
    if i0n + e0n + r0n > n:
        raise ValueError("initial counts exceed n after rounding")

    S = n - i0n - e0n - r0n
    E, I, R = e0n, i0n, r0n
    A = 0
    L = 0

    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop

    # schedule the initial agents' transitions; ids 0..i0n-1 are initially
    # infectious, then exposed (SEIR) or immune (SIRS), then susceptibles
    if kind in ("SIS", "SIR"):
        exit_code = RECOVER if kind == "SIR" else BECOME_SUSCEPTIBLE
        if i0n:
            d = np.atleast_1d(spec.f0.sample(rng, i0n))
            for j in range(i0n):
                push(heap, (float(d[j]), j, exit_code))
    elif kind == "SEIR":
        if i0n:
            d = np.atleast_1d(spec.f0.sample(rng, i0n))
            for j in range(i0n):
                push(heap, (float(d[j]), j, RECOVER))
        if e0n:
            xi, eta = spec.h0.sample_pair(rng, e0n)
            for j in range(e0n):
                a = i0n + j
                x = float(xi[j])
                push(heap, (x, a, BECOME_INFECTIOUS))
                push(heap, (x + float(eta[j]), a, RECOVER))
    else:  # SIRS
        if i0n:
            xi, eta = spec.h0.sample_pair(rng, i0n)
            for j in range(i0n):
                x = float(xi[j])
                push(heap, (x, j, RECOVER))
                push(heap, (x + float(eta[j]), j, BECOME_SUSCEPTIBLE))
        if r0n:
            d = np.atleast_1d(spec.f0.sample(rng, r0n))
            for j in range(r0n):
                push(heap, (float(d[j]), i0n + j, BECOME_SUSCEPTIBLE))

    if kind in ("SIS", "SIR"):
        dur_pool = _Pool(lambda k: np.atleast_1d(spec.f.sample(rng, k)), 512)
        new_codes = None
    else:
        pair_pool = _PairPool(spec.h, rng)
        new_codes = (
            (BECOME_INFECTIOUS, RECOVER) if kind == "SEIR" else (RECOVER, BECOME_SUSCEPTIBLE)
        )
    exp_pool = _Pool(lambda k: rng.exponential(size=k))
    uni_pool = None

    lam_const = spec.lam_constant()
    lam_max = spec.lam_max()
    if lam_const is None:
        uni_pool = _Pool(lambda k: rng.uniform(size=k))
        lam_at = spec.lam.at

    next_fresh = i0n + e0n + r0n
    freed: list = []

    lt: list = []
    la: list = []
    lc: list = []
    Sg = np.empty(kn, np.int64)
    Eg = np.empty(kn, np.int64)
    Ig = np.empty(kn, np.int64)
    Rg = np.empty(kn, np.int64)
    Ag = np.empty(kn, np.int64)
    Lg = np.empty(kn, np.int64)
    node = 0

    INF = math.inf
    seir = kind == "SEIR"
    sis = kind == "SIS"
    t = 0.0
    edraw = exp_pool.draw

    while True:
        t_sched = heap[0][0] if heap else INF
        si = S * I
        if si and lam_max:
            t_cand = t + edraw() * n / (lam_max * si)
        else:
            t_cand = INF
        if t_sched <= t_cand:
            te = t_sched
            if te > horizon:
                break
            while node < kn and gtimes[node] < te:
                Sg[node] = S
                Eg[node] = E
                Ig[node] = I
                Rg[node] = R
                Ag[node] = A
                Lg[node] = L
                node += 1
            te, aid, code = pop(heap)
            if code == RECOVER:
                I -= 1
                R += 1
            elif code == BECOME_INFECTIOUS:
                E -= 1
                I += 1
                L += 1
            else:  # BECOME_SUSCEPTIBLE
                if sis:
                    I -= 1
                else:
                    R -= 1
                S += 1
                push(freed, aid)
            lt.append(te)
            la.append(aid)
            lc.append(code)
            t = te
        else:
            te = t_cand
            if te > horizon:
                break
            t = te
            if lam_const is None and uni_pool.draw() * lam_max > lam_at(te):
                continue  # thinned candidate, state unchanged
            while node < kn and gtimes[node] < te:
                Sg[node] = S
                Eg[node] = E
                Ig[node] = I
                Rg[node] = R
                Ag[node] = A
                Lg[node] = L
                node += 1
            if freed:
                aid = heapq.heappop(freed)
            else:
                aid = next_fresh
                next_fresh += 1
            S -= 1
            A += 1
            if new_codes is None:
                I += 1
                L += 1
                push(heap, (te + float(dur_pool.draw()), aid, exit_code))
            else:
                x, y = pair_pool.draw()
                x = float(x)
                if seir:
                    E += 1
                else:
                    I += 1
                    L += 1
                push(heap, (te + x, aid, new_codes[0]))
                push(heap, (te + x + float(y), aid, new_codes[1]))
            lt.append(te)
            la.append(aid)
            lc.append(INFECT)

    while node < kn:
        Sg[node] = S
        Eg[node] = E
        Ig[node] = I
        Rg[node] = R
        Ag[node] = A
        Lg[node] = L
        node += 1

    path = CompartmentPath(
        grid=grid, S=Sg, E=Eg, I=Ig, R=Rg, A=Ag, L=Lg, n=n, kind=kind, seed=seed
    )
    log = EventLog(
        times=np.asarray(lt, dtype=float),
        agents=np.asarray(la, dtype=np.int64),
        codes=np.asarray(lc, dtype=np.int8),
        kind=kind,
        n=n,
        i0_count=i0n,
        e0_count=e0n,
        r0_count=r0n,
    )
    return path, log


def _ensemble_rep(spec, n, horizon, grid_dt, master_seed, r):
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(r,)))
    path, log = simulate(spec, n, horizon, grid_dt, rng)
    path.seed = (master_seed, r)
    return path, log


def _ensemble_rep_star(args):
    return _ensemble_rep(*args)


def simulate_ensemble(
    spec: ModelSpec,
    n: int,
    reps: int,
    horizon: float,
    grid_dt: float,
    master_seed: int,
    workers: int = 1,
    keep_logs: bool = False,
    memory_budget: int = 2 * 1024**3,
):
    """Independent replications with per-rep streams derived from (master_seed, r).

    Results are bitwise identical for a given master seed regardless of
    workers or execution order.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    kn = int(round(horizon / grid_dt)) + 1
    est = reps * kn * 6 * 8 + reps * 2048
    if est > memory_budget:
        raise ValueError(
            f"ensemble would need about {est / 1e9:.2f} GB for {reps} paths of "
            f"{kn} nodes, above the {memory_budget / 1e9:.2f} GB budget"
        )
    if workers > 1:
        args = [(spec, n, horizon, grid_dt, master_seed, r) for r in range(reps)]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            out = list(ex.map(_ensemble_rep_star, args, chunksize=max(1, reps // (8 * workers))))
    else:
        out = [_ensemble_rep(spec, n, horizon, grid_dt, master_seed, r) for r in range(reps)]
    paths = [p for p, _ in out]
    if keep_logs:
        return paths, [lg for _, lg in out]
    return paths


def integrated_intensity(log: EventLog, spec: ModelSpec, times) -> np.ndarray:
    """Integrated fraction-scale intensity along one run, exact between events.

    Returns int_0^t lambda(s) (S(s)/n) (I(s)/n) ds at the requested times;
    the expected infection count over [0, t] is n times this.
    """
    times = np.asarray(times, dtype=float)
    order = np.argsort(times, kind="stable")
    out = np.empty(len(times))
    n = log.n
    kind = log.kind
    S = n - log.i0_count - log.e0_count - log.r0_count
    E, I, R = log.e0_count, log.i0_count, log.r0_count

    cum = 0.0
    t_prev = 0.0
    ptr = 0
    m = len(times)

    def seg(a, b):
        return spec.lam_integral(a, b) * (S / n) * (I / n)

    for te, code in zip(log.times, log.codes):
        while ptr < m and times[order[ptr]] <= te:
            tq = times[order[ptr]]
            out[order[ptr]] = cum + seg(t_prev, tq)
            ptr += 1
        cum += seg(t_prev, te)
        dS, dE, dI, dR = transition_deltas(kind, int(code))
        S += dS
        E += dE
        I += dI
        R += dR
        t_prev = te
    while ptr < m:
        tq = times[order[ptr]]
        out[order[ptr]] = cum + seg(t_prev, tq)
        ptr += 1
    return out
