"""Exact event-driven simulation of the stochastic SIS/SIR/SIRS/SEIR models.

Infections arrive as a Poisson process with rate lambda(t) * S * I / n; each
newly infected agent draws its period durations up front, and its later
transitions are scheduled as bare times in one heap per transition code.
Between events the intensity is constant, so the next infection candidate is
an exponential draw; a time-tabulated rate is handled by thinning against
its maximum. No time discretization anywhere. Scheduled events win ties with
a candidate and go in code order among themselves; a candidate is drawn
before each of them while S * I > 0, so that order can change later draws.

The loop keeps the paper's epoch representation: it tracks only S and I,
which set the infection rate, and the infection epochs. Each count is a sum
of indicators over the epochs and the periods drawn at them, so the path
(the exact state at the grid times, up to the last node) and the event log
are counted from them after the loop. Initial agents get the ids 0..k-1 in
pool order; then each infection gets a new id in epoch order, never reused.

One table, ``_STAGES``, says for each model kind which agent pools exist,
which ``ModelSpec`` law their periods come from and which transitions their
members pass through; ``transition_deltas`` says what each transition does
to the counts. The loop, the path counts and ``_replay``, the vectorized
replay of an event log, all read these two.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DurationDist,
    JointDurationDist,
    _grid_steps,
    equilibrium_dist,
    uniform_grid,
)

__all__ = [
    "KINDS",
    "INFECT",
    "BECOME_INFECTIOUS",
    "RECOVER",
    "BECOME_SUSCEPTIBLE",
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
            # each initial pool with mass and no law of its own gets the default
            for pool, law, _ in _STAGES[self.kind]:
                if pool == "new" or getattr(self, pool) <= 0 or getattr(self, law) is not None:
                    continue
                second = _marginal_second(self.h)
                if law == "h0":
                    self.h0 = JointDurationDist(g=equilibrium_dist(self.h.g), f=second)
                else:
                    self.f0 = equilibrium_dist(second)

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


@dataclass
class EventLog:
    """All transitions of one run up to the last grid node, by time, agent id
    and code (the loop takes tied scheduled events in code order). Initial
    agents have the ids 0..k-1 in pool order, later infections new ids in epoch order."""

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


def _delta_table(kind: str) -> np.ndarray:
    """``transition_deltas`` of every code, as a (code, compartment) array."""
    return np.array([transition_deltas(kind, c) for c in range(4)], dtype=np.int64)


def _pool(make, block=1024):
    """Scalar draws from a vectorized sampler, as a C-level ``__next__``: the
    first block is drawn now, each later one when the last is used up."""
    later = itertools.chain.from_iterable(map(make, itertools.repeat(block)))
    return itertools.chain(make(block), later).__next__


def _periods(law, rng, k, stages):
    """k draws of a pool's periods as a (stages, k) array: one row from a
    single-period law, the (first, second) rows from a joint law."""
    if stages == 1:
        return np.atleast_1d(law.sample(rng, k)).astype(float)[None]
    return np.array(law.sample_pair(rng, k), dtype=float)


def _initial_counts(spec: ModelSpec, n: int) -> dict:
    """Agents in each initial pool of an n-agent run."""
    return {pool: int(round(n * getattr(spec, pool))) for pool in ("i0", "e0", "r0")}


def simulate(spec: ModelSpec, n: int, horizon: float, grid_dt: float, rng=None, seed=None):
    """One exact replication up to the last node of ``uniform_grid(horizon,
    grid_dt)``; returns (CompartmentPath, EventLog)."""
    return _run(spec, n, horizon, grid_dt, rng, seed, keep_log=True)


def _run(spec, n, horizon, grid_dt, rng, seed, keep_log):
    """``simulate``, with the EventLog None unless kept; the log is built
    after the loop, and only when kept."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    grid = uniform_grid(horizon, grid_dt)
    t_end = float(grid[-1])
    kind = spec.kind

    counts = _initial_counts(spec, n)
    i0n, e0n, r0n = counts["i0"], counts["e0"], counts["r0"]
    k0 = i0n + e0n + r0n
    if k0 > n:
        raise ValueError("initial counts exceed n after rounding")

    # schedule the initial agents' transitions: one heap of bare times per
    # code, in code order; the new infections pass through every code. A
    # (code, times, first id) segment holds one transition of consecutive
    # ids, for the counts after the loop
    *initial, (_, new_law, new_codes) = _STAGES[kind]
    INF = math.inf
    heaps = {code: [INF] for code in new_codes}  # inf is past every horizon: never popped
    segments = []
    first = 0
    for pool, law, codes in initial:
        k = counts[pool]
        if k:
            ends = np.cumsum(_periods(getattr(spec, law), rng, k, len(codes)), axis=0)
            for code, row in zip(codes, ends):
                heaps[code] += row.tolist()
                segments.append((code, row, first))
        first += k
    ha, hb = (*heaps.values(), [INF])[:2]  # a one-code kind: a constant second head
    heapq.heapify(ha)
    heapq.heapify(hb)
    push, pop = heapq.heappush, heapq.heappop
    stages = len(new_codes)

    new_law = getattr(spec, new_law)
    blocks = []  # the new infections' periods, kept as drawn

    def new_block(k):
        blocks.append(_periods(new_law, rng, k, stages))
        return blocks[-1].T.tolist()

    new_draw = _pool(new_block, 512)
    # Python floats: faster than numpy scalars in the loop, and a rate too
    # small for the next candidate time gives inf without a warning
    edraw = _pool(lambda k: rng.exponential(size=k).tolist())
    lam_const = spec.lam_constant()
    lam_max = spec.lam_max()
    if lam_const is None:
        udraw = _pool(lambda k: rng.uniform(size=k).tolist())
        lam_at = spec.lam.at

    deltas = _delta_table(kind)
    step = deltas[:, [0, 2]].tolist()  # (dS, dI) of each code
    (dsa, dia), (dsb, dib), (dsi, dii) = step[new_codes[0]], step[new_codes[-1]], step[INFECT]
    S, I = n - k0, i0n
    taus = array("d")  # the infection epochs; epoch j belongs to id k0 + j
    tau = taus.append
    t = 0.0

    while True:
        a, b = ha[0], hb[0]
        si = S * I
        t_cand = t + edraw() * n / (lam_max * si) if si and lam_max else INF
        # ties go to the scheduled event, and between codes to the lower one
        t_sched, h, ds, di = (a, ha, dsa, dia) if a <= b else (b, hb, dsb, dib)
        if t_sched <= t_cand:
            if t_sched > t_end:
                break
            t = pop(h)
        else:
            if t_cand > t_end:
                break
            t = t_cand
            if lam_const is None and udraw() * lam_max > lam_at(t):
                continue  # thinned candidate, state unchanged
            tau(t)
            d = new_draw()
            tx = t + d[0]
            push(ha, tx)
            if stages == 2:
                push(hb, tx + d[1])
            ds, di = dsi, dii
        S += ds
        I += di

    # the new infections' transition times, summed in the loop's order:
    # tau, tau + d0, (tau + d0) + d1
    ends = np.vstack([taus, np.concatenate(blocks, axis=1)[:, :len(taus)]])
    np.cumsum(ends, axis=0, out=ends)
    segments += zip((INFECT,) + new_codes, ends, itertools.repeat(k0))

    # each code's events up to each node; times past the last node count at none
    hits = np.zeros((4, len(grid)), dtype=np.int64)
    for code, times, _ in segments:
        hits[code] += np.searchsorted(np.sort(times), grid, side="right")
    start = np.array([n - k0, e0n, i0n, r0n], dtype=np.int64)
    onset = BECOME_INFECTIOUS if kind == "SEIR" else INFECT
    rows = np.vstack([start[:, None] + deltas.T @ hits, hits[[INFECT, onset]]])
    path = CompartmentPath(grid=grid, **dict(zip("SEIRAL", rows)), n=n, kind=kind, seed=seed)
    if not keep_log:
        return path, None

    # ids rise with epochs and a scheduled event wins a tie with an infection,
    # so (time, id, code) is the loop's order, but for tied scheduled events
    times = np.concatenate([ts for _, ts, _ in segments])
    agents = np.concatenate([np.arange(a, a + len(ts), dtype=np.int64) for _, ts, a in segments])
    codes = np.concatenate([np.full(len(ts), c, dtype=np.int8) for c, ts, _ in segments])
    order = np.lexsort((codes, agents, times))[:np.count_nonzero(times <= t_end)]
    log = EventLog(times=times[order], agents=agents[order], codes=codes[order], kind=kind,
                   n=n, i0_count=i0n, e0_count=e0n, r0_count=r0n)
    return path, log


def _ensemble_rep(spec, n, horizon, grid_dt, master_seed, keep_log, r):
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(r,)))
    path, log = _run(spec, n, horizon, grid_dt, rng, None, keep_log)
    path.seed = (master_seed, r)
    return path, log


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
    workers or execution order. The memory guard counts the grid paths and,
    with ``keep_logs``, 17 B per event of a bound on the expected events:
    at most lam_max T n / 4 infections, since S I / n <= n / 4, each with
    one event per stage, plus the exits of the initial agents.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    kn = _grid_steps(horizon, grid_dt) + 1
    est = reps * kn * 6 * 8 + reps * 2048
    if keep_logs:
        *initial, (_, _, new_codes) = _STAGES[spec.kind]
        counts = _initial_counts(spec, n)
        events = (spec.lam_max() * (kn - 1) * grid_dt * n / 4 * (1 + len(new_codes))
                  + sum(counts[pool] * len(codes) for pool, _, codes in initial))
        est += reps * 17 * math.ceil(events)
    if est > memory_budget:
        raise ValueError(
            f"ensemble would need about {est / 1e9:.2f} GB for {reps} paths of {kn} nodes"
            f"{' and their event logs' if keep_logs else ''}, above the "
            f"{memory_budget / 1e9:.2f} GB budget"
        )
    rep = functools.partial(_ensemble_rep, spec, n, horizon, grid_dt, master_seed, keep_logs)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools pay its import
        with ProcessPoolExecutor(max_workers=workers) as ex:
            out = list(ex.map(rep, range(reps), chunksize=max(1, reps // (8 * workers))))
    else:
        out = [rep(r) for r in range(reps)]
    paths, logs = map(list, zip(*out))
    return (paths, logs) if keep_logs else paths


def _replay(log: EventLog):
    """(S, I) counts after the first k events of the log, k = 0..len(log),
    as the cumulative sum of the events' transition deltas."""
    deltas = _delta_table(log.kind)
    start = (log.n - log.i0_count - log.e0_count - log.r0_count,
             log.e0_count, log.i0_count, log.r0_count)
    counts = np.cumsum(np.vstack([start, deltas[log.codes]]), axis=0)
    return counts[:, 0], counts[:, 2]


def integrated_intensity(log: EventLog, spec: ModelSpec, times) -> np.ndarray:
    """Integrated fraction-scale intensity along one run, exact between events.

    Returns int_0^t lambda(s) (S(s)/n) (I(s)/n) ds at the requested times;
    the expected infection count over [0, t] is n times this.
    """
    return _intensity_from_counts(log, spec, times, *_replay(log))


def _intensity_from_counts(log, spec, times, S, I):
    """``integrated_intensity``, given the counts ``_replay(log)``."""
    times = np.asarray(times, dtype=float)
    n = log.n
    s_frac, i_frac = S / n, I / n
    starts = np.concatenate(([0.0], log.times))
    whole = spec.lam_integral(starts[:-1], log.times) * s_frac[:-1] * i_frac[:-1]
    cum = np.concatenate(([0.0], np.cumsum(whole)))
    # a query at an event time reads the gap before that event
    k = np.searchsorted(log.times, times, side="left")
    return cum[k] + spec.lam_integral(starts[k], times) * s_frac[k] * i_frac[k]
