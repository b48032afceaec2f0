"""Exact event-driven simulation of the stochastic SIS/SIR/SIRS/SEIR models.

Infections arrive as a Poisson process with rate lambda(t) * S * I / n; each
newly infected agent draws its period durations up front, and its later
transitions are scheduled as bare times in one heap per transition code.
Between events the intensity is constant, so the next infection candidate is
an exponential draw; a time-tabulated rate is handled by thinning against
its maximum. No time discretization anywhere. Scheduled events win ties with
a candidate and go in code order among themselves; a candidate is drawn
before each of them while S * I > 0, so that order can change later draws.
The loop has one branch per kind of event: a pop from either heap, or an
accepted infection. New infections read their periods from one pool per
stage; the stages of a block of infections are drawn together.

The loop keeps the paper's epoch representation: it tracks only S and I,
which set the infection rate, and the infection epochs. Each count is a sum
of indicators over the epochs and the periods drawn at them, so the path
(the exact state at the grid times, up to the last node) and the event log
are counted from them after the loop. Initial agents get the ids 0..k-1 in
pool order; then each infection gets a new id in epoch order, never reused.

The loop, the path counts and ``_replay``, the vectorized replay of an
event log, all read the model's stage table and transition deltas
(``epilim.model``).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .distributions import _grid_steps, uniform_grid
from .model import (_STAGES, BECOME_INFECTIOUS, BECOME_SUSCEPTIBLE, INFECT, KINDS, RECOVER,
                    ModelSpec, TabulatedRate, transition_deltas)

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
        return blocks[-1][0].tolist()

    # one pool per stage; the second reads row 1 of the block the first has
    # just drawn, so the two stay in step and it takes nothing from the rng
    draw1 = _pool(new_block, 512)
    two = stages == 2
    if two:
        draw2 = _pool(lambda k: blocks[-1][1].tolist(), 512)
    # Python floats: faster than numpy scalars in the loop, and a rate too
    # small for the next candidate time gives inf without a warning. The pool
    # holds E n for an Exp(1) draw E: the candidate gap E n / (lam_max S I)
    # rounds as it would in the loop, with one product fewer per candidate
    edraw = _pool(lambda k: (rng.exponential(size=k) * n).tolist())
    lam_max = spec.lam_max()
    thin = spec.lam_constant() is None
    if thin:
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
        t_cand = t + edraw() / (lam_max * si) if si and lam_max else INF
        # ties go to the scheduled event, and between codes to the lower one
        if a <= b:
            if a <= t_cand:
                if a > t_end:
                    break
                t = pop(ha)
                S += dsa
                I += dia
                continue
        elif b <= t_cand:
            if b > t_end:
                break
            t = pop(hb)
            S += dsb
            I += dib
            continue
        if t_cand > t_end:
            break
        t = t_cand
        if thin and udraw() * lam_max > lam_at(t):
            continue  # thinned candidate, state unchanged
        tau(t)
        tx = t + draw1()
        push(ha, tx)
        if two:
            push(hb, tx + draw2())
        S += dsi
        I += dii

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
