"""Scaling transforms and ensemble statistics linking simulation to limits.

fluid_scale and diffusion_scale implement the n^-1 and sqrt(n) scalings,
empirical_cov aggregates replications into moment estimates with standard
errors, convergence_rate fits the law-of-large-numbers error decay, and
reconstruct_drivers rebuilds the scaled martingale and duration-noise
processes of one run exactly from its event log. It reads the counts from
the simulator's one vectorized replay of the log (agent_sim._replay) and
the exit transition from the model's stage table (model._STAGES), so no event
is visited in a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agent_sim import (
    CompartmentPath,
    EventLog,
    _intensity_from_counts,
    _replay,
    simulate_ensemble,
)
from .distributions import uniform_grid
from .fluid import FluidSolution, solve_fluid
from .model import _STAGES, INFECT, ModelSpec

__all__ = [
    "EnsembleStats",
    "FluctuationPath",
    "convergence_rate",
    "diffusion_scale",
    "empirical_cov",
    "fit_rate",
    "fluid_scale",
    "reconstruct_drivers",
]

_COMPARTMENTS = ("S", "E", "I", "R", "A", "L")


@dataclass
class FluctuationPath:
    """sqrt(n)-scaled deviations of one run from the fluid path."""

    grid: np.ndarray
    S: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray
    A: np.ndarray
    L: np.ndarray
    n: int
    kind: str


@dataclass
class EnsembleStats:
    """Per-node moments of an ensemble plus probe covariance matrices."""

    grid: np.ndarray
    reps: int
    mean: dict = field(repr=False)
    var: dict = field(repr=False)
    se: dict = field(repr=False)
    probes: tuple = ()
    cov: np.ndarray | None = None

    def as_dict(self) -> dict:
        out = {
            "reps": self.reps,
            "grid": self.grid.tolist(),
            "mean": {k: v.tolist() for k, v in self.mean.items()},
            "var": {k: v.tolist() for k, v in self.var.items()},
            "se": {k: v.tolist() for k, v in self.se.items()},
        }
        if self.cov is not None:
            out["probes"] = [[c, float(t)] for c, t in self.probes]
            out["cov"] = self.cov.tolist()
        return out


def fluid_scale(path: CompartmentPath) -> CompartmentPath:
    """Counts divided by the population size, everything else unchanged."""
    n = path.n
    if n < 1:
        raise ValueError("population size must be at least 1")
    vals = {c: getattr(path, c).astype(float) / n for c in _COMPARTMENTS}
    return CompartmentPath(grid=path.grid, n=n, kind=path.kind, seed=path.seed,
                           **vals)


def diffusion_scale(path: CompartmentPath, fluid: FluidSolution) -> FluctuationPath:
    """sqrt(n) (fluid-scaled path - fluid solution), compartment by compartment.

    Integer-dtype paths are raw counts and are fluid-scaled first; float
    paths are taken as already scaled, so pre-scaling commutes bitwise.
    """
    if path.kind != fluid.kind:
        raise ValueError("path and fluid solution have different model kinds")
    if len(path.grid) != len(fluid.grid) or np.max(
            np.abs(path.grid - fluid.grid)) > 1e-9:
        raise ValueError("path and fluid solution must share the grid")
    root = np.sqrt(path.n)
    vals = {}
    for c in _COMPARTMENTS:
        arr = getattr(path, c)
        scaled = arr.astype(float) / path.n if np.issubdtype(
            arr.dtype, np.integer) else arr
        vals[c] = root * (scaled - getattr(fluid, c))
    return FluctuationPath(grid=path.grid, n=path.n, kind=path.kind, **vals)


def _node(grid, t: float) -> int:
    dt = float(grid[1] - grid[0])
    k = int(round(float(t) / dt))
    if not 0 <= k < len(grid) or abs(grid[k] - t) > 1e-9:
        raise ValueError(f"probe time {t} is not a node of the grid")
    return k


def empirical_cov(paths, probes=None) -> EnsembleStats:
    """Unbiased cross-replication moments, optionally with probe covariances.

    probes is a list of (compartment, time) pairs; the covariance matrix is
    indexed in probe order.
    """
    paths = list(paths)
    reps = len(paths)
    if reps < 2:
        raise ValueError("need at least two replications")
    grid = paths[0].grid
    mean, var, se = {}, {}, {}
    stacks = {}
    for c in _COMPARTMENTS:
        stack = np.stack([np.asarray(getattr(p, c), dtype=float) for p in paths])
        stacks[c] = stack
        mean[c] = stack.mean(axis=0)
        var[c] = np.clip(stack.var(axis=0, ddof=1), 0.0, None)
        se[c] = np.sqrt(var[c] / reps)
    stats = EnsembleStats(grid=grid, reps=reps, mean=mean, var=var, se=se)
    if probes:
        cols = []
        kept = []
        for comp, t in probes:
            comp = comp.upper()
            if comp not in _COMPARTMENTS:
                raise ValueError(f"unknown compartment {comp!r}")
            cols.append(stacks[comp][:, _node(grid, t)])
            kept.append((comp, float(t)))
        x = np.stack(cols, axis=1)
        x = x - x.mean(axis=0)
        stats.cov = (x.T @ x) / (reps - 1)
        stats.probes = tuple(kept)
    return stats


def fit_rate(n_list, errors) -> dict:
    """Least-squares log-log fit of error against population size.

    Degenerate inputs (a zero or negative mean error) are reported without
    a fit.
    """
    ns = np.asarray(n_list, dtype=float)
    es = np.asarray(errors, dtype=float)
    if len(ns) != len(es) or len(ns) < 2:
        raise ValueError("need matching n and error lists of length >= 2")
    out = {"n_list": [int(v) for v in ns], "errors": [float(v) for v in es]}
    if np.any(es <= 0.0):
        out["slope"] = None
        out["r2"] = None
        out["note"] = "degenerate errors, no fit"
        return out
    lx, ly = np.log(ns), np.log(es)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    tot = ly - ly.mean()
    ss_tot = float(np.dot(tot, tot))
    r2 = 1.0 - float(np.dot(resid, resid)) / ss_tot if ss_tot > 0 else 1.0
    out["slope"] = float(slope)
    out["r2"] = float(r2)
    return out


def convergence_rate(spec: ModelSpec, n_list, reps: int, horizon: float,
                     grid_dt: float, master_seed: int = 0,
                     workers: int = 1) -> dict:
    """Mean sup-norm error of the scaled infectious path per population size,
    with a log-log rate fit."""
    ns = [int(v) for v in n_list]
    if len(ns) < 3 or max(ns) < 100 * min(ns):
        raise ValueError("need at least 3 sizes spanning two decades")
    grid = uniform_grid(horizon, grid_dt)
    fl = solve_fluid(spec, grid)
    errors = []
    for j, n in enumerate(ns):
        paths = simulate_ensemble(spec, n, reps, horizon, grid_dt,
                                  master_seed + j, workers=workers)
        sups = [float(np.max(np.abs(p.I / n - fl.I))) for p in paths]
        errors.append(float(np.mean(sups)))
    out = fit_rate(ns, errors)
    out["reps"] = int(reps)
    out["horizon"] = float(horizon)
    return out


def reconstruct_drivers(log: EventLog, spec: ModelSpec, times) -> dict:
    """Scaled driver processes of one SIS/SIR run, exact from the event log.

    MA is the scaled infection martingale A - int lam S I / n; I1 and R1
    center the still-infectious and recovered counts of the post-time-zero
    infections at their conditional compensators, so MA = I1 + R1 up to
    rounding. Segment integrals use the closed-form integrated survival of
    the infectious law, so there is no quadrature error. Requires a
    constant contact rate.
    """
    if spec.kind not in ("SIS", "SIR"):
        raise ValueError("driver reconstruction covers the one-stage kinds")
    lam = spec.lam_constant()
    if lam is None:
        raise ValueError("driver reconstruction needs a constant contact rate")
    times = np.asarray(times, dtype=float)
    n = log.n
    root = np.sqrt(n)

    S, I = _replay(log)
    seg_a = np.concatenate(([0.0], log.times))
    seg_b = np.append(log.times, max(float(np.max(times, initial=0.0)), seg_a[-1]))
    seg_w = lam * (S / n) * (I / n)
    taus = log.times[log.codes == INFECT]
    # An exit ends a post-time-zero infection unless it is the first log
    # entry of its agent id: only initial agents exit with no infection
    # before them. The simulator never reuses an id, but the rule does not
    # rely on that, so a log that reuses ids reads the same.
    first = np.zeros(len(log), dtype=bool)
    first[np.unique(log.agents, return_index=True)[1]] = True
    exit_code = _STAGES[log.kind][-1][2][-1]
    exits = log.times[(log.codes == exit_code) & ~first]

    comp_ma = _intensity_from_counts(log, spec, times, S, I)
    a_cnt = np.searchsorted(taus, times, side="right")
    ma = (a_cnt - n * comp_ma) / root

    f = spec.f
    comp_i1 = np.empty(len(times))
    for j, t in enumerate(times):
        vals = f.int_sf(t - seg_a) - f.int_sf(t - seg_b)
        comp_i1[j] = float(np.dot(seg_w, vals))
    r_cnt = np.searchsorted(exits, times, side="right")
    i1 = (a_cnt - r_cnt - n * comp_i1) / root
    r1 = (r_cnt - n * (comp_ma - comp_i1)) / root
    return {"MA": ma, "I1": i1, "R1": r1}
