"""Running one workload step and checking what it produced.

A CLI step is one in-process ``epilim.cli.main`` call, as a user would type
``epilim <engine> config.json``.  The ``drivers`` step calls the public API
directly.  Every check raises ``CheckFailed``; the worker counts the step
as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from types import SimpleNamespace

import numpy as np

from epilim import (
    DriverCovariance,
    cli,
    reconstruct_drivers,
    simulate_ensemble,
    solve_fluid,
)

from spans import path_events

RATE_WINDOW = (-0.65, -0.35)
MAX_PULL = 4.0
FLUID_SUM_TOL = 1e-12
# The fclt sampler may add up to 1e-8 to the diagonal of a singular initial
# covariance block before factoring it, so a variance that is zero in the
# limit at t = 0 can read up to about that much times a chi-square factor.
T0_VAR_TOL = 1e-7


class CheckFailed(Exception):
    pass


def _require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def driver_cov_matrix(fluid, pairs):
    """Theory covariance of the (driver, time) pairs."""
    return DriverCovariance(fluid).matrix(pairs)


def run_drivers(cfg) -> dict:
    """Simulate with event logs, rebuild the drivers, compare with theory.

    Off-diagonal pull = |empirical - theory| / SE with the Gaussian SE of a
    sample covariance, as in the acceptance test for driver covariances.
    A sample variance is skewed at a hundred replications, so diagonal
    pulls use its chi-square law instead (variance_pull).
    """
    spec, reps = cfg.spec, cfg.reps
    paths, logs = simulate_ensemble(spec, cfg.n, reps, cfg.horizon, cfg.dt,
                                    cfg.master_seed, keep_logs=True)
    times = np.array(cfg.probes)
    recs = [reconstruct_drivers(lg, spec, times) for lg in logs]
    fl = solve_fluid(spec, cfg.grid())
    worst = 0.0
    for d in ("MA", "I1", "R1"):
        xs = np.stack([r[d] for r in recs])
        xs = xs - xs.mean(axis=0)
        emp = xs.T @ xs / (reps - 1)
        ana = driver_cov_matrix(fl, [(d, t) for t in cfg.probes])
        var = np.diag(ana)
        se = np.sqrt((np.outer(var, var) + ana * ana) / (reps - 1))
        pulls = np.abs(emp - ana) / np.maximum(se, 1e-12)
        for i in range(len(var)):
            pulls[i, i] = abs(variance_pull(emp[i, i], var[i], reps))
        worst = max(worst, float(np.max(pulls)))
    return {"events": sum(len(lg) for lg in logs),
            "events_from_paths": sum(path_events(p) for p in paths),
            "worst_pull": worst}


def run_cli(engine, config_path, outdir) -> int:
    os.environ["EPILIM_OUTDIR"] = outdir
    return cli.main([engine, config_path])


# ---------------------------------------------------------------------------
# output checks; each returns the work counts it read from the outputs


def _csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_simulate(cfg, outdir, rep):
    names = sorted(f for f in os.listdir(outdir) if f.startswith("sim_"))
    _require(len(names) == cfg.reps, f"{len(names)} CSVs for {cfg.reps} reps")
    events = 0
    for name in names:
        header, a = _csv(os.path.join(outdir, name))
        col = {h: a[:, i] for i, h in enumerate(header)}
        total = col["S"] + col["E"] + col["I"] + col["R"]
        _require(np.all(total == cfg.n), f"{name}: S+E+I+R != n")
        events += path_events(SimpleNamespace(kind=cfg.spec.kind, **col))
    _require(os.path.exists(os.path.join(outdir, "stats.json")),
             "stats.json missing")
    return {"events": events, "reps": cfg.reps}


def _check_fluid(cfg, outdir, rep):
    header, a = _csv(os.path.join(outdir, "fluid.csv"))
    _require(np.all(np.isfinite(a)), "fluid.csv has non-finite values")
    total = a[:, 1:5].sum(axis=1)
    err = float(np.max(np.abs(total - 1.0)))
    _require(err <= FLUID_SUM_TOL, f"fractions sum off by {err:.2e}")
    diag = rep["diagnostics"]
    return {"nodes": len(a), "max_iterations": diag["max_iterations"],
            "halvings": diag["halvings"]}


def _check_verify(cfg, outdir, rep):
    _require(rep["passed"] and rep["max_sup_error"] < cli.VERIFY_TOL,
             f"verify sup error {rep['max_sup_error']:.2e}")
    return {"verify_sup_err": rep["max_sup_error"]}


def _check_equilibrium(cfg, outdir, rep):
    _require(rep["passed"], "equilibrium identities failed")
    return {"probes": rep["fixed_point"]["probes"]}


def _check_rate(cfg, outdir, rep):
    lo, hi = RATE_WINDOW
    _require(rep["slope"] is not None and lo <= rep["slope"] <= hi,
             f"rate slope {rep['slope']} outside [{lo}, {hi}]")
    return {"slope": rep["slope"], "reps": cfg.reps * len(cfg.n)}


def variance_pull(v, v_ref, paths, ref_paths=None):
    """z-score of a Gaussian sample variance against a reference.

    With ``ref_paths`` the reference is itself a sample variance and
    v / v_ref follows F(paths - 1, ref_paths - 1); without it the
    reference is exact and (paths - 1) v / v_ref follows chi-square with
    paths - 1 degrees of freedom.  The tail probability is mapped to a
    standard normal score, which for many paths is (v - v_ref) / SE.
    """
    # imported here, after set-up is timed: scipy.stats is part of epilim's
    # set-up only for as long as epilim itself imports it
    from scipy import stats

    d1 = paths - 1
    if ref_paths is None:
        law, x = stats.chi2(d1), d1 * v / v_ref
    else:
        law, x = stats.f(d1, ref_paths - 1), v / v_ref
    if x >= law.median():
        return float(stats.norm.isf(law.sf(x)))
    return float(-stats.norm.isf(law.cdf(x)))


def _check_fclt(cfg, outdir, rep, reference):
    _require(reference is not None, "no reference variances for this step")
    header, a = _csv(os.path.join(outdir, "fclt.csv"))
    _require(np.all(np.isfinite(a)), "fclt.csv has non-finite values")
    _require(np.all(a[:, 1:] >= 0.0), "negative variance")
    t0 = float(np.max(a[0, 1:]))
    _require(t0 <= T0_VAR_TOL, f"variance {t0:.3g} at t = 0")
    if cfg.spec.kind == "SIS":
        _require(np.array_equal(a[:, 1], a[:, 3]), "var_Shat != var_Ihat")
    worst = 0.0
    for col, ref in reference["var"].items():
        v = a[reference["nodes"], header.index(col)]
        for vi, ri in zip(v, ref):
            z = abs(variance_pull(vi, ri, cfg.reps, reference["paths"]))
            _require(math.isfinite(z) and z <= MAX_PULL,
                     f"{col}: variance {vi:.4g} vs reference {ri:.4g} "
                     f"is {z:.1f} SE away")
            worst = max(worst, z)
    return {"paths": cfg.reps, "nodes": len(a), "worst_pull": worst,
            "var_t0_max": t0}


CHECKS = {
    "simulate": _check_simulate,
    "fluid": _check_fluid,
    "verify": _check_verify,
    "equilibrium": _check_equilibrium,
    "rate": _check_rate,
}


def check_outputs(engine, cfg, outdir, reference) -> dict:
    """Run the engine's checks on outdir; return counts and file hashes."""
    manifest = _json(os.path.join(outdir, "manifest.json"))
    rep = manifest["report"]
    if engine == "fclt":
        info = _check_fclt(cfg, outdir, rep, reference)
    else:
        info = CHECKS[engine](cfg, outdir, rep)
    hashes, size = {}, 0
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    info["bytes_written"] = size
    return info, hashes


def check_drivers(out) -> dict:
    _require(out["worst_pull"] <= MAX_PULL,
             f"driver covariance pull {out['worst_pull']:.2f} SE")
    _require(out["events"] == out["events_from_paths"],
             "event log length differs from the compartment counts")
    return {"events": out["events"], "worst_pull": out["worst_pull"]}
