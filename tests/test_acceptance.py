"""End-to-end acceptance checks at full scale.

Each test prints one PASS/FAIL line (collected into the terminal summary)
and enforces the stated tolerance and runtime budget.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from epilim import (
    Deterministic,
    DriverCovariance,
    Exponential,
    JointDurationDist,
    LogNormal,
    ModelSpec,
    convergence_rate,
    diffusion_scale,
    reconstruct_drivers,
    sample_drivers,
    simulate,
    simulate_ensemble,
    sis_sde_path,
    solve_deterministic_delay,
    solve_fclt_path,
    solve_fluid,
    solve_markovian_ode,
    uniform_grid,
    verify_equilibrium_identities,
)

REPORT_LINES = []


def _report(ok, name, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    REPORT_LINES.append(line)
    print(line)


def _sup_vs(a, b, comps="SEIR"):
    return max(float(np.max(np.abs(getattr(a, c) - getattr(b, c))))
               for c in comps)


# --------------------------------------------------------------------------
# 1. renewal fluid solver vs Markovian ODE


def test_markovian_fluid_matches_ode():
    start = time.perf_counter()
    grid = uniform_grid(20.0, 1e-3)
    errs = {}

    sir = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=Exponential(1.0))
    errs["SIR"] = _sup_vs(solve_fluid(sir, grid),
                          solve_markovian_ode(sir, grid))
    seir = ModelSpec(kind="SEIR", lam=1.5, i0=0.05, e0=0.05,
                     h=JointDurationDist(g=Exponential(1.0),
                                         f=Exponential(1.0)))
    errs["SEIR"] = _sup_vs(solve_fluid(seir, grid),
                           solve_markovian_ode(seir, grid))
    elapsed = time.perf_counter() - start
    worst = max(errs.values())
    ok = worst < 1e-4 and elapsed < 10.0
    _report(ok, "markovian consistency",
            f"sup error SIR {errs['SIR']:.2e}, SEIR {errs['SEIR']:.2e} "
            f"(tol 1e-4), {elapsed:.1f}s (budget 10s)")
    assert worst < 1e-4
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 2. law-of-large-numbers convergence rate


def test_flln_rate_slope():
    start = time.perf_counter()
    sizes = [100, 1000, 10_000, 100_000]
    slopes = {}
    for label, f, seed in (
            ("exponential", Exponential(1.0), 101),
            ("lognormal", LogNormal(-0.125, 0.5), 202)):
        spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=f)
        out = convergence_rate(spec, sizes, reps=20, horizon=5.0,
                               grid_dt=0.05, master_seed=seed)
        slopes[label] = out["slope"]
    elapsed = time.perf_counter() - start
    ok = all(-0.65 <= s <= -0.35 for s in slopes.values()) and elapsed < 600.0
    _report(ok, "flln convergence rate",
            f"log-log slopes exp {slopes['exponential']:.3f}, "
            f"logn {slopes['lognormal']:.3f} (window [-0.65, -0.35]), "
            f"{elapsed:.0f}s (budget 600s)")
    for label, s in slopes.items():
        assert -0.65 <= s <= -0.35, (label, s)
    assert elapsed < 600.0


# --------------------------------------------------------------------------
# 3 + 4 share one large simulated ensemble

N_BIG = 10_000
REPS_BIG = 2000
DT = 0.05
PROBE_TIMES = (0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def big_ensemble():
    spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=Exponential(1.0))
    start = time.perf_counter()
    paths, logs = simulate_ensemble(spec, N_BIG, REPS_BIG, 2.0, DT,
                                    master_seed=31415, keep_logs=True)
    return spec, paths, logs, time.perf_counter() - start


def test_driver_covariances_match_theory(big_ensemble):
    spec, paths, logs, sim_elapsed = big_ensemble
    start = time.perf_counter()
    times = np.array(PROBE_TIMES)
    samples = {d: np.empty((REPS_BIG, len(times)))
               for d in ("MA", "I1", "R1")}
    for r, log in enumerate(logs):
        rec = reconstruct_drivers(log, spec, times)
        for d in samples:
            samples[d][r] = rec[d]

    grid = uniform_grid(2.0, DT)
    cov = DriverCovariance(solve_fluid(spec, grid))
    worst = 0.0
    failures = []
    for d, xs in samples.items():
        centered = xs - xs.mean(axis=0)
        emp = centered.T @ centered / (REPS_BIG - 1)
        for i, t in enumerate(PROBE_TIMES):
            for j, tp in enumerate(PROBE_TIMES):
                ana = cov.cov(d, t, d, tp)
                va = cov.cov(d, t, d, t)
                vb = cov.cov(d, tp, d, tp)
                se = np.sqrt((va * vb + ana * ana) / (REPS_BIG - 1))
                pull = abs(emp[i, j] - ana) / max(se, 1e-12)
                worst = max(worst, pull)
                if pull > 3.0:
                    failures.append((d, t, tp, pull))
    elapsed = time.perf_counter() - start + sim_elapsed
    ok = not failures and elapsed < 900.0
    _report(ok, "driver covariances",
            f"27 probe-pair checks, worst |emp-ana| = {worst:.2f} SE "
            f"(limit 3), n={N_BIG}, reps={REPS_BIG}, "
            f"{elapsed:.0f}s (budget 900s)")
    assert not failures, failures
    assert elapsed < 900.0


def test_fluctuation_variance_matches_limit(big_ensemble):
    spec, paths, logs, _ = big_ensemble
    grid = uniform_grid(2.0, DT)
    fl = solve_fluid(spec, grid)
    hats = np.stack([diffusion_scale(p, fl).I for p in paths])

    drv = sample_drivers(DriverCovariance(fl),
                         np.random.default_rng(27182), paths=5000)
    limit = solve_fclt_path(drv, fl)

    rels = {}
    for t in (1.0, 2.0):
        k = round(t / DT)
        v_emp = float(hats[:, k].var(ddof=1))
        v_lim = float(limit.Ihat[:, k].var(ddof=1))
        rels[t] = abs(v_emp - v_lim) / v_lim
    ok = all(r < 0.10 for r in rels.values())
    _report(ok, "fluctuation variance",
            f"relative gap at t=1: {rels[1.0]:.3f}, t=2: {rels[2.0]:.3f} "
            f"(limit 0.10), 5000 limit paths")
    for t, r in rels.items():
        assert r < 0.10, (t, r)


# --------------------------------------------------------------------------
# 5. two representations of the fluctuation law


def test_sis_variance_two_representations():
    start = time.perf_counter()
    spec = ModelSpec(kind="SIS", lam=2.0, i0=0.3, f=Exponential(1.0))
    grid = uniform_grid(5.0, 0.005)
    fl = solve_fluid(spec, grid)

    drv = sample_drivers(DriverCovariance(fl),
                         np.random.default_rng(7), paths=5000)
    volterra = solve_fclt_path(drv, fl)
    sde = sis_sde_path(fl, 0.0, np.random.default_rng(8), paths=5000)

    gaps = {}
    for t in (0.5, 1.0, 2.0, 5.0):
        k = round(t / 0.005)
        v1 = float(volterra.Ihat[:, k].var(ddof=1))
        v2 = float(sde[:, k].var(ddof=1))
        se = np.sqrt(2.0 / 4999.0) * np.sqrt(v1 * v1 + v2 * v2)
        gaps[t] = abs(v1 - v2) / (3.0 * se)
    elapsed = time.perf_counter() - start
    worst = max(gaps.values())
    ok = worst < 1.0 and elapsed < 120.0
    _report(ok, "sis representation equivalence",
            f"worst |v1-v2| = {worst:.2f} of the combined 3-SE band "
            f"at t in {{0.5,1,2,5}}, 5000+5000 paths, "
            f"{elapsed:.0f}s (budget 120s)")
    for t, g in gaps.items():
        assert g < 1.0, (t, g)
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# 6. endemic equilibria


def test_endemic_equilibria():
    sis = ModelSpec(kind="SIS", lam=2.0, i0=0.1, f=Exponential(1.0))
    fl = solve_fluid(sis, uniform_grid(100.0, 0.025))
    gap_sis = abs(float(fl.I[-1]) - 0.5)

    sirs = ModelSpec(kind="SIRS", lam=3.0, i0=0.1,
                     h=JointDurationDist(g=Exponential(1.0),
                                         f=Exponential(2.0)))
    fl2 = solve_fluid(sirs, uniform_grid(200.0, 0.05))
    target = {"S": 1 / 3, "I": 4 / 9, "R": 2 / 9}
    gap_sirs = max(abs(float(getattr(fl2, c)[-1]) - v)
                   for c, v in target.items())

    rep = verify_equilibrium_identities(sirs, uniform_grid(10.0, 0.01))
    res = max(rep["identities"]["residual1"], rep["identities"]["residual2"])
    rep_sis = verify_equilibrium_identities(sis, uniform_grid(10.0, 0.01))
    res = max(res, rep_sis["identities"]["residual1"],
              rep_sis["identities"]["residual2"])

    ok = gap_sis < 1e-3 and gap_sirs < 1e-3 and res < 1e-10
    _report(ok, "endemic equilibria",
            f"|I(100)-1/2| = {gap_sis:.1e}, SIRS gap at t=200 = "
            f"{gap_sirs:.1e} (tol 1e-3), identity residuals {res:.1e} "
            f"(tol 1e-10)")
    assert gap_sis < 1e-3
    assert gap_sirs < 1e-3
    assert res < 1e-10


# --------------------------------------------------------------------------
# 7. point-mass periods: delay form, renewal form, one big simulation


def test_deterministic_period_delay_form():
    lam, xi, eta, i0 = 2.0, 1.0, 0.5, 0.1
    spec = ModelSpec(kind="SIRS", lam=lam, i0=i0,
                     h=JointDurationDist(g=Deterministic(xi),
                                         f=Deterministic(eta)))
    grid = uniform_grid(10.0, 0.01)
    fl = solve_fluid(spec, grid)
    dl = solve_deterministic_delay(spec, grid)
    solver_gap = _sup_vs(fl, dl, comps="SIR")

    path, _ = simulate(spec, 100_000, 10.0, 0.01, np.random.default_rng(0))
    sim_gap = max(float(np.max(np.abs(getattr(path, c) / 100_000
                                      - getattr(fl, c))))
                  for c in "SIR")
    ok = solver_gap < 1e-6 and sim_gap < 0.01
    _report(ok, "deterministic periods",
            f"delay-vs-renewal sup {solver_gap:.1e} (tol 1e-6), "
            f"n=100000 simulation sup {sim_gap:.4f} (tol 0.01)")
    assert solver_gap < 1e-6
    assert sim_gap < 0.01


# --------------------------------------------------------------------------
# 8. the module-level property suites


def test_invariant_suite():
    start = time.perf_counter()
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests", "-q",
         "--ignore", "tests/test_acceptance.py"],
        cwd=root, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    ok = proc.returncode == 0 and elapsed < 300.0
    _report(ok, "invariant suite",
            f"{tail}, {elapsed:.0f}s (budget 300s)")
    if proc.returncode != 0:
        print(proc.stdout[-4000:])
    assert proc.returncode == 0
    assert elapsed < 300.0
