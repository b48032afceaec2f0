"""Scaling transforms, ensemble statistics, rate fits, and event-log
driver reconstruction."""

import numpy as np
import pytest

from epilim import agent_sim, harness
from epilim import (
    CompartmentPath,
    DriverCovariance,
    Exponential,
    FluctuationPath,
    JointDurationDist,
    LogNormal,
    ModelSpec,
    TabulatedRate,
    Uniform,
    convergence_rate,
    diffusion_scale,
    empirical_cov,
    fit_rate,
    fluid_scale,
    integrated_intensity,
    reconstruct_drivers,
    simulate,
    simulate_ensemble,
    solve_fluid,
    uniform_grid,
)


def _sir_spec(lam=1.5, i0=0.05, f=None):
    return ModelSpec(kind="SIR", lam=lam, i0=i0, f=f or Exponential(1.0))


def test_fluid_scale_counts_to_fractions():
    spec = _sir_spec()
    rng = np.random.default_rng(0)
    path, _ = simulate(spec, 100, 2.0, 0.1, rng)
    scaled = fluid_scale(path)
    assert scaled.S[0] == path.S[0] / 100
    total = scaled.S + scaled.E + scaled.I + scaled.R
    assert np.max(np.abs(total - 1.0)) < 1e-12
    assert path.S.dtype.kind == "i" and scaled.S.dtype.kind == "f"


def test_fluid_scale_ensemble_mean_matches_binomial_survival():
    # lam = 0: infections never happen, the infected pool thins by the
    # residual law, so each node count is binomial with p = F0^c(t)
    spec = ModelSpec(kind="SIR", lam=0.0, i0=0.2, f=Exponential(1.0),
                     f0=Uniform(0.0, 2.0))
    n, reps = 400, 300
    paths = simulate_ensemble(spec, n, reps, 1.5, 0.25, master_seed=7)
    stats = empirical_cov([fluid_scale(p) for p in paths])
    i0n = n - int(paths[0].S[0])
    grid = paths[0].grid
    p = spec.f0.sf(grid)
    want = (i0n / n) * p
    band = 3.0 * np.sqrt((i0n / n) * p * (1.0 - p) / n / reps) + 1e-12
    assert np.all(np.abs(stats.mean["I"] - want) <= band)


def test_diffusion_scale_identities():
    spec = _sir_spec()
    grid = uniform_grid(2.0, 0.05)
    fl = solve_fluid(spec, grid)
    # a synthetic path equal to the fluid solution has zero fluctuations
    ghost = CompartmentPath(grid=grid, S=fl.S.copy(), E=fl.E.copy(),
                            I=fl.I.copy(), R=fl.R.copy(), A=fl.A.copy(),
                            L=fl.L.copy(), n=1000, kind="SIR")
    hat = diffusion_scale(ghost, fl)
    assert np.max(np.abs(hat.I)) == 0.0 and np.max(np.abs(hat.S)) == 0.0

    path, _ = simulate(spec, 2000, 2.0, 0.05, np.random.default_rng(1))
    hat = diffusion_scale(path, fl)
    assert np.max(np.abs(hat.S + hat.I + hat.R)) < 1e-9
    # pre-scaling first gives bitwise identical fluctuations
    hat2 = diffusion_scale(fluid_scale(path), fl)
    for c in ("S", "I", "R", "A"):
        assert np.array_equal(getattr(hat, c), getattr(hat2, c))


def test_diffusion_scale_validation():
    spec = _sir_spec()
    grid = uniform_grid(2.0, 0.05)
    fl = solve_fluid(spec, grid)
    path, _ = simulate(spec, 500, 2.0, 0.05, np.random.default_rng(2))
    other = solve_fluid(ModelSpec(kind="SIS", lam=1.5, i0=0.05,
                                  f=Exponential(1.0)), grid)
    with pytest.raises(ValueError, match="kind"):
        diffusion_scale(path, other)
    short = solve_fluid(spec, uniform_grid(1.0, 0.05))
    with pytest.raises(ValueError, match="grid"):
        diffusion_scale(path, short)


def _normal_paths(rng, reps, grid):
    out = []
    for _ in range(reps):
        vals = {c: rng.standard_normal(len(grid)) for c in "SEIRAL"}
        out.append(FluctuationPath(grid=grid, S=vals["S"], E=vals["E"],
                                   I=vals["I"], R=vals["R"], A=vals["A"],
                                   L=vals["L"], n=1, kind="SIR"))
    return out


def test_empirical_cov_moments():
    grid = uniform_grid(1.0, 0.25)
    rng = np.random.default_rng(8)
    reps = 4000
    stats = empirical_cov(_normal_paths(rng, reps, grid),
                          probes=[("I", 0.25), ("I", 0.75), ("R", 0.5)])
    band = 3.0 * np.sqrt(2.0 / (reps - 1))
    assert np.all(np.abs(stats.var["I"] - 1.0) <= band)
    assert np.all(np.abs(stats.mean["I"]) <= 3.0 / np.sqrt(reps))
    assert np.allclose(stats.se["I"], np.sqrt(stats.var["I"] / reps))
    assert stats.cov.shape == (3, 3)
    assert np.max(np.abs(stats.cov - stats.cov.T)) == 0.0
    assert np.linalg.eigvalsh(stats.cov)[0] >= -1e-8
    assert abs(stats.cov[0, 0] - 1.0) <= band
    assert abs(stats.cov[0, 1]) <= band  # independent probes
    d = stats.as_dict()
    assert d["reps"] == reps and len(d["cov"]) == 3


def test_empirical_cov_degenerate_and_validation():
    grid = uniform_grid(1.0, 0.5)
    one = _normal_paths(np.random.default_rng(3), 1, grid)[0]
    twin = FluctuationPath(grid=grid, S=one.S.copy(), E=one.E.copy(),
                           I=one.I.copy(), R=one.R.copy(), A=one.A.copy(),
                           L=one.L.copy(), n=1, kind="SIR")
    stats = empirical_cov([one, twin], probes=[("I", 0.5)])
    assert np.all(stats.var["I"] == 0.0)
    assert stats.cov[0, 0] == 0.0
    with pytest.raises(ValueError, match="two repl"):
        empirical_cov([one])
    with pytest.raises(ValueError, match="compartment"):
        empirical_cov([one, twin], probes=[("X", 0.5)])
    with pytest.raises(ValueError, match="node"):
        empirical_cov([one, twin], probes=[("I", 0.31)])


def test_fit_rate_exact_and_degenerate():
    ns = [100, 1000, 10000, 100000]
    errs = [3.0 / np.sqrt(v) for v in ns]
    out = fit_rate(ns, errs)
    assert out["slope"] == pytest.approx(-0.5, abs=1e-12)
    assert out["r2"] == pytest.approx(1.0, abs=1e-12)
    flat = fit_rate(ns, [0.0, 0.0, 0.0, 0.0])
    assert flat["slope"] is None and "degenerate" in flat["note"]
    with pytest.raises(ValueError):
        fit_rate([100], [0.1])


def test_convergence_rate_small_run():
    out = convergence_rate(_sir_spec(), [100, 1000, 10000], reps=4,
                           horizon=1.0, grid_dt=0.05, master_seed=11)
    assert set(out) >= {"n_list", "errors", "slope", "r2", "reps"}
    assert len(out["errors"]) == 3
    assert all(e > 0 for e in out["errors"])
    assert out["errors"][0] > out["errors"][2]  # errors shrink with n
    assert -0.9 < out["slope"] < -0.1
    with pytest.raises(ValueError, match="decades"):
        convergence_rate(_sir_spec(), [100, 200, 400], 2, 1.0, 0.1)


def test_reconstructed_drivers_hand_log():
    # four agents, one initially infected; agent 1 is infected at 0.5 and
    # recovers at 1.2, the initial agent recovers at 1.5 (outside the
    # post-zero pool). All compensators then have closed forms.
    from math import exp

    from epilim.agent_sim import EventLog

    log = EventLog(times=np.array([0.5, 1.2, 1.5]),
                   agents=np.array([1, 1, 0], dtype=np.int64),
                   codes=np.array([0, 2, 2], dtype=np.int8),
                   kind="SIR", n=4, i0_count=1)
    spec = ModelSpec(kind="SIR", lam=1.0, i0=0.25, f=Exponential(1.0))
    dr = reconstruct_drivers(log, spec, np.array([1.0, 2.0]))

    def isf(x):
        return 1.0 - exp(-x) if x > 0 else 0.0

    # piecewise-constant S I / n^2: 3/16 on (0, 0.5), 1/4 on (0.5, 1.2),
    # 1/8 on (1.2, 1.5), 0 afterwards
    comp_ma_1 = 3 / 16 * 0.5 + 1 / 4 * 0.5
    comp_i1_1 = 3 / 16 * (isf(1.0) - isf(0.5)) + 1 / 4 * isf(0.5)
    assert dr["MA"][0] == pytest.approx((1 - 4 * comp_ma_1) / 2, abs=1e-12)
    assert dr["I1"][0] == pytest.approx((1 - 4 * comp_i1_1) / 2, abs=1e-12)
    assert dr["R1"][0] == pytest.approx(
        (0 - 4 * (comp_ma_1 - comp_i1_1)) / 2, abs=1e-12)

    comp_ma_2 = comp_ma_1 + 1 / 4 * 0.2 + 1 / 8 * 0.3
    comp_i1_2 = (3 / 16 * (isf(2.0) - isf(1.5)) + 1 / 4 * (isf(1.5) - isf(0.8))
                 + 1 / 8 * (isf(0.8) - isf(0.5)))
    assert dr["MA"][1] == pytest.approx((1 - 4 * comp_ma_2) / 2, abs=1e-12)
    assert dr["I1"][1] == pytest.approx((0 - 4 * comp_i1_2) / 2, abs=1e-12)
    assert dr["R1"][1] == pytest.approx(
        (1 - 4 * (comp_ma_2 - comp_i1_2)) / 2, abs=1e-12)


def test_reconstructed_drivers_sis_reused_id():
    # SIS, four agents, 0 and 1 initially infected. Agent 0 exits at 0.4, is
    # reinfected under the same id at 0.7 and exits again at 1.1; agent 1
    # exits at 1.6. Only the exit at 1.1 ends a post-time-zero infection.
    from math import exp

    from epilim.agent_sim import EventLog

    log = EventLog(times=np.array([0.4, 0.7, 1.1, 1.6]),
                   agents=np.array([0, 0, 0, 1], dtype=np.int64),
                   codes=np.array([3, 0, 3, 3], dtype=np.int8),
                   kind="SIS", n=4, i0_count=2)
    spec = ModelSpec(kind="SIS", lam=1.0, i0=0.5, f=Exponential(1.0))
    dr = reconstruct_drivers(log, spec, np.array([1.0, 2.0]))

    def isf(x):
        return 1.0 - exp(-x) if x > 0 else 0.0

    # S I / n^2: 1/4 on (0, 0.4), 3/16 on (0.4, 0.7), 1/4 on (0.7, 1.1),
    # 3/16 on (1.1, 1.6), 0 afterwards
    comp_ma_1 = 1 / 4 * 0.4 + 3 / 16 * 0.3 + 1 / 4 * 0.3
    comp_i1_1 = (1 / 4 * (isf(1.0) - isf(0.6)) + 3 / 16 * (isf(0.6) - isf(0.3))
                 + 1 / 4 * isf(0.3))
    assert dr["MA"][0] == pytest.approx((1 - 4 * comp_ma_1) / 2, abs=1e-12)
    assert dr["I1"][0] == pytest.approx((1 - 4 * comp_i1_1) / 2, abs=1e-12)
    assert dr["R1"][0] == pytest.approx(
        (0 - 4 * (comp_ma_1 - comp_i1_1)) / 2, abs=1e-12)

    comp_ma_2 = 1 / 4 * 0.4 + 3 / 16 * 0.3 + 1 / 4 * 0.4 + 3 / 16 * 0.5
    comp_i1_2 = (1 / 4 * (isf(2.0) - isf(1.6)) + 3 / 16 * (isf(1.6) - isf(1.3))
                 + 1 / 4 * (isf(1.3) - isf(0.9)) + 3 / 16 * (isf(0.9) - isf(0.4)))
    assert dr["MA"][1] == pytest.approx((1 - 4 * comp_ma_2) / 2, abs=1e-12)
    assert dr["I1"][1] == pytest.approx((0 - 4 * comp_i1_2) / 2, abs=1e-12)
    assert dr["R1"][1] == pytest.approx(
        (1 - 4 * (comp_ma_2 - comp_i1_2)) / 2, abs=1e-12)


def test_reconstructed_drivers_identity_on_simulated_run():
    spec = _sir_spec(f=LogNormal(-0.3, 0.4))
    rng = np.random.default_rng(21)
    _, log = simulate(spec, 2000, 2.0, 0.05, rng)
    times = np.array([0.0, 0.5, 1.0, 1.7, 2.0])
    dr = reconstruct_drivers(log, spec, times)
    assert dr["MA"][0] == 0.0 and dr["I1"][0] == 0.0
    # the martingale splits into the two duration-window pieces
    assert np.max(np.abs(dr["MA"] - dr["I1"] - dr["R1"])) < 1e-9


def test_reconstruct_drivers_replays_the_log_once(monkeypatch):
    # the counts serve the martingale's compensator too; MA is unchanged,
    # bit for bit, from the one that integrated_intensity gives
    spec = _sir_spec(f=LogNormal(-0.3, 0.4))
    _, log = simulate(spec, 1000, 2.0, 0.05, np.random.default_rng(22))
    times = np.array([0.3, 1.0, 2.0])
    calls, replay = [], agent_sim._replay

    def counted(lg):
        calls.append(lg)
        return replay(lg)

    monkeypatch.setattr(harness, "_replay", counted)
    monkeypatch.setattr(agent_sim, "_replay", counted)
    dr = reconstruct_drivers(log, spec, times)
    assert len(calls) == 1
    monkeypatch.undo()
    a_cnt = np.searchsorted(log.times[log.codes == 0], times, side="right")
    ma = (a_cnt - log.n * integrated_intensity(log, spec, times)) / np.sqrt(log.n)
    assert dr["MA"].tobytes() == ma.tobytes()


def test_reconstructed_driver_variances_match_analytic():
    spec = _sir_spec()
    n, reps = 500, 300
    paths = simulate_ensemble(spec, n, reps, 2.0, 0.05, master_seed=5,
                              keep_logs=True)
    paths, logs = paths
    grid = uniform_grid(2.0, 0.05)
    fl = solve_fluid(spec, grid)
    cov = DriverCovariance(fl)
    times = np.array([1.0, 2.0])
    samples = {d: np.empty((reps, len(times))) for d in ("MA", "I1", "R1")}
    for r, log in enumerate(logs):
        dr = reconstruct_drivers(log, spec, times)
        for d in samples:
            samples[d][r] = dr[d]
    for d in samples:
        for j, t in enumerate(times):
            ana = cov.cov(d, t, d, t)
            emp = samples[d][:, j].var(ddof=1)
            se = ana * np.sqrt(2.0 / (reps - 1))
            # finite-n bias of order n^{-1/2} on top of Monte Carlo noise
            assert abs(emp - ana) <= 3.0 * se + 3.0 * ana / np.sqrt(n), (d, t)


def test_reconstruct_validation_and_lam_zero():
    grid_dt, horizon = 0.1, 1.0
    seir = ModelSpec(kind="SEIR", lam=1.0, i0=0.05, e0=0.05,
                     h=JointDurationDist(g=Exponential(2.0),
                                         f=Exponential(1.0)))
    _, log = simulate(seir, 200, horizon, grid_dt, np.random.default_rng(0))
    with pytest.raises(ValueError, match="one-stage"):
        reconstruct_drivers(log, seir, [0.5])

    ramp = ModelSpec(kind="SIR", lam=TabulatedRate((0.0, 0.5), (1.0, 2.0)),
                     i0=0.1, f=Exponential(1.0))
    _, log = simulate(ramp, 200, horizon, grid_dt, np.random.default_rng(1))
    with pytest.raises(ValueError, match="constant"):
        reconstruct_drivers(log, ramp, [0.5])

    still = ModelSpec(kind="SIR", lam=0.0, i0=0.1, f=Exponential(1.0))
    _, log = simulate(still, 300, horizon, grid_dt, np.random.default_rng(2))
    dr = reconstruct_drivers(log, still, [0.25, 0.75])
    for arr in dr.values():
        assert np.max(np.abs(arr)) == 0.0
