"""Event-driven simulator: exactness, invariants, determinism, CTMC oracle."""

import numpy as np
import pytest
from scipy import stats

from epilim.agent_sim import (
    BECOME_SUSCEPTIBLE,
    INFECT,
    RECOVER,
    EventLog,
    ModelSpec,
    TabulatedRate,
    integrated_intensity,
    simulate,
    simulate_ensemble,
    transition_deltas,
)
from epilim.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    JointDurationDist,
    LogNormal,
    Uniform,
    equilibrium_dist,
)


def test_spec_validation_and_defaults():
    s = ModelSpec(kind="SIR", lam=1.0, i0=0.1, f=Gamma(2.0, 1.0))
    assert s.f0 == equilibrium_dist(Gamma(2.0, 1.0))
    h = JointDurationDist(g=Gamma(2.0, 4.0), f=Exponential(1.0))
    s = ModelSpec(kind="SEIR", lam=1.0, i0=0.1, e0=0.1, h=h)
    assert s.h0.g == equilibrium_dist(Gamma(2.0, 4.0)) and s.h0.f == Exponential(1.0)
    assert s.f0 == Exponential(1.0)  # stationary excess of Exp is itself
    s = ModelSpec(kind="SIRS", lam=1.0, i0=0.1, r0=0.2, h=h)
    assert s.h0.g == equilibrium_dist(Gamma(2.0, 4.0)) and s.h0.f == Exponential(1.0)
    assert s.f0 == Exponential(1.0)
    # a pool with zero mass leaves its law unset
    assert ModelSpec(kind="SEIR", lam=1.0, i0=0.1, h=h).h0 is None
    assert ModelSpec(kind="SEIR", lam=1.0, i0=0.0, e0=0.1, h=h).f0 is None
    assert ModelSpec(kind="SIRS", lam=1.0, i0=0.1, h=h).f0 is None
    assert ModelSpec(kind="SIRS", lam=1.0, i0=0.0, r0=0.1, h=h).h0 is None

    with pytest.raises(ValueError):
        ModelSpec(kind="SIRX", lam=1.0, i0=0.1, f=Exponential(1.0))
    with pytest.raises(ValueError):
        ModelSpec(kind="SIR", lam=-1.0, i0=0.1, f=Exponential(1.0))
    with pytest.raises(ValueError):
        ModelSpec(kind="SIR", lam=1.0, i0=1.2, f=Exponential(1.0))
    with pytest.raises(ValueError):
        ModelSpec(kind="SIR", lam=1.0, i0=0.5, e0=0.5, f=Exponential(1.0))
    with pytest.raises(ValueError):
        ModelSpec(kind="SIR", lam=1.0, i0=0.1)  # f missing
    with pytest.raises(ValueError):
        ModelSpec(kind="SEIR", lam=1.0, i0=0.1, f=Exponential(1.0))
    with pytest.raises(ValueError):
        ModelSpec(kind="SIS", lam=1.0, i0=0.2, e0=0.1, f=Exponential(1.0))
    # bucketed joint has no default residual pair law
    hb = JointDurationDist(
        g=Gamma(2.0, 4.0),
        bucket_centers=(0.5, 2.0),
        bucket_dists=(Exponential(1.0), Exponential(2.0)),
    )
    with pytest.raises(ValueError):
        ModelSpec(kind="SEIR", lam=1.0, i0=0.0, e0=0.1, h=hb)
    with pytest.raises(ValueError, match="no default residual law"):
        ModelSpec(kind="SIRS", lam=1.0, i0=0.1, h=hb)
    with pytest.raises(ValueError):
        TabulatedRate(times=(0.0, 1.0), values=(1.0, -0.5))
    with pytest.raises(ValueError):
        TabulatedRate(times=(0.5, 1.0), values=(1.0, 0.5))


def test_no_infection_scheduled_recoveries_only():
    spec = ModelSpec(kind="SIR", lam=0.0, i0=0.3, f=Exponential(1.0), f0=Deterministic(0.5))
    path, log = simulate(spec, 10, 2.0, 0.01, seed=1)
    assert np.all(path.I[path.grid < 0.5] == 3)
    assert np.all(path.I[path.grid >= 0.5] == 0)
    assert np.all(path.R[path.grid >= 0.5] == 3)
    assert np.all(path.A == 0)
    assert np.all(path.S + path.E + path.I + path.R == 10)


def test_disease_free_start_is_constant():
    spec = ModelSpec(kind="SIR", lam=2.0, i0=0.0, f=Exponential(1.0))
    path, log = simulate(spec, 50, 2.0, 0.1, seed=1)
    assert np.all(path.S == 50) and np.all(path.A == 0) and len(log) == 0


def test_sis_single_agent():
    spec = ModelSpec(kind="SIS", lam=2.0, i0=0.999, f=Exponential(1.0))
    path, log = simulate(spec, 1, 5.0, 0.01, seed=2)
    assert np.all(path.A == 0)  # S = 0 while infectious, so the rate is 0
    assert path.I[-1] == 0 and path.S[-1] == 1
    assert np.sum(log.codes == BECOME_SUSCEPTIBLE) == 1


def _replay_count(log, kind, tq):
    S = log.n - log.i0_count - log.e0_count - log.r0_count
    E, I, R = log.e0_count, log.i0_count, log.r0_count
    for t, c in zip(log.times, log.codes):
        if t > tq:
            break
        dS, dE, dI, dR = transition_deltas(kind, int(c))
        S += dS
        E += dE
        I += dI
        R += dR
    return S, E, I, R


def test_sir_conservation_monotonicity_and_recount():
    spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=Exponential(1.0))
    path, log = simulate(spec, 2000, 4.0, 0.01, seed=3)
    n = 2000
    assert np.all(path.S + path.E + path.I + path.R == n)
    assert np.all(np.diff(path.A) >= 0)
    assert np.all(np.diff(path.S) <= 0)
    assert np.all(np.diff(path.R) >= 0)
    assert np.all(path.S == path.S[0] - path.A)
    assert np.all(path.L == path.A)

    # brute-force recount: initially infected still alive + infections still alive
    rec = {}
    inf = {}
    for t, a, c in zip(log.times, log.agents, log.codes):
        if c == RECOVER:
            rec[a] = t
        elif c == INFECT:
            inf[a] = t
    rng = np.random.default_rng(0)
    for tq in rng.uniform(0.0, 4.0, 200):
        cnt = sum(1 for j in range(log.i0_count) if rec.get(j, np.inf) > tq)
        cnt += sum(1 for a, ti in inf.items() if ti <= tq and rec.get(a, np.inf) > tq)
        assert cnt == _replay_count(log, "SIR", tq)[2]
    # grid values agree with the replay at the nodes
    for k in (0, 100, 250, 400):
        assert path.I[k] == _replay_count(log, "SIR", path.grid[k])[2]


def test_integrated_intensity_lipschitz_and_compensator():
    spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=Exponential(1.0))
    path, log = simulate(spec, 2000, 4.0, 0.01, seed=3)
    ts = np.linspace(0.0, 4.0, 81)
    lam_bar = integrated_intensity(log, spec, ts)
    d = np.diff(lam_bar)
    assert np.all(d >= -1e-15)
    assert np.all(d <= 1.5 * 0.05 + 1e-12)
    # A(t) - n int lambda S I / n^2 is a martingale: stays within CLT range
    k = np.searchsorted(path.grid, ts, side="right") - 1
    resid = path.A[k] - log.n * lam_bar
    assert np.max(np.abs(resid)) < 6.0 * np.sqrt(log.n)


def test_seir_balance_and_order():
    h = JointDurationDist(g=Gamma(2.0, 4.0), f=Exponential(1.0))
    spec = ModelSpec(kind="SEIR", lam=1.5, i0=0.05, e0=0.05, h=h)
    path, log = simulate(spec, 2000, 4.0, 0.01, seed=5)
    assert np.all(path.S + path.E + path.I + path.R == 2000)
    assert np.all(path.E == path.E[0] + path.A - path.L)
    assert np.all(np.diff(path.L) >= 0)
    assert np.all(np.diff(path.S) <= 0)
    # each agent's transitions are ordered infect < onset < recover
    seen = {}
    for t, a, c in zip(log.times, log.agents, log.codes):
        if c == INFECT:
            seen[a] = t
        elif c in (RECOVER,):
            assert a in seen or a < log.i0_count + log.e0_count
    assert len(log.times) == 0 or np.all(np.diff(log.times) >= 0)


# deterministic periods force simultaneous events
_ATOM_SIRS = ModelSpec(
    kind="SIRS",
    lam=2.0,
    i0=0.2,
    r0=0.1,
    h=JointDurationDist(g=Deterministic(1.0), f=Deterministic(0.5)),
    h0=JointDurationDist(g=Uniform(0.0, 1.0), f=Deterministic(0.5)),
    f0=Uniform(0.0, 0.5),
)


def test_sirs_with_atom_collisions():
    # simultaneous events have a fixed processing order
    p1, _ = simulate(_ATOM_SIRS, 1000, 6.0, 0.01, seed=6)
    p2, _ = simulate(_ATOM_SIRS, 1000, 6.0, 0.01, seed=6)
    assert np.all(p1.S + p1.E + p1.I + p1.R == 1000)
    assert np.array_equal(p1.I, p2.I) and np.array_equal(p1.S, p2.S)
    assert p1.A[-1] > 0


def test_integrated_intensity_hand_log_closed_forms():
    # four agents, one initially infected; agent 1 is infected at 0.5 and
    # recovers at 1.2, agent 0 recovers at 1.5. The rate steps from 2 to 0.5
    # at 0.8, inside the gap (0.5, 1.2); S I / n^2 is 3/16, 1/4, 1/8, then 0.
    log = EventLog(times=np.array([0.5, 1.2, 1.5]),
                   agents=np.array([1, 1, 0], dtype=np.int64),
                   codes=np.array([INFECT, RECOVER, RECOVER], dtype=np.int8),
                   kind="SIR", n=4, i0_count=1)
    spec = ModelSpec(kind="SIR", lam=TabulatedRate(times=(0.0, 0.8), values=(2.0, 0.5)),
                     i0=0.25, f=Exponential(1.0))
    # 0.5 and 1.2 are event times
    ts = np.array([1.2, 0.0, 0.5, 1.0, 2.0])
    want = [
        2.0 * 0.5 * 3 / 16 + (2.0 * 0.3 + 0.5 * 0.4) / 4,
        0.0,
        2.0 * 0.5 * 3 / 16,
        2.0 * 0.5 * 3 / 16 + (2.0 * 0.3 + 0.5 * 0.2) / 4,
        2.0 * 0.5 * 3 / 16 + (2.0 * 0.3 + 0.5 * 0.4) / 4 + 0.5 * 0.3 / 8,
    ]
    np.testing.assert_allclose(integrated_intensity(log, spec, ts), want, rtol=0, atol=1e-15)


def test_tabulated_rate_integral_is_elementwise():
    tr = TabulatedRate(times=(0.0, 0.7, 1.3, 2.0), values=(1.5, 0.0, 2.5, 0.4))
    rng = np.random.default_rng(4)
    a = rng.uniform(-0.5, 3.0, 200)
    b = np.where(rng.uniform(size=200) < 0.2, a - 0.1, rng.uniform(-0.5, 3.0, 200))
    b[:4] = (0.7, 1.3, 2.0, 0.0)  # bounds on breakpoints
    got = tr.integral(a, b)
    assert got.shape == a.shape
    np.testing.assert_array_equal(got, [tr.integral(float(x), float(y)) for x, y in zip(a, b)])
    assert all(type(tr.integral(float(x), float(y))) is float for x, y in zip(a[:5], b[:5]))


def test_tabulated_rate_at_matches_on_grid():
    tr = TabulatedRate(times=(0.0, 0.7, 1.3, 2.0), values=(1.5, 0.0, 2.5, 0.4))
    ts = [-1.0, -0.0, 0.0, 0.3, 0.7, 1.0, 1.3, float(np.nextafter(1.3, 0.0)), 2.0,
          float(np.nextafter(2.0, 3.0)), 7.5, np.inf]
    got = [tr.at(t) for t in ts]
    assert got == tr.on_grid(np.array(ts)).tolist()
    assert got[:4] == [1.5] * 4 and got[4] == 0.0 and got[-3:] == [0.4] * 3
    assert all(type(v) is float for v in got)


def test_tabulated_rate_shuts_off():
    tr = TabulatedRate(times=(0.0, 1.0), values=(3.0, 0.0))
    assert tr.at(0.5) == 3.0 and tr.at(1.0) == 0.0 and tr.max_value() == 3.0
    assert abs(tr.integral(0.5, 2.0) - 1.5) < 1e-15
    spec = ModelSpec(kind="SIR", lam=tr, i0=0.1, f=Exponential(0.3))
    path, log = simulate(spec, 2000, 3.0, 0.01, seed=8)
    inf_times = log.times[log.codes == INFECT]
    assert len(inf_times) > 0 and inf_times.max() <= 1.0
    assert np.all(np.diff(path.A[path.grid >= 1.0]) == 0)


def test_ensemble_determinism_and_guards():
    spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=Exponential(1.0))
    paths = simulate_ensemble(spec, 500, 3, 2.0, 0.1, master_seed=7)
    paths2 = simulate_ensemble(spec, 500, 3, 2.0, 0.1, master_seed=7)
    for a, b in zip(paths, paths2):
        assert np.array_equal(a.I, b.I) and a.seed == b.seed
    # reps derive from (master, r): direct simulate with that stream matches
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1,)))
    direct, _ = simulate(spec, 500, 2.0, 0.1, rng)
    assert np.array_equal(direct.I, paths[1].I)
    with pytest.raises(ValueError, match="GB"):
        simulate_ensemble(spec, 500, 10**9, 2.0, 0.1, master_seed=7)
    # kept logs count too: about lam T n / 4 infections of two events each,
    # 17 B an event, about 1.6 MB here against 0.01 MB of paths
    small = dict(master_seed=7, memory_budget=10**6)
    with pytest.raises(ValueError, match="event logs"):
        simulate_ensemble(spec, 20_000, 3, 2.0, 0.1, keep_logs=True, **small)
    assert len(simulate_ensemble(spec, 20_000, 3, 2.0, 0.1, **small)) == 3
    with pytest.raises(ValueError):
        simulate_ensemble(spec, 500, 0, 2.0, 0.1, master_seed=7)
    # the guard sizes the grid without building it: 1e10 nodes is refused, not allocated
    with pytest.raises(ValueError, match="GB"):
        simulate_ensemble(spec, 500, 1, 10.0, 1e-9, master_seed=7)
    # simulate and the ensemble share uniform_grid's checks
    for horizon, dt, msg in ((0.0, 0.1, "horizon"), (2.0, 0.0, "dt must be positive")):
        with pytest.raises(ValueError, match=msg):
            simulate(spec, 500, horizon, dt, seed=1)
        with pytest.raises(ValueError, match=msg):
            simulate_ensemble(spec, 500, 3, horizon, dt, master_seed=7)
    _, logs = simulate_ensemble(spec, 200, 2, 1.0, 0.1, master_seed=9, keep_logs=True)
    assert len(logs) == 2 and logs[0].n == 200


_WORKER_SPECS = {
    "SIS": ModelSpec(kind="SIS", lam=2.0, i0=0.1, f=Exponential(1.0)),
    "SIR": ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=LogNormal(-0.3, 0.4)),
    "SIRS": ModelSpec(kind="SIRS", lam=1.5, i0=0.05, r0=0.1,
                      h=JointDurationDist(g=Exponential(1.0), f=Uniform(1.0, 3.0))),
    "SEIR": ModelSpec(kind="SEIR", lam=TabulatedRate(times=(0.0, 1.0), values=(2.0, 0.8)),
                      i0=0.02, e0=0.02,
                      h=JointDurationDist(g=Gamma(2.0, 2.0), f=Uniform(0.5, 1.5))),
}


@pytest.mark.parametrize("kind", sorted(_WORKER_SPECS))
def test_ensemble_equal_across_worker_counts(kind):
    spec = _WORKER_SPECS[kind]
    runs = [simulate_ensemble(spec, 300, 4, 3.0, 0.1, master_seed=13, workers=w,
                              keep_logs=True) for w in (1, 2)]
    (p1, l1), (p2, l2) = runs
    assert len(p1) == len(p2) == 4
    for a, b in zip(p1, p2):
        assert a.seed == b.seed
        for c in ("grid", "S", "E", "I", "R", "A", "L"):
            x, y = getattr(a, c), getattr(b, c)
            assert x.dtype == y.dtype and np.array_equal(x, y), c
    for a, b in zip(l1, l2):
        for c in ("times", "agents", "codes"):
            x, y = getattr(a, c), getattr(b, c)
            assert x.dtype == y.dtype and np.array_equal(x, y), c
    assert sum(len(lg) for lg in l1) > 0


@pytest.mark.parametrize("kind", sorted(_WORKER_SPECS))
def test_ensemble_paths_do_not_depend_on_keep_logs(kind):
    # the loop that keeps no log draws the same streams in the same order;
    # SEIR thins against a TabulatedRate, SIRS has simultaneous events
    spec = _ATOM_SIRS if kind == "SIRS" else _WORKER_SPECS[kind]
    kept, logs = simulate_ensemble(spec, 400, 3, 4.0, 0.05, master_seed=21, keep_logs=True)
    plain = simulate_ensemble(spec, 400, 3, 4.0, 0.05, master_seed=21)
    for a, b, lg in zip(kept, plain, logs):
        assert a.seed == b.seed
        for c in ("grid", "S", "E", "I", "R", "A", "L"):
            x, y = getattr(a, c), getattr(b, c)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), c
        assert len(lg) > 0


def test_horizon_rounds_to_the_last_node():
    # the grid rounds the horizon to a whole number of steps, and the run
    # ends at its last node, not at the horizon
    spec = ModelSpec(kind="SIR", lam=0.0, i0=0.5, f=Exponential(1.0))
    short, slog = simulate(spec, 2000, 1.0, 0.6, seed=1)
    full, flog = simulate(spec, 2000, 1.2, 0.6, seed=1)
    assert short.grid[-1] == 1.2 and np.array_equal(short.grid, full.grid)
    for c in ("S", "E", "I", "R", "A", "L"):
        assert np.array_equal(getattr(short, c), getattr(full, c)), c
    for c in ("times", "agents", "codes"):
        assert np.array_equal(getattr(slog, c), getattr(flog, c)), c
    assert slog.times[-1] > 1.0
    path, log = simulate(spec, 2000, 1.0, 0.4, seed=1)
    assert path.grid[-1] == pytest.approx(0.8)
    assert np.all(log.times <= path.grid[-1])
    assert path.R[-1] == len(log)


def test_initial_rounding():
    spec = ModelSpec(kind="SIR", lam=0.0, i0=0.26, f=Exponential(1.0))
    path, _ = simulate(spec, 10, 1.0, 0.5, seed=0)
    assert path.I[0] + path.S[0] == 10
    assert path.S[0] == 7  # round(10 * 0.26) = 3 infectious


def _gillespie_sir(n, lam, mu, i0n, t_end, rng):
    S = n - i0n
    I = i0n
    t = 0.0
    while I > 0:
        tot = lam * S * I / n + mu * I
        t += rng.exponential(1.0 / tot)
        if t > t_end:
            break
        if rng.uniform() * tot < lam * S * I / n:
            S -= 1
            I += 1
        else:
            I -= 1
    return S, I


def test_markovian_sir_matches_gillespie():
    # exponential periods make the model a CTMC; compare (S, I) at t = 1
    n, lam, mu, i0 = 100, 1.5, 1.0, 0.1
    reps = 4000
    rng = np.random.default_rng(123)
    oracle = np.array([_gillespie_sir(n, lam, mu, 10, 1.0, rng) for _ in range(reps)])

    spec = ModelSpec(kind="SIR", lam=lam, i0=i0, f=Exponential(mu), f0=Exponential(mu))
    ours = np.empty((reps, 2), dtype=np.int64)
    rng2 = np.random.default_rng(456)
    for r in range(reps):
        path, _ = simulate(spec, n, 1.0, 1.0, rng2)
        ours[r] = path.S[-1], path.I[-1]

    pooled_s = np.concatenate([oracle[:, 0], ours[:, 0]])
    pooled_i = np.concatenate([oracle[:, 1], ours[:, 1]])
    s_edges = np.unique(np.quantile(pooled_s, [0.0, 0.25, 0.5, 0.75]))
    i_edges = np.unique(np.quantile(pooled_i, [0.0, 0.34, 0.67]))

    def cells(sample):
        si = np.digitize(sample[:, 0], s_edges)
        ii = np.digitize(sample[:, 1], i_edges)
        key = si * 10 + ii
        return key

    keys = np.unique(np.concatenate([cells(oracle), cells(ours)]))
    a = np.array([np.sum(cells(oracle) == k) for k in keys])
    b = np.array([np.sum(cells(ours) == k) for k in keys])
    keep = (a + b) >= 10  # merge-out sparse cells
    table = np.vstack([a[keep], b[keep]])
    p = stats.chi2_contingency(table).pvalue
    assert p > 0.01, p
