"""Tests for the Gaussian limit machinery: driver covariances, joint
sampling, the fluctuation path solves, and the Markovian SIS SDE check."""

import numpy as np
import pytest

from epilim import (
    Deterministic,
    Exponential,
    Gamma,
    JointDurationDist,
    LogNormal,
    ModelSpec,
    PiecewiseEmpirical,
    Uniform,
    Weibull,
    solve_fluid,
    uniform_grid,
)
from epilim.fclt import (
    DRIVER_IDS,
    DriverCovariance,
    _chol_psd,
    _two_time_values,
    sample_drivers,
    sis_sde_path,
    solve_fclt_path,
)


def _sir_setup(dt=0.05, horizon=2.0, lam=1.5, i0=0.05):
    grid = uniform_grid(horizon, dt)
    spec = ModelSpec(kind="SIR", lam=lam, i0=i0, f=Exponential(1.0))
    return spec, solve_fluid(spec, grid), grid


def _seir_setup(dt=0.1, horizon=2.0):
    grid = uniform_grid(horizon, dt)
    h = JointDurationDist(g=Uniform(0.2, 1.0), f=LogNormal(-0.3, 0.4))
    spec = ModelSpec(kind="SEIR", lam=2.0, i0=0.03, e0=0.04, h=h)
    return spec, solve_fluid(spec, grid), grid


def _sirs_setup(dt=0.1, horizon=2.0):
    grid = uniform_grid(horizon, dt)
    h = JointDurationDist(g=Exponential(1.0), f=Uniform(0.5, 1.5))
    spec = ModelSpec(kind="SIRS", lam=2.5, i0=0.1, r0=0.15, h=h)
    return spec, solve_fluid(spec, grid), grid


def _var_se(v, reps):
    return max(v, 1e-12) * np.sqrt(2.0 / (reps - 1))


def _cov_se(va, vb, c, reps):
    return np.sqrt((va * vb + c * c) / (reps - 1))


# ---------------------------------------------------------------- analytic


def test_symmetry_on_probe_grid():
    _, fl, grid = _sir_setup()
    cov = DriverCovariance(fl)
    times = grid[2::2][:20]
    for x in DRIVER_IDS["SIR"]:
        for y in DRIVER_IDS["SIR"]:
            for t in times[::4]:
                for tp in times[::4]:
                    assert cov.cov(x, t, y, tp) == pytest.approx(
                        cov.cov(y, tp, x, t), abs=1e-14)

    _, fle, gride = _seir_setup()
    cove = DriverCovariance(fle)
    te = gride[2::3]
    for x in DRIVER_IDS["SEIR"]:
        for y in DRIVER_IDS["SEIR"]:
            for t in te:
                for tp in te:
                    assert cove.cov(x, t, y, tp) == pytest.approx(
                        cove.cov(y, tp, x, t), abs=1e-14)


def test_cauchy_schwarz_on_probe_grid():
    for setup in (_sir_setup, _seir_setup, _sirs_setup):
        _, fl, grid = setup()
        cov = DriverCovariance(fl)
        times = grid[1::3]
        for x in DRIVER_IDS[fl.kind]:
            vx = {t: cov.cov(x, t, x, t) for t in times}
            assert all(v >= -1e-14 for v in vx.values())
            for y in DRIVER_IDS[fl.kind]:
                vy = {t: cov.cov(y, t, y, t) for t in times}
                for t in times:
                    for tp in times:
                        c = cov.cov(x, t, y, tp)
                        assert abs(c) <= np.sqrt(max(vx[t], 0) * max(vy[tp], 0)) + 1e-12


def test_white_noise_consistency():
    # the cumulative driver splits into the disjoint-region pieces exactly
    _, fl, grid = _sir_setup()
    cov = DriverCovariance(fl)
    for t in grid[1:]:
        lhs = cov.cov("MA", t, "MA", t)
        rhs = (cov.cov("I1", t, "I1", t) + cov.cov("R1", t, "R1", t)
               + 2.0 * cov.cov("I1", t, "R1", t))
        assert abs(lhs - rhs) < 1e-10

    _, fle, gride = _seir_setup()
    cove = DriverCovariance(fle)
    for t in gride[1:]:
        ma = cove.cov("MA", t, "MA", t)
        el = (cove.cov("E1", t, "E1", t) + cove.cov("L1", t, "L1", t)
              + 2.0 * cove.cov("E1", t, "L1", t))
        assert abs(ma - el) < 1e-10
        l1 = cove.cov("L1", t, "L1", t)
        ir = (cove.cov("I1", t, "I1", t) + cove.cov("R1", t, "R1", t)
              + 2.0 * cove.cov("I1", t, "R1", t))
        assert abs(l1 - ir) < 1e-10


def test_cumulative_driver_variance_equals_fluid_cumulative():
    for setup in (_sir_setup, _seir_setup, _sirs_setup):
        _, fl, grid = setup()
        cov = DriverCovariance(fl)
        for k in (1, len(grid) // 2, len(grid) - 1):
            assert cov.cov("MA", grid[k], "MA", grid[k]) == pytest.approx(
                fl.A[k], abs=1e-10)
            # two-time value is the variance at the earlier time
            tlo, thi = grid[1], grid[k]
            assert cov.cov("MA", tlo, "MA", thi) == pytest.approx(fl.A[1], abs=1e-10)


def test_initial_block_closed_form():
    # half-life survival at t=1 gives i0 (1/2 - 1/4) exactly
    grid = uniform_grid(2.0, 0.05)
    spec = ModelSpec(kind="SIS", lam=0.8, i0=0.4, f=Exponential(1.0),
                     f0=Exponential(np.log(2.0)))
    fl = solve_fluid(spec, grid)
    cov = DriverCovariance(fl)
    assert cov.cov("I0", 1.0, "I0", 1.0) == pytest.approx(0.1, abs=1e-12)
    sf = spec.f0.sf
    for ta, tb in [(0.25, 1.5), (1.0, 1.0), (2.0, 0.5)]:
        want = 0.4 * (sf(max(ta, tb)) - sf(ta) * sf(tb))
        assert cov.cov("I0", ta, "I0", tb) == pytest.approx(want, abs=1e-12)
        assert cov.cov("R0", ta, "R0", tb) == pytest.approx(want, abs=1e-12)
        assert cov.cov("I0", ta, "R0", tb) == pytest.approx(-want, abs=1e-12)


def test_frozen_infectious_driver_variance():
    # Var of the still-infectious white-noise driver at t=1, Markovian SIR
    # lam=1.5 mu=1 i0=0.05. Pinned by a pre-build Monte Carlo of the
    # white-noise integrals; re-verified by quadrature refinement of
    # lam int_0^1 exp(-(1-s)) S(s) I(s) ds, which gives 0.05367061278 at
    # dt=1e-4 and extrapolates to the pinned value.
    _, fl, _ = _sir_setup(dt=0.02)
    cov = DriverCovariance(fl)
    v = cov.cov("I1", 1.0, "I1", 1.0)
    assert v == pytest.approx(0.053670612658120814, rel=0.01)


def test_w_covariance_against_quadrature():
    # Cov(MA(t), R1(t')) and Var(R1(t)) against a fine quadrature of
    # int_0^{min(t, t')} q(s) F(t' - s) ds, q linear between nodes. The gap
    # is the O(dt^2) error of the trapezoid on the grid: its worst relative
    # value over these probes is 0.069 at dt = 0.1, 0.0173 at dt = 0.05 and
    # 0.0043 at dt = 0.025 (at t = t' = 0.5, where F is small and curved),
    # so the bound is twice the dt = 0.05 value.
    spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=LogNormal(-0.3, 0.4))
    grid = uniform_grid(2.0, 0.05)
    cov = DriverCovariance(solve_fluid(spec, grid))
    for t, tp in [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (0.5, 1.5), (1.0, 2.0),
                  (1.5, 0.7), (2.0, 1.0)]:
        s = np.linspace(0.0, min(t, tp), 20001)
        exact = np.trapezoid(np.interp(s, grid, cov.qpath) * spec.f.cdf(tp - s), s)
        assert cov.cov("MA", t, "R1", tp) == pytest.approx(exact, rel=0.035)
        if t == tp:
            assert cov.cov("R1", t, "R1", t) == pytest.approx(exact, rel=0.035)


def test_cross_block_independence_and_validation():
    spec, fl, grid = _seir_setup()
    cov = DriverCovariance(fl)
    # initial blocks vs white-noise block, and the two initial pools
    for x, y in [("I01", "MA"), ("E0", "I1"), ("I01", "I02"), ("R01", "E0")]:
        assert cov.cov(x, 0.5, y, 1.5) == 0.0
    with pytest.raises(ValueError, match="driver"):
        cov.cov("XX", 0.5, "MA", 0.5)
    with pytest.raises(ValueError, match="driver"):
        cov.cov("MA", 0.5, "I0", 0.5)  # SEIR has no plain I0
    with pytest.raises(ValueError, match="node"):
        cov.cov("MA", 0.5, "MA", 0.517)
    sir = ModelSpec(kind="SIR", lam=1.0, i0=0.05, f=Exponential(1.0))
    with pytest.raises(ValueError, match="kind"):
        DriverCovariance(fl, spec=sir)
    bare = solve_fluid(spec, grid)
    bare.spec = None
    with pytest.raises(ValueError, match="spec"):
        DriverCovariance(bare)


def test_seir_with_instant_exposure_reduces_to_sir():
    grid = uniform_grid(2.0, 0.1)
    f = Exponential(1.0)
    f0 = Exponential(np.log(2.0))
    seir = ModelSpec(kind="SEIR", lam=1.5, i0=0.0, e0=0.05,
                     h=JointDurationDist(g=Deterministic(0.0), f=f),
                     h0=JointDurationDist(g=Deterministic(0.0), f=f0))
    sir = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=f, f0=f0)
    ce = DriverCovariance(solve_fluid(seir, grid))
    cs = DriverCovariance(solve_fluid(sir, grid))
    probes = [0.2, 0.7, 1.3, 2.0]
    pairs = [("MA", "MA"), ("I1", "I1"), ("R1", "R1"), ("I1", "R1"),
             ("MA", "I1"), ("MA", "R1"), ("L1", "MA")]
    for x, y in pairs:
        xs = "MA" if x == "L1" else x
        for t in probes:
            for tp in probes:
                assert ce.cov(x, t, y, tp) == pytest.approx(
                    cs.cov(xs, t, y, tp), abs=1e-10)
    for x, y, xx, yy in [("I02", "I02", "I0", "I0"), ("R02", "R02", "R0", "R0"),
                         ("I02", "R02", "I0", "R0")]:
        for t in probes:
            for tp in probes:
                assert ce.cov(x, t, y, tp) == pytest.approx(
                    cs.cov(xx, t, yy, tp), abs=1e-10)
    # the exposed compartment is empty in the reduction
    for t in probes:
        assert abs(ce.cov("E1", t, "E1", t)) < 1e-12
        assert abs(ce.cov("E0", t, "E0", t)) < 1e-12


def test_two_time_quadrature():
    grid = uniform_grid(2.0, 0.05)
    # sf and cdf modes are complementary under the first-stage mass
    hb = JointDurationDist(g=Uniform(0.1, 1.1), bucket_centers=(0.3, 0.9),
                           bucket_dists=(Exponential(2.0), Exponential(0.5)))
    for h in (hb, JointDurationDist(g=Gamma(2.0, 3.0), f=Weibull(1.5, 0.8))):
        for delta in (0, 4, -3):
            s = _two_time_values(h, grid, delta, "sf")
            c = _two_time_values(h, grid, delta, "cdf")
            assert np.max(np.abs(s + c - h.g.cdf(grid))) < 1e-12
    # independent case against a fine Stieltjes sum
    h = JointDurationDist(g=Gamma(2.0, 3.0), f=Weibull(1.5, 0.8))
    for k, delta in [(15, 0), (20, 3), (30, -2)]:
        got = _two_time_values(h, grid, delta, "cdf")[k]
        ys = np.linspace(0.0, grid[k], 40001)
        mids = 0.5 * (ys[1:] + ys[:-1])
        dg = np.diff(h.g.cdf(ys))
        want = float(np.sum(h.f.cdf((k + delta) * 0.05 - mids) * dg))
        assert got == pytest.approx(want, abs=5e-4)


def test_joint_covariance_matrix_is_psd():
    for setup in (_seir_setup, _sirs_setup):
        _, fl, grid = setup()
        cov = DriverCovariance(fl)
        times = [grid[2], grid[7], grid[13], grid[20]]
        pairs = [(d, t) for d in DRIVER_IDS[fl.kind] for t in times]
        mat = cov.matrix(pairs)
        assert np.max(np.abs(mat - mat.T)) == 0.0
        assert np.linalg.eigvalsh(mat)[0] >= -1e-8


# ---------------------------------------------------------------- sampling


def test_cholesky_jitter_policy():
    # a tiny negative eigenvalue is rounding: factored as rank deficiency
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    near = np.eye(2) - (1.0 + 1e-11) * np.outer(v, v)
    assert np.linalg.eigvalsh(near)[0] < 0.0
    lfac = _chol_psd(near, "probe")
    assert np.all(np.isfinite(lfac))
    assert np.max(np.abs(lfac @ lfac.T - near)) < 1e-10
    # genuinely indefinite block fails with the minimum eigenvalue
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(RuntimeError, match="eigenvalue"):
        _chol_psd(bad, "probe")


def test_sampled_driver_identities_hold_pathwise():
    rng = np.random.default_rng(11)
    spec, fl, grid = _sir_setup()
    dr = sample_drivers(DriverCovariance(fl), grid, rng, paths=200)
    assert np.max(np.abs(dr["MA"] - dr["I1"] - dr["R1"])) < 1e-12
    assert np.max(np.abs(dr["I0"] + dr["R0"])) == 0.0
    assert all(np.all(dr[d][:, 0] == 0.0) for d in ("MA", "I1", "R1"))

    spec, fl, grid = _seir_setup()
    dr = sample_drivers(DriverCovariance(fl), grid, rng, paths=200)
    assert np.max(np.abs(dr["MA"] - dr["E1"] - dr["L1"])) < 1e-12
    assert np.max(np.abs(dr["L1"] - dr["I1"] - dr["R1"])) < 1e-12
    assert np.max(np.abs(dr["L0"] + dr["E0"])) == 0.0
    assert np.max(np.abs(dr["R02"] + dr["E0"] + dr["I02"])) < 1e-15
    assert np.max(np.abs(dr["I01"] + dr["R01"])) == 0.0


def test_sampled_covariance_matches_analytic():
    # every driver, ten (t, t') probes, three standard-error bands. The 220
    # checks share one seed, so an exact sampler fails about one seed in
    # four at any path count; more paths only narrow each absolute band.
    cases = [
        (_sir_setup, 24000, [(0.25, 0.25), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0),
                             (0.5, 1.0), (0.25, 2.0), (1.0, 2.0), (1.5, 0.5),
                             (0.75, 1.25), (2.0, 1.75)]),
        (_seir_setup, 20000, [(0.2, 0.2), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0),
                              (0.5, 1.0), (0.3, 1.8), (1.0, 2.0), (1.5, 0.5),
                              (0.8, 1.2), (2.0, 1.6)]),
        (_sirs_setup, 20000, [(0.2, 0.2), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0),
                              (0.5, 1.0), (0.3, 1.8), (1.0, 2.0), (1.5, 0.5),
                              (0.8, 1.2), (2.0, 1.6)]),
    ]
    rng = np.random.default_rng(2025)
    for setup, reps, probes in cases:
        _, fl, grid = setup()
        cov = DriverCovariance(fl)
        dr = sample_drivers(cov, grid, rng, paths=reps)
        nodes = {t: int(round(t / cov.dt)) for t, _ in probes}
        nodes.update({tp: int(round(tp / cov.dt)) for _, tp in probes})
        for d in DRIVER_IDS[fl.kind]:
            for t, tp in probes:
                a = dr[d][:, nodes[t]]
                b = dr[d][:, nodes[tp]]
                emp = float(np.dot(a - a.mean(), b - b.mean()) / (reps - 1))
                ana = cov.cov(d, t, d, tp)
                se = _cov_se(cov.cov(d, t, d, t), cov.cov(d, tp, d, tp), ana, reps)
                assert abs(emp - ana) <= 3.0 * max(se, 1e-6), (fl.kind, d, t, tp)


def test_sampled_cross_driver_covariance():
    rng = np.random.default_rng(17)
    _, fl, grid = _seir_setup()
    cov = DriverCovariance(fl)
    reps = 5000
    dr = sample_drivers(cov, grid, rng, paths=reps)
    checks = [("E1", 0.5, "I1", 1.0), ("I1", 1.0, "R1", 2.0), ("MA", 0.5, "R1", 2.0),
              ("E0", 0.5, "I02", 1.0), ("I01", 0.5, "R01", 1.5), ("E0", 0.3, "R02", 1.2)]
    for x, t, y, tp in checks:
        kx, ky = int(round(t / cov.dt)), int(round(tp / cov.dt))
        a, b = dr[x][:, kx], dr[y][:, ky]
        emp = float(np.dot(a - a.mean(), b - b.mean()) / (reps - 1))
        ana = cov.cov(x, t, y, tp)
        se = _cov_se(cov.cov(x, t, x, t), cov.cov(y, tp, y, tp), ana, reps)
        assert abs(emp - ana) <= 3.0 * max(se, 1e-6), (x, t, y, tp)


def test_degenerate_residual_blocks():
    # a deterministic residual clock carries no fluctuation at all
    grid = uniform_grid(2.0, 0.1)
    spec = ModelSpec(kind="SIR", lam=1.0, i0=0.2, f=Exponential(1.0),
                     f0=Deterministic(0.7))
    fl = solve_fluid(spec, grid)
    cov = DriverCovariance(fl)
    assert cov.cov("I0", 0.6, "I0", 0.6) == 0.0
    assert cov.cov("I0", 0.7, "I0", 0.7) == 0.0
    dr = sample_drivers(cov, grid, np.random.default_rng(3), paths=2000)
    assert np.max(np.abs(dr["I0"])) == 0.0

    # a flat cdf segment repeats survival values and the block goes
    # rank deficient; its factor must be exact
    flat = PiecewiseEmpirical([0.0, 0.3, 0.8, 1.2], [0.0, 0.6, 0.6, 1.0])
    spec = ModelSpec(kind="SIR", lam=1.0, i0=0.2, f=Exponential(1.0), f0=flat)
    fl = solve_fluid(spec, grid)
    cov = DriverCovariance(fl)
    assert cov.cov("I0", 0.4, "I0", 0.4) == cov.cov("I0", 0.8, "I0", 0.8)
    reps = 4000
    dr = sample_drivers(cov, grid, np.random.default_rng(3), paths=reps)
    i0p = dr["I0"]
    # no recoveries inside the flat segment, so the paths stay put there
    seg = i0p[:, 4:9]
    assert np.max(np.abs(seg - seg[:, :1])) == 0.0
    ana = cov.cov("I0", 0.5, "I0", 0.5)
    assert ana == pytest.approx(0.2 * 0.4 * 0.6, abs=1e-12)
    emp = i0p[:, 5].var(ddof=1)
    assert abs(emp - ana) <= 3.0 * _var_se(ana, reps)


def test_sample_grid_must_match():
    _, fl, grid = _sir_setup()
    cov = DriverCovariance(fl)
    with pytest.raises(ValueError, match="grid"):
        sample_drivers(cov, uniform_grid(2.0, 0.1), np.random.default_rng(0))


# -------------------------------------------------------------- path solves


def _zero_drivers(kind, n):
    return {d: np.zeros(n) for d in DRIVER_IDS[kind]}


def test_solve_zero_forcing_gives_zero_paths():
    spec, fl, grid = _sir_setup()
    path = solve_fclt_path(_zero_drivers("SIR", len(grid)), fl, spec, grid)
    for arr in (path.Shat, path.Ihat, path.Rhat):
        assert np.max(np.abs(arr)) == 0.0
    assert path.Ihat.shape == grid.shape


def test_solve_initial_decay_without_contacts():
    grid = uniform_grid(2.0, 0.05)
    spec = ModelSpec(kind="SIR", lam=0.0, i0=0.3, f=Exponential(1.0),
                     f0=Uniform(0.0, 2.0))
    fl = solve_fluid(spec, grid)
    path = solve_fclt_path(_zero_drivers("SIR", len(grid)), fl, spec, grid, ihat0=1.0)
    assert np.max(np.abs(path.Ihat - spec.f0.sf(grid))) < 1e-12
    assert np.max(np.abs(path.Shat + 1.0)) < 1e-12
    assert np.max(np.abs(path.Rhat - spec.f0.cdf(grid))) < 1e-12


def test_solve_sum_identities_on_sampled_paths():
    rng = np.random.default_rng(5)
    spec, fl, grid = _sir_setup()
    dr = sample_drivers(DriverCovariance(fl), grid, rng, paths=50)
    path = solve_fclt_path(dr, fl, spec, grid, ihat0=0.2)
    assert np.max(np.abs(path.Shat + path.Ihat + path.Rhat)) < 1e-10

    spec, fl, grid = _seir_setup()
    dr = sample_drivers(DriverCovariance(fl), grid, rng, paths=50)
    path = solve_fclt_path(dr, fl, spec, grid, ihat0=0.1, ehat0=-0.1)
    assert np.max(np.abs(path.Shat + path.Ehat + path.Ihat + path.Rhat)) < 1e-10

    spec, fl, grid = _sirs_setup()
    dr = sample_drivers(DriverCovariance(fl), grid, rng, paths=50)
    path = solve_fclt_path(dr, fl, spec, grid)
    assert np.max(np.abs(path.Shat + path.Ihat + path.Rhat)) < 1e-12

    spec, fl, grid = _sir_setup(lam=0.9)
    sis = ModelSpec(kind="SIS", lam=0.9, i0=0.05, f=Exponential(1.0))
    fls = solve_fluid(sis, grid)
    dr = sample_drivers(DriverCovariance(fls), grid, rng, paths=50)
    path = solve_fclt_path(dr, fls, sis, grid)
    assert np.max(np.abs(path.Shat + path.Ihat)) == 0.0


def test_solve_validation():
    spec, fl, grid = _sir_setup()
    dr = _zero_drivers("SIR", len(grid))
    missing = dict(dr)
    del missing["R1"]
    with pytest.raises(ValueError, match="R1"):
        solve_fclt_path(missing, fl, spec, grid)
    with pytest.raises(ValueError, match="grid"):
        solve_fclt_path(dr, fl, spec, uniform_grid(2.0, 0.1))
    sespec, sefl, segrid = _seir_setup()
    with pytest.raises(ValueError, match="kind"):
        solve_fclt_path(dr, sefl, spec, segrid)
    # initial infectious fluctuation without a residual law
    h = JointDurationDist(g=Uniform(0.2, 1.0), f=LogNormal(-0.3, 0.4))
    noi = ModelSpec(kind="SEIR", lam=2.0, i0=0.0, e0=0.04, h=h)
    flni = solve_fluid(noi, segrid)
    zd = _zero_drivers("SEIR", len(segrid))
    with pytest.raises(ValueError, match="residual"):
        solve_fclt_path(zd, flni, noi, segrid, ihat0=1.0)
    out = solve_fclt_path(zd, flni, noi, segrid, ehat0=1.0)  # fine without f0
    assert np.max(np.abs(out.Ehat + out.Ihat + out.Rhat + out.Shat)) < 1e-10


def test_solved_path_variance_matches_sde():
    # Markovian SIS: the Volterra route and the SDE route agree in law
    lam, mu, i0 = 2.0, 1.0, 0.3
    grid = uniform_grid(2.0, 0.02)
    spec = ModelSpec(kind="SIS", lam=lam, i0=i0, f=Exponential(mu),
                     f0=Exponential(mu))
    fl = solve_fluid(spec, grid)
    cov = DriverCovariance(fl)
    rng = np.random.default_rng(42)
    reps = 3000
    dr = sample_drivers(cov, grid, rng, paths=reps)
    volt = solve_fclt_path(dr, fl, spec, grid).Ihat
    sde = sis_sde_path(lam, mu, fl, 0.0, grid, rng, paths=reps)
    k = int(round(1.0 / 0.02))
    v1, v2 = volt[:, k].var(ddof=1), sde[:, k].var(ddof=1)
    band = 3.0 * np.sqrt(_var_se(v1, reps) ** 2 + _var_se(v2, reps) ** 2)
    assert abs(v1 - v2) <= band + 0.02 * v2  # small Euler bias allowance


def test_sde_variance_without_contacts():
    # lam = 0 reduces to a decaying OU bridge with known variance
    mu, i0 = 1.0, 0.3
    grid = uniform_grid(2.0, 0.005)
    spec = ModelSpec(kind="SIS", lam=0.0, i0=i0, f=Exponential(mu))
    fl = solve_fluid(spec, grid)
    rng = np.random.default_rng(9)
    reps = 5000
    paths = sis_sde_path(0.0, mu, fl, 0.0, grid, rng, paths=reps)
    for t in (0.5, 1.0, 2.0):
        k = int(round(t / 0.005))
        want = i0 * (np.exp(-mu * t) - np.exp(-2.0 * mu * t))
        got = paths[:, k].var(ddof=1)
        assert got == pytest.approx(want, rel=0.05)


def test_sde_drift_only_matches_linear_ode():
    lam, mu = 2.0, 1.0
    grid = uniform_grid(2.0, 0.001)
    spec = ModelSpec(kind="SIS", lam=lam, i0=0.3, f=Exponential(mu))
    fl = solve_fluid(spec, grid)
    path = sis_sde_path(lam, mu, fl, 1.0, grid, np.random.default_rng(0), noise=False)
    # exact solution of x' = (lam(1 - 2 Ibar) - mu) x by fine quadrature
    rate = lam * (1.0 - 2.0 * fl.I) - mu
    cumr = np.concatenate(([0.0], np.cumsum(0.001 * 0.5 * (rate[1:] + rate[:-1]))))
    exact = np.exp(cumr)
    assert np.max(np.abs(path - exact)) < 5e-3
    with pytest.raises(ValueError, match="mu"):
        sis_sde_path(1.0, 0.0, fl, 0.0, grid, np.random.default_rng(0))
