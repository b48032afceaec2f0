"""Tests for the Gaussian limit machinery: driver covariances, joint
sampling, the fluctuation path solves, and the Markovian SIS SDE check."""

import hashlib
import sys
import tracemalloc
from unittest import mock

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
    TabulatedRate,
    Uniform,
    Weibull,
    solve_fluid,
    solve_markovian_ode,
    tabulate_kernels,
    uniform_grid,
)
from epilim.distributions import _conv_cdf_values
from epilim.fclt import (
    _LAW,
    DRIVER_IDS,
    DriverCovariance,
    _chol_psd,
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


def _fclt_sis_setup(dt=0.0125, horizon=5.0):
    # the benchmark's fclt_sis model on 401 nodes: its W block is 802 x 802
    grid = uniform_grid(horizon, dt)
    spec = ModelSpec(kind="SIS", lam=2.0, i0=0.3, f=Gamma(2.0, 2.0))
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
    # the variance of a W count is its fluid mean: R1 against the fluid's R
    # less its initial pools, with an atom in the second stage
    grid = uniform_grid(4.0, 0.1)
    h = JointDurationDist(g=Uniform(0.5, 1.5), f=Deterministic(1.0))
    for spec in (ModelSpec(kind="SEIR", lam=1.5, i0=0.05, e0=0.05, h=h),
                 ModelSpec(kind="SIRS", lam=1.5, i0=0.05, r0=0.1, h=h)):
        fl = solve_fluid(spec, grid)
        kt = tabulate_kernels(spec.h, spec.h0, grid)
        if spec.kind == "SEIR":
            post = fl.R - spec.e0 * kt.phi0 - spec.i0 * spec.f0.cdf(grid)
        else:
            post = fl.R - spec.i0 * kt.psi0 - spec.r0 * spec.f0.sf(grid)
        cov = DriverCovariance(fl)
        got = np.array([cov.cov("R1", t, "R1", t) for t in grid])
        assert np.max(np.abs(got - post)) < 1e-12
    # the same for one-stage laws with atoms: R1 against R less the i0 pool
    for f in (Deterministic(1.0), PiecewiseEmpirical([0.5, 1.0, 1.0, 2.0], [0.0, 0.3, 0.7, 1.0])):
        spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=f)
        fl = solve_fluid(spec, grid)
        cov = DriverCovariance(fl)
        got = np.array([cov.cov("R1", t, "R1", t) for t in grid])
        assert np.max(np.abs(got - (fl.R - spec.i0 * spec.f0.cdf(grid)))) < 1e-12, f
    # and for an atom in the first stage: L1 against L less the e0 pool
    spec = ModelSpec(kind="SEIR", lam=2.0, i0=0.03, e0=0.04,
                     h=JointDurationDist(g=Deterministic(0.5), f=Exponential(1.0)))
    for dt in (0.1, 0.05, 0.025):
        grid = uniform_grid(4.0, dt)
        fl = solve_fluid(spec, grid)
        cov = DriverCovariance(fl)
        got = np.array([cov.cov("L1", t, "L1", t) for t in grid])
        assert np.max(np.abs(got - (fl.L - spec.e0 * spec.h0.g.cdf(grid)))) < 1e-12, dt
    # SIS at its endemic state, q = lam S I = 1/2 throughout: I1 counts the
    # infections of the last time unit, so its variance is 1/2 once t >= 1
    spec = ModelSpec(kind="SIS", lam=2.0, i0=0.5, f=Deterministic(1.0))
    for dt in (0.05, 0.025):
        grid = uniform_grid(5.0, dt)
        fl = solve_fluid(spec, grid)
        cov = DriverCovariance(fl)
        got = np.array([cov.cov("I1", t, "I1", t) for t in grid])
        assert np.max(np.abs(got - (fl.I - spec.i0 * spec.f0.sf(grid)))) < 1e-12
        assert abs(cov.cov("I1", 5.0, "I1", 5.0) - 0.5) < 1e-12


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
    bare = solve_fluid(spec, grid)
    bare.spec = None
    with pytest.raises(ValueError, match="spec"):
        DriverCovariance(bare)
    # the ODE solver keeps its rates in a dict, which is no model spec
    ode = solve_markovian_ode("SEIR", 1.5, 1.0, 1.0, {"i0": 0.05}, grid)
    with pytest.raises(ValueError, match="need the model spec"):
        DriverCovariance(ode)


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
    # rows of the one Stieltjes sum, P(xi <= t_k, xi + eta <= t_{k+d}),
    # against a fine Stieltjes sum
    grid = uniform_grid(2.0, 0.05)
    h = JointDurationDist(g=Gamma(2.0, 3.0), f=Weibull(1.5, 0.8))
    rows = _conv_cdf_values(h, grid, 9)
    for k, delta in [(15, 0), (20, 3), (30, 8)]:
        ys = np.linspace(0.0, grid[k], 40001)
        mids = 0.5 * (ys[1:] + ys[:-1])
        dg = np.diff(h.g.cdf(ys))
        want = float(np.sum(h.f.cdf((k + delta) * 0.05 - mids) * dg))
        assert rows[delta, k] == pytest.approx(want, abs=5e-4)


def test_bucketed_driver_law_converges_at_second_order():
    # every driver covariance of a bucketed SIRS law at three time pairs,
    # against dt = 0.003125: halving dt cuts the error about fourfold
    h = JointDurationDist(g=Exponential(1.0), bucket_centers=(0.3, 0.9),
                          bucket_dists=(Uniform(0.5, 1.5), Gamma(2.0, 3.0)))
    spec = ModelSpec(kind="SIRS", lam=2.5, i0=0.1, r0=0.15, h=h, h0=h, f0=Exponential(1.0))
    ids = DRIVER_IDS["SIRS"]

    def covs(dt):
        cov = DriverCovariance(solve_fluid(spec, uniform_grid(2.0, dt)))
        return np.array([cov.cov(x, t, y, tp) for t, tp in [(0.5, 1.0), (1.0, 1.0), (1.5, 2.0)]
                         for x in ids for y in ids])

    ref = covs(0.003125)
    err = [np.max(np.abs(covs(dt) - ref)) for dt in (0.05, 0.025, 0.0125)]
    assert err[1] / err[2] >= 3.0


def test_joint_covariance_matrix_is_psd():
    for setup in (_seir_setup, _sirs_setup):
        _, fl, grid = setup()
        cov = DriverCovariance(fl)
        times = [grid[2], grid[7], grid[13], grid[20]]
        pairs = [(d, t) for d in DRIVER_IDS[fl.kind] for t in times]
        mat = cov.matrix(pairs)
        assert np.max(np.abs(mat - mat.T)) == 0.0
        assert np.linalg.eigvalsh(mat)[0] >= -1e-8


@pytest.mark.parametrize("setup", [_seir_setup, _sirs_setup])
def test_queried_law_is_the_sampled_law(setup):
    # cov and matrix read each block bitwise as the sampler builds and
    # factors it, whichever nodes the queries ask for first
    _, fl, grid = setup()
    cov = DriverCovariance(fl)
    law = _LAW[fl.kind]
    for block in dict.fromkeys(b for b, _ in law.values()):
        ids = [d for d, (b, _) in law.items() if b == block]
        cov.cov(ids[0], grid[1], ids[0], grid[1])
        coef = np.array([law[d][1] for d in ids], dtype=float)
        ref = np.einsum("da,aibj,eb->diej", coef, cov._build(block), coef)
        for m in (2, 5, 17, len(grid)):
            mat = cov.matrix([(d, t) for d in ids for t in grid[:m]])
            want = ref[:, :m, :, :m].reshape(mat.shape)
            np.testing.assert_array_equal(mat, np.triu(want) + np.triu(want, 1).T,
                                          err_msg=f"{block} over {m} nodes")


# ---------------------------------------------------------------- sampling


def test_cholesky_jitter_policy():
    # a tiny negative eigenvalue is rounding: factored as rank deficiency
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    near = np.eye(2) - (1.0 + 1e-11) * np.outer(v, v)
    assert np.linalg.eigvalsh(near)[0] < 0.0
    orig = near.copy()  # the factor consumes its input
    lfac = _chol_psd(near, "probe")
    assert np.all(np.isfinite(lfac))
    assert np.max(np.abs(lfac @ lfac.T - orig)) < 1e-10
    # genuinely indefinite block fails with the minimum eigenvalue
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(RuntimeError, match="eigenvalue"):
        _chol_psd(bad, "probe")


def test_indefinite_block_reports_its_own_eigenvalue():
    # the factor overwrites the lower triangle that LAPACK reads, so the
    # error path rebuilds the block from the strict upper triangle and the
    # diagonal
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((90, 90)))
    lam = np.concatenate([np.linspace(1.0, 3.0, 80), -np.linspace(0.1, 0.5, 10)])
    mat = (q * lam) @ q.T
    mat = np.triu(mat) + np.triu(mat, 1).T
    orig = mat.copy()
    want = np.linalg.eigvalsh(orig)[0]
    seen, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kw):
        seen.append(eigvalsh(a, *args, **kw))
        return seen[-1]

    with mock.patch.object(np.linalg, "eigvalsh", spy):
        with pytest.raises(RuntimeError, match=f"min eigenvalue {want:.3e}"):
            _chol_psd(mat, "probe")
    assert not np.array_equal(mat, orig)  # factored in place
    assert len(seen) == 1
    assert abs(seen[0][0] - want) <= 1e-12 * abs(want)


def test_sampler_holds_one_block():
    # the W block of the fclt_sis model is the largest; sampling it may add
    # the build's transients (about 0.3 of the block), not a copy of it
    spec, fl, grid = _fclt_sis_setup()
    assert len(grid) >= 401
    cov = DriverCovariance(fl)
    block_bytes = (2 * cov.n) ** 2 * 8
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        sample_drivers(cov, np.random.default_rng(0), paths=16)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 1.5 * block_bytes, peak / block_bytes


def test_sampled_driver_identities_hold_pathwise():
    rng = np.random.default_rng(11)
    spec, fl, grid = _sir_setup()
    dr = sample_drivers(DriverCovariance(fl), rng, paths=200)
    assert np.max(np.abs(dr["MA"] - dr["I1"] - dr["R1"])) < 1e-12
    assert np.max(np.abs(dr["I0"] + dr["R0"])) == 0.0
    assert all(np.all(dr[d][:, 0] == 0.0) for d in ("MA", "I1", "R1"))

    spec, fl, grid = _seir_setup()
    dr = sample_drivers(DriverCovariance(fl), rng, paths=200)
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
        dr = sample_drivers(cov, rng, paths=reps)
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
    dr = sample_drivers(cov, rng, paths=reps)
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
    dr = sample_drivers(cov, np.random.default_rng(3), paths=2000)
    assert np.max(np.abs(dr["I0"])) == 0.0

    # a flat cdf segment repeats survival values and the block goes
    # rank deficient; its factor must be exact
    flat = PiecewiseEmpirical([0.0, 0.3, 0.8, 1.2], [0.0, 0.6, 0.6, 1.0])
    spec = ModelSpec(kind="SIR", lam=1.0, i0=0.2, f=Exponential(1.0), f0=flat)
    fl = solve_fluid(spec, grid)
    cov = DriverCovariance(fl)
    assert cov.cov("I0", 0.4, "I0", 0.4) == cov.cov("I0", 0.8, "I0", 0.8)
    reps = 4000
    dr = sample_drivers(cov, np.random.default_rng(3), paths=reps)
    i0p = dr["I0"]
    # no recoveries inside the flat segment, so the paths stay put there
    seg = i0p[:, 4:9]
    assert np.max(np.abs(seg - seg[:, :1])) == 0.0
    ana = cov.cov("I0", 0.5, "I0", 0.5)
    assert ana == pytest.approx(0.2 * 0.4 * 0.6, abs=1e-12)
    emp = i0p[:, 5].var(ddof=1)
    assert abs(emp - ana) <= 3.0 * _var_se(ana, reps)


# Sampler runs whose every draw is fixed: SIS with an i0 pool, SEIR with e0
# and i0 pools, SIRS with an r0 pool, and a deterministic period whose W
# block is rank deficient.
def _pinned_sampler_runs():
    grid = uniform_grid(2.0, 0.05)
    det = ModelSpec(kind="SIR", lam=1.5, i0=0.1, f=Deterministic(0.5))
    return {
        "sis_i0": _fclt_sis_setup() + (41,),
        "seir_e0_i0": _seir_setup() + (42,),
        "sirs_r0": _sirs_setup() + (43,),
        "sir_deterministic": (det, solve_fluid(det, grid), grid, 44),
    }


# sha256 of each run's sampled drivers, recorded with the sampler that
# factored a cached copy of each block; sir_deterministic's again when the
# one-stage W law began to add the atoms of F exactly
_PINNED_SAMPLES = {
    "seir_e0_i0": "a11b6c17e0cfab7f7bbcb80ebe561073204980154feca9d7f8ec36470a85cf3f",
    "sir_deterministic": "9d6e0d1f800eeb30482da0f15b448d9893983edcba355bc6d41dd57e13d5e3eb",
    "sirs_r0": "006888722915f75cafb2addc466e06cb6ae75c6dcb6f0fa00640b4b33c24dc1d",
    "sis_i0": "29af2f5ee20ceebbc6beda7a6880e57a1e1bc4c876d4525ab8ed9b00a73f6d50",
}


@pytest.mark.parametrize("name", sorted(_PINNED_SAMPLES))
def test_sampled_stream_is_pinned(name):
    spec, fl, grid, seed = _pinned_sampler_runs()[name]
    cov = DriverCovariance(fl)
    if name == "sir_deterministic":
        w = cov._build("W").reshape(2 * cov.n, -1)
        assert _chol_psd(w, "W").shape[1] < 2 * cov.n
    dr = sample_drivers(cov, np.random.default_rng(seed), paths=5)
    h = hashlib.sha256()
    for d in DRIVER_IDS[spec.kind]:
        h.update(d.encode())
        h.update(np.ascontiguousarray(dr[d]).tobytes())
    assert h.hexdigest() == _PINNED_SAMPLES[name]


# -------------------------------------------------------------- path solves


def _zero_drivers(kind, n):
    return {d: np.zeros(n) for d in DRIVER_IDS[kind]}


def test_solve_zero_forcing_gives_zero_paths():
    spec, fl, grid = _sir_setup()
    path = solve_fclt_path(_zero_drivers("SIR", len(grid)), fl)
    for arr in (path.Shat, path.Ihat, path.Rhat):
        assert np.max(np.abs(arr)) == 0.0
    assert path.Ihat.shape == grid.shape


def test_solve_initial_decay_without_contacts():
    grid = uniform_grid(2.0, 0.05)
    spec = ModelSpec(kind="SIR", lam=0.0, i0=0.3, f=Exponential(1.0),
                     f0=Uniform(0.0, 2.0))
    fl = solve_fluid(spec, grid)
    path = solve_fclt_path(_zero_drivers("SIR", len(grid)), fl, ihat0=1.0)
    assert np.max(np.abs(path.Ihat - spec.f0.sf(grid))) < 1e-12
    assert np.max(np.abs(path.Shat + 1.0)) < 1e-12
    assert np.max(np.abs(path.Rhat - spec.f0.cdf(grid))) < 1e-12


def test_solve_sum_identities_on_sampled_paths():
    rng = np.random.default_rng(5)
    spec, fl, grid = _sir_setup()
    dr = sample_drivers(DriverCovariance(fl), rng, paths=50)
    path = solve_fclt_path(dr, fl, ihat0=0.2)
    assert np.max(np.abs(path.Shat + path.Ihat + path.Rhat)) < 1e-10

    spec, fl, grid = _seir_setup()
    dr = sample_drivers(DriverCovariance(fl), rng, paths=50)
    path = solve_fclt_path(dr, fl, ihat0=0.1, ehat0=-0.1)
    assert np.max(np.abs(path.Shat + path.Ehat + path.Ihat + path.Rhat)) < 1e-10

    spec, fl, grid = _sirs_setup()
    dr = sample_drivers(DriverCovariance(fl), rng, paths=50)
    path = solve_fclt_path(dr, fl)
    assert np.max(np.abs(path.Shat + path.Ihat + path.Rhat)) < 1e-12

    spec, fl, grid = _sir_setup(lam=0.9)
    sis = ModelSpec(kind="SIS", lam=0.9, i0=0.05, f=Exponential(1.0))
    fls = solve_fluid(sis, grid)
    dr = sample_drivers(DriverCovariance(fls), rng, paths=50)
    path = solve_fclt_path(dr, fls)
    assert np.max(np.abs(path.Shat + path.Ihat)) == 0.0


def test_solve_validation():
    spec, fl, grid = _sir_setup()
    dr = _zero_drivers("SIR", len(grid))
    missing = dict(dr)
    del missing["R1"]
    with pytest.raises(ValueError, match="R1"):
        solve_fclt_path(missing, fl)
    sespec, sefl, segrid = _seir_setup()
    # initial infectious fluctuation without a residual law
    h = JointDurationDist(g=Uniform(0.2, 1.0), f=LogNormal(-0.3, 0.4))
    noi = ModelSpec(kind="SEIR", lam=2.0, i0=0.0, e0=0.04, h=h)
    flni = solve_fluid(noi, segrid)
    zd = _zero_drivers("SEIR", len(segrid))
    with pytest.raises(ValueError, match="residual"):
        solve_fclt_path(zd, flni, ihat0=1.0)
    out = solve_fclt_path(zd, flni, ehat0=1.0)  # fine without f0
    assert np.max(np.abs(out.Ehat + out.Ihat + out.Rhat + out.Shat)) < 1e-10


@pytest.mark.parametrize("setup", [_seir_setup, _sirs_setup])
def test_fclt_run_tabulates_the_kernels_once(setup, monkeypatch):
    # fluid -> driver law -> samples -> path solve: the path solve reads the
    # fluid's own kernel table. Every epilim name bound to tabulate_kernels
    # is counted, whichever module calls it.
    calls = []

    def counted(*args):
        calls.append(args)
        return tabulate_kernels(*args)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("epilim")
                and getattr(mod, "tabulate_kernels", None) is tabulate_kernels):
            monkeypatch.setattr(mod, "tabulate_kernels", counted)
    spec, fl, grid = setup()
    dr = sample_drivers(DriverCovariance(fl), np.random.default_rng(3), paths=4)
    solve_fclt_path(dr, fl, ihat0=0.1)
    assert len(calls) == 1


def test_seir_solve_reads_no_onset_drivers():
    # L0 and L1 enter no SEIR forcing: a solve without them gives the same paths
    spec, fl, grid = _seir_setup()
    dr = sample_drivers(DriverCovariance(fl), np.random.default_rng(11), paths=20)
    full = solve_fclt_path(dr, fl, ihat0=0.2, ehat0=-0.1)
    fewer = {d: v for d, v in dr.items() if d not in ("L0", "L1")}
    part = solve_fclt_path(fewer, fl, ihat0=0.2, ehat0=-0.1)
    for c in ("Shat", "Ehat", "Ihat", "Rhat"):
        np.testing.assert_array_equal(getattr(part, c), getattr(full, c))


_SEIR_H = JointDurationDist(g=Uniform(0.2, 1.0), f=LogNormal(-0.3, 0.4))
_SEIR_MODEL = dict(kind="SEIR", lam=2.0, i0=0.03, e0=0.04, h=_SEIR_H, f0=Exponential(2.0),
                   h0=JointDurationDist(g=Exponential(1.5), f=LogNormal(-0.3, 0.4)))
_SIRS_H = JointDurationDist(g=Exponential(1.0), f=Uniform(0.5, 1.5))
_SIRS_H0 = JointDurationDist(g=Uniform(0.0, 2.0), f=Uniform(0.5, 1.5))

# model and the initial mass to perturb; f0 and h0 are given, so they stay fixed
_LINEARIZED = {
    "SIS": (dict(kind="SIS", lam=2.0, i0=0.1, f=Gamma(2.0, 2.0), f0=Uniform(0.0, 2.0)), "i0"),
    "SIR": (dict(kind="SIR", lam=1.5, i0=0.05, f=LogNormal(-0.125, 0.5),
                 f0=Exponential(1.2)), "i0"),
    "SIR-deterministic": (dict(kind="SIR", lam=1.8, i0=0.05, f=Deterministic(1.0),
                               f0=Uniform(0.0, 1.0)), "i0"),
    "SEIR-i0": (_SEIR_MODEL, "i0"),
    "SEIR-e0": (_SEIR_MODEL, "e0"),
    "SIRS": (dict(kind="SIRS", lam=2.5, i0=0.1, r0=0.15, h=_SIRS_H, h0=_SIRS_H0,
                  f0=Uniform(0.0, 1.5)), "i0"),
    "SIRS-no-immune-pool": (dict(kind="SIRS", lam=2.5, i0=0.1, h=_SIRS_H, h0=_SIRS_H0), "i0"),
    "SIR-tabulated-rate": (dict(kind="SIR", lam=TabulatedRate((0.0, 1.0, 2.5), (2.0, 0.7, 1.6)),
                                i0=0.05, f=Gamma(2.0, 2.0), f0=Exponential(1.0)), "i0"),
    "SEIR-bucketed": (dict(kind="SEIR", lam=1.6, i0=0.02, e0=0.03, f0=Weibull(2.0, 1.0),
                           h=JointDurationDist(
                               g=Gamma(2.0, 2.0), bucket_centers=(0.5, 1.0, 2.0),
                               bucket_dists=(LogNormal(-0.125, 0.5), Weibull(2.0, 1.0),
                                             Gamma(2.0, 2.0))),
                           h0=JointDurationDist(g=Exponential(1.0), f=Weibull(2.0, 1.0))), "e0"),
}


@pytest.mark.parametrize("case", list(_LINEARIZED))
def test_solve_is_the_linearized_fluid(case):
    # zero drivers and a unit initial fluctuation: the solve is the derivative
    # of the discretized fluid in that initial mass (central difference)
    model, mass = _LINEARIZED[case]
    grid = uniform_grid(4.0, 0.05)
    eps = 1e-6
    up, down = (solve_fluid(ModelSpec(**dict(model, **{mass: model[mass] + s})), grid)
                for s in (eps, -eps))
    spec = ModelSpec(**model)
    fl = solve_fluid(spec, grid)
    hat0 = {"ihat0" if mass == "i0" else "ehat0": 1.0}
    path = solve_fclt_path(_zero_drivers(spec.kind, len(grid)), fl, **hat0)
    for c in "SEIR":
        slope = (getattr(up, c) - getattr(down, c)) / (2.0 * eps)
        assert np.max(np.abs(getattr(path, c + "hat") - slope)) < 1e-8, c


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
    dr = sample_drivers(cov, rng, paths=reps)
    volt = solve_fclt_path(dr, fl).Ihat
    sde = sis_sde_path(lam, mu, fl, 0.0, rng, paths=reps)
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
    paths = sis_sde_path(0.0, mu, fl, 0.0, rng, paths=reps)
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
    path = sis_sde_path(lam, mu, fl, 1.0, np.random.default_rng(0), noise=False)
    # exact solution of x' = (lam(1 - 2 Ibar) - mu) x by fine quadrature
    rate = lam * (1.0 - 2.0 * fl.I) - mu
    cumr = np.concatenate(([0.0], np.cumsum(0.001 * 0.5 * (rate[1:] + rate[:-1]))))
    exact = np.exp(cumr)
    assert np.max(np.abs(path - exact)) < 5e-3
    with pytest.raises(ValueError, match="mu"):
        sis_sde_path(1.0, 0.0, fl, 0.0, np.random.default_rng(0))
