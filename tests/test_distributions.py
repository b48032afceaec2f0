"""Duration laws, stationary-excess transform, and kernel tabulation."""

import math
import warnings

import numpy as np
import pytest
from scipy import fft, integrate, special, stats

from epilim.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    JointDurationDist,
    LogNormal,
    PiecewiseEmpirical,
    Uniform,
    Weibull,
    _next_fast_len,
    dist_from_record,
    dist_to_record,
    equilibrium_dist,
    grid_step,
    tabulate_kernels,
    uniform_grid,
)

ALL_FAMILIES = [
    Exponential(1.3),
    Deterministic(0.7),
    Uniform(0.3, 1.1),
    Gamma(2.0, 1.0),
    LogNormal(-0.125, 0.5),
    Weibull(1.5, 1.0),
    PiecewiseEmpirical((0.0, 1.0, 2.0), (0.1, 0.6, 1.0)),
]
# a zero-mass first piece and an interior atom
INTERIOR_ATOM = PiecewiseEmpirical((0.5, 1.0, 1.0, 2.0), (0.0, 0.3, 0.7, 1.0))


def _quad(f, t, law):
    """int_0^t f by adaptive quadrature, split where the (base) law has a kink or jump."""
    law = getattr(law, "base", law)
    cuts = ({loc for loc, _ in law.atoms()} | set(getattr(law, "ts", ()))
            | {getattr(law, "lo", 0.0), getattr(law, "hi", 0.0)})
    pts = sorted(c for c in cuts if 0.0 < c < t) or None
    return integrate.quad(f, 0.0, t, points=pts, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


class _FixedUniforms:
    """Stands in for a Generator whose uniform draws are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, size=None):
        return self.u.copy()


def test_grid_helpers():
    g = uniform_grid(4.0, 1e-3)
    assert len(g) == 4001 and g[0] == 0.0 and abs(g[-1] - 4.0) < 1e-12
    assert abs(grid_step(g) - 1e-3) < 1e-15
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        grid_step(np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValueError):
        grid_step(np.array([0.0]))


def test_analytic_values():
    # closed forms evaluated by hand / scipy as an independent route
    assert abs(Gamma(2.0, 1.0).sf(1.0) - 2.0 * np.exp(-1.0)) < 1e-14
    assert abs(Exponential(2.0).cdf(0.5) - (1 - np.exp(-1.0))) < 1e-14
    assert abs(Weibull(1.5, 1.0).sf(1.0) - np.exp(-1.0)) < 1e-14
    assert Deterministic(0.7).cdf(0.69) == 0.0 and Deterministic(0.7).cdf(0.7) == 1.0
    assert abs(Uniform(0.3, 1.1).cdf(0.7) - 0.5) < 1e-14
    assert abs(LogNormal(-0.125, 0.5).cdf(1.0) - stats.norm.cdf(0.25)) < 1e-14


def test_moments():
    assert abs(LogNormal(-0.125, 0.5).mean() - 1.0) < 1e-14
    assert abs(LogNormal(-0.125, 0.5).second_moment() - np.exp(0.25)) < 1e-14
    assert abs(Weibull(1.5, 1.0).mean() - special.gamma(5.0 / 3.0)) < 1e-14
    assert abs(Weibull(1.5, 1.0).second_moment() - special.gamma(7.0 / 3.0)) < 1e-14
    assert abs(Gamma(2.0, 1.0).second_moment() - 6.0) < 1e-14
    assert abs(Uniform(0.3, 1.1).second_moment() - (1.1**3 - 0.3**3) / 2.4) < 1e-14
    # hand-integrated: mean = 0.65 + 0.2, m2 = (0.9 - 1/3) + 1.6/3
    pe = PiecewiseEmpirical((0.0, 1.0, 2.0), (0.1, 0.6, 1.0))
    assert abs(pe.mean() - 0.85) < 1e-14
    assert abs(pe.second_moment() - 1.1) < 1e-12


def _stats_formulas(d):
    """cdf, sf and int_sf of a Gamma or LogNormal law written through
    scipy.stats, as the laws evaluated them before calling scipy.special."""
    if isinstance(d, Gamma):
        law, scale, shape = stats.gamma, 1.0 / d.rate, (d.shape,)

        def part(t):
            return d.mean() * stats.gamma.cdf(t, d.shape + 1.0, scale=scale)
    else:
        law, scale, shape = stats.lognorm, math.exp(d.mu), (d.sigma,)

        def part(t):
            with np.errstate(divide="ignore"):
                z = (np.log(t) - d.mu - d.sigma**2) / d.sigma
            return d.mean() * stats.norm.cdf(np.where(t > 0, z, -np.inf))

    def cdf(t):
        return law.cdf(np.clip(np.asarray(t, dtype=float), 0.0, None), *shape, scale=scale)

    def int_sf(t):
        t = np.clip(np.asarray(t, dtype=float), 0.0, None)
        return t * law.sf(t, *shape, scale=scale) + part(t)

    return {"cdf": cdf, "sf": lambda t: 1.0 - cdf(t), "int_sf": int_sf}


@pytest.mark.parametrize("d", [Gamma(a, r) for a in (0.5, 1.0, 2.0, 3.0) for r in (0.4, 2.0)]
                         + [LogNormal(m, s) for m in (-0.125, 1.3) for s in (0.2, 0.5, 1.4)],
                         ids=repr)
def test_gamma_lognormal_equal_scipy_stats_bitwise(d):
    # the special-function evaluations reproduce scipy.stats to the last bit,
    # so every simulated draw and tabulated kernel is unchanged
    rng = np.random.default_rng(17)
    ts = np.concatenate([[0.0, 1e-300, 5e-324, 1e3, -1.0, np.inf],
                         rng.exponential(2.0 * d.mean(), 20_000)])
    with np.errstate(invalid="ignore"):  # the formula's t * sf(t) is inf * 0 at t = inf
        for name, want in _stats_formulas(d).items():
            got, exp = getattr(d, name)(ts), want(ts)
            if name == "int_sf":  # the law reads its limit, the mean, at t = inf
                exp[5] = d.mean()
            assert got.dtype == np.float64 and got.tobytes() == exp.tobytes(), name
            for t in (0.0, 1e-300, 0.7, 1e3, -2.0, np.inf):
                g, w = getattr(d, name)(t), want(t)
                if name == "int_sf" and t == np.inf:
                    w = type(w)(d.mean())
                assert type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_int_sf_at_infinity_is_the_mean():
    # t * sf(t) tends to 0, not inf * 0; an equilibrium law's int_sf is a
    # closed form that keeps no state, so a call at inf leaves every later
    # finite value as it would have been
    ts = np.linspace(0.0, 6.0, 61)
    for base in ALL_FAMILIES + [Gamma(2.0, 2.0), Uniform(1.0, 3.0)]:
        for make in (lambda: base, lambda: equilibrium_dist(base)):
            d, fresh = make(), make()
            assert d.int_sf(np.inf) == d.mean(), d
            assert equilibrium_dist(d).cdf(np.inf) == 1.0, d
            want = fresh.int_sf(ts)
            assert d.int_sf(ts).tobytes() == want.tobytes(), d
            mixed = make().int_sf(np.append(ts, np.inf))
            assert mixed[:-1].tobytes() == want.tobytes() and mixed[-1] == d.mean(), d
    d = equilibrium_dist(Gamma(2.0, 2.0))
    d.int_sf(np.inf)
    assert d.int_sf(1.0) == equilibrium_dist(Gamma(2.0, 2.0)).int_sf(1.0)
    assert abs(d.int_sf(1.0) - 0.58083) < 1e-5


def test_limits_at_huge_t_without_warnings():
    # at t = 1e300, Weibull's (t / scale)^shape overflows to inf, and at the
    # largest float so do Gamma's t / (1 / rate), LogNormal's t / e^mu and
    # Exponential's rate * t; inf gives every function its exact limit, and
    # no family may warn there. For Uniform(0.1, 0.7), lo + w^2 / (2w) is one
    # rounding off the mean, so int_sf must not be formed that way
    laws = ALL_FAMILIES + [Weibull(2.0, 1.0), Gamma(0.5, 1.0), Gamma(2.0, 2.0), INTERIOR_ATOM,
                           Uniform(0.1, 0.7)]
    for t in (1e300, np.finfo(float).max):
        for base in laws:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert base.cdf(t) == 1.0 and base.sf(t) == 0.0 and base.int_sf(t) == base.mean()
                assert 2.0 * base._int_t_sf(t) == base.second_moment(), base
                e = equilibrium_dist(base)
                assert e.cdf(t) == 1.0 and e.sf(t) == 0.0 and e.int_sf(t) == e.mean(), base


def test_uniform_int_sf_reaches_its_mean_exactly():
    # int_sf = mean - (hi - t)^2 / (2w) on [lo, inf): from hi on it is the
    # mean itself, not lo + w^2 / (2w), which misses it by one rounding for
    # about one law in seven, Uniform(0.1, 0.7) among them
    rng = np.random.default_rng(12)
    for i in range(1000):
        lo, hi = np.sort(rng.uniform(0.0, 5.0, 2))
        d = Uniform(lo, hi)
        m = d.mean()
        assert d.int_sf(hi) == m and d.int_sf(np.inf) == m and d.int_sf(2.0 * hi + 1.0) == m, d
        for t in rng.uniform(lo, hi, 2):
            assert abs(d.int_sf(t) - _quad(d.sf, t, d)) <= 1e-14, (d, t)


def test_cdf_bounds_and_monotone():
    for d in ALL_FAMILIES + [equilibrium_dist(d) for d in ALL_FAMILIES]:
        ts = np.linspace(0.0, 6.0, 1000)
        c = d.cdf(ts)
        assert np.all(c >= 0.0) and np.all(c <= 1.0)
        assert np.all(np.diff(c) >= -1e-15)
        assert np.max(np.abs(d.sf(ts) - (1.0 - c))) == 0.0  # sf defined as 1 - cdf
        assert d.cdf(-1.0) == 0.0


def test_int_sf_frozen_quadrature():
    # frozen from scipy.integrate.quad of the survival function, epsabs=1e-14
    assert abs(Gamma(2.0, 1.0).int_sf(1.5) - 1.2190444394804956) < 1e-12
    assert abs(LogNormal(-0.125, 0.5).int_sf(2.0) - 0.973861300711989) < 1e-12
    assert abs(Weibull(1.5, 1.0).int_sf(1.0) - 0.6997923277614945) < 1e-12
    # analytic piecewise cases
    assert abs(Uniform(0.3, 1.1).int_sf(0.7) - 0.6) < 1e-14
    assert abs(Uniform(0.3, 1.1).int_sf(5.0) - 0.7) < 1e-14
    assert abs(Deterministic(0.7).int_sf(0.4) - 0.4) < 1e-15
    assert abs(Deterministic(0.7).int_sf(2.0) - 0.7) < 1e-15
    pe = PiecewiseEmpirical((0.0, 1.0, 1.0, 2.0), (0.0, 0.3, 0.7, 1.0))
    assert abs(pe.int_sf(1.5) - 0.9625) < 1e-14  # 0.85 + int_1^1.5 0.3(2-t) dt
    assert abs(pe.mean() - 1.0) < 1e-14
    # int_0^t s sf(s) ds, the closed form behind second_moment, against a live quadrature
    more = [Gamma(0.5, 1.0), Weibull(0.6, 2.0), LogNormal(1.3, 1.4), INTERIOR_ATOM]
    for d in ALL_FAMILIES + more:
        for t in (0.05, 0.4, 1.0, 1.7, 3.0, 8.0):
            ref = _quad(lambda s: s * d.sf(s), t, d)
            assert abs(d._int_t_sf(t) - ref) <= 1e-12 * ref, (d, t)


def test_int_sf_matches_trapezoid():
    ts = np.linspace(0.0, 5.0, 5001)
    for d in ALL_FAMILIES:
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (d.sf(ts)[1:] + d.sf(ts)[:-1]) * np.diff(ts))])
        # the trapezoid reference is off by half a cell at each CDF jump
        tol = 5e-5 + 0.6e-3 * sum(j for _, j in d.atoms())
        probes = [123, 1777, 4321]
        for k in probes:
            assert abs(d.int_sf(ts[k]) - cum[k]) < tol, d


def test_equilibrium_exponential_idempotent():
    d = Exponential(1.7)
    e = equilibrium_dist(d)
    assert e == d
    ts = np.linspace(0.0, 8.0, 200)
    assert np.max(np.abs(e.cdf(ts) - d.cdf(ts))) < 1e-12


def test_equilibrium_deterministic_is_uniform():
    e = equilibrium_dist(Deterministic(0.5))
    assert e == Uniform(0.0, 0.5)


def test_equilibrium_frozen_values():
    # frozen from scipy.integrate.quad(sf)/mean, epsabs=1e-14
    assert abs(equilibrium_dist(Gamma(2.0, 1.0)).cdf(1.0) - 0.4481808382428365) < 1e-12
    assert abs(equilibrium_dist(LogNormal(-0.125, 0.5)).cdf(0.7) - 0.6425962254697001) < 1e-12
    assert abs(equilibrium_dist(Weibull(1.5, 1.0)).cdf(1.0) - 0.7751824719838554) < 1e-9
    # mean of the stationary excess is m2 / (2 m1)
    assert abs(equilibrium_dist(Gamma(2.0, 1.0)).mean() - 1.5) < 1e-14


def test_equilibrium_int_sf_and_guards():
    e = equilibrium_dist(Gamma(2.0, 1.0))
    ts = np.linspace(0.0, 3.0, 3001)
    sf = e.sf(ts)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (sf[1:] + sf[:-1]) * np.diff(ts))])
    assert abs(e.int_sf(3.0) - cum[-1]) < 1e-6
    assert e.int_sf(0.0) == 0.0
    with pytest.raises(NotImplementedError):
        e.second_moment()
    with pytest.raises(ValueError):
        equilibrium_dist(Deterministic(0.0))
    # int_sf is exact, and the same bits whatever was asked before
    ts = np.array([0.05, 0.4, 1.0, 1.7, 3.0, 8.0])
    for base in ALL_FAMILIES[2:] + [Gamma(0.5, 1.0), LogNormal(1.3, 1.4), INTERIOR_ATOM]:
        e = equilibrium_dist(base)
        first = e.int_sf(ts)
        for t, got in zip(ts, first):
            ref = _quad(e.sf, t, e)
            assert abs(got - ref) <= 1e-12 * ref, (base, t)
        for t in (100.0, np.inf, 1e-3):
            e.int_sf(t)
        again = e.int_sf(ts)
        assert again.tobytes() == first.tobytes() == equilibrium_dist(base).int_sf(ts).tobytes()
    # the sampler's extreme uniforms on bounded supports: finite draws inside
    # the support, without warnings (the length-biased draw is capped at the
    # end of its piece, which rounding could otherwise pass by an ulp)
    u = _FixedUniforms([0.0, 1.0 - 2.0**-53])
    for base, end in [(Uniform(0.3, 1.1), 1.1), (Uniform(1.0, 3.0), 3.0),
                      (ALL_FAMILIES[-1], 2.0), (INTERIOR_ATOM, 2.0),
                      (PiecewiseEmpirical((0.0, 1.0, 1.0), (0.0, 0.6, 1.0)), 1.0),
                      (PiecewiseEmpirical((1.2, 2.3), (0.0, 1.0)), 2.3),
                      (PiecewiseEmpirical((0.1, 1.0), (0.3, 1.0)), 1.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = equilibrium_dist(base).sample(u, 2)
        assert x[0] == 0.0 and np.isfinite(x[1]) and end - 1e-7 < x[1] <= end, (base, x)


def test_record_round_trip():
    for d in ALL_FAMILIES:
        rec = dist_to_record(d)
        assert dist_from_record(rec) == d
    with pytest.raises(ValueError):
        dist_from_record({"family": "Gamma", "params": [1.0]})
    with pytest.raises(ValueError):
        dist_from_record({"family": "Zeta", "params": [1.0]})
    with pytest.raises(ValueError):
        dist_from_record({"family": "Gamma", "params": [1.0, 1.0], "extra": 1})


def test_sampling_ks():
    rng = np.random.default_rng(20260814)
    continuous = [
        Exponential(1.3),
        Uniform(0.3, 1.1),
        Gamma(2.0, 1.0),
        LogNormal(-0.125, 0.5),
        Weibull(1.5, 1.0),
        equilibrium_dist(Gamma(2.0, 1.0)),
        equilibrium_dist(Weibull(1.5, 1.0)),
    ] + [equilibrium_dist(d) for d in ALL_FAMILIES + [Gamma(0.5, 1.0), INTERIOR_ATOM,
                                                      Uniform(0.0, 1.0)]]
    # each KS p-value is uniform under the law, so each check false-alarms
    # with probability 1e-3 and the 17 together with at most 1.7%
    for d in continuous:
        x = d.sample(rng, 4000)
        p = stats.kstest(x, d.cdf).pvalue
        assert p > 1e-3, (d, p)


def test_length_biased_ks():
    # the stationary-excess sampler draws U X*, X* from the length-biased law
    # F*(t) = int_0^t s dF(s) / m = (int_sf(t) - t sf(t)) / m, here from the
    # closed forms and not the sampler. An atom of F at a > 0 is one of F*,
    # of mass a j / m: its count is checked by a binomial test and the other
    # draws by a KS test against F* with its atoms taken out. An atom at 0
    # has no mass under F*. Each p-value is uniform under the law, so each of
    # the 9 checks false-alarms with probability 1e-3, and all with at most 0.9%
    rng = np.random.default_rng(20261021)
    n = 4000
    for d in ALL_FAMILIES[2:] + [Gamma(0.5, 1.0), INTERIOR_ATOM, Uniform(0.0, 1.0)]:
        m = d.mean()
        atoms = [(a, a * j / m) for a, j in d.atoms() if a > 0]
        x = d._length_biased(rng, n)
        assert np.all(x > 0.0), d
        for a, mass in atoms:
            p = stats.binomtest(int(np.count_nonzero(x == a)), n, mass).pvalue
            assert p > 1e-3, (d, a, p)
        rest = 1.0 - sum(mass for _, mass in atoms)

        def cdf(t):
            jumps = sum(mass * (t >= a) for a, mass in atoms)
            return ((d.int_sf(t) - t * d.sf(t)) / m - jumps) / rest

        p = stats.kstest(x[~np.isin(x, [a for a, _ in atoms])], cdf).pvalue
        assert p > 1e-3, (d, p)
        assert type(equilibrium_dist(d).sample(rng)) is float, d
    # a law with no length-biased sampler, such as a stationary-excess law,
    # names itself when its own stationary excess is sampled
    nested = equilibrium_dist(equilibrium_dist(Gamma(2.0, 1.0)))
    with pytest.raises(NotImplementedError, match=r"EquilibriumOf\(Gamma\(2, 1\)\) has no"):
        nested.sample(rng, 2)


def test_sampling_moments_and_atoms():
    rng = np.random.default_rng(7)
    for d in ALL_FAMILIES:
        n = 20000
        x = np.asarray(d.sample(rng, n))
        var = d.second_moment() - d.mean() ** 2
        assert abs(x.mean() - d.mean()) < 6.0 * np.sqrt(max(var, 1e-30) / n) + 1e-12, d
    # atom mass at 0 of the piecewise law shows up as exact zeros
    pe = PiecewiseEmpirical((0.0, 1.0, 2.0), (0.1, 0.6, 1.0))
    x = pe.sample(rng, 20000)
    frac = np.mean(x == 0.0)
    assert abs(frac - 0.1) < 6.0 * np.sqrt(0.1 * 0.9 / 20000)
    # deterministic sampler is a point mass
    assert np.all(Deterministic(0.7).sample(rng, 5) == 0.7)
    assert Deterministic(0.7).sample(rng) == 0.7


def test_piecewise_atoms_and_right_continuity():
    pe = PiecewiseEmpirical((0.0, 1.0, 1.0, 2.0), (0.0, 0.3, 0.7, 1.0))
    assert pe.atoms() == ((1.0, pytest.approx(0.4)),)
    assert abs(pe.cdf(1.0) - 0.7) < 1e-15
    assert abs(pe.cdf(1.0 - 1e-9) - 0.3) < 1e-8
    cont = pe.cdf_continuous(np.array([0.5, 1.0, 1.5]))
    assert abs(cont[1] - 0.3) < 1e-15  # jump removed


def test_joint_validation():
    with pytest.raises(ValueError):
        JointDurationDist(g=Exponential(1.0))
    with pytest.raises(ValueError):
        JointDurationDist(
            g=Exponential(1.0),
            f=Exponential(1.0),
            bucket_centers=(1.0,),
            bucket_dists=(Exponential(1.0),),
        )
    with pytest.raises(ValueError):
        JointDurationDist(
            g=Exponential(1.0),
            bucket_centers=(2.0, 1.0),
            bucket_dists=(Exponential(1.0), Exponential(2.0)),
        )


def test_joint_conditionals_and_sampling():
    hb = JointDurationDist(
        g=Gamma(2.0, 2.0),
        bucket_centers=(0.5, 2.0),
        bucket_dists=(Exponential(2.0), Exponential(0.5)),
    )
    assert hb.conditional(0.1) == Exponential(2.0)
    assert hb.conditional(5.0) == Exponential(0.5)
    v = np.array([0.5, 0.5])
    u = np.array([0.1, 5.0])
    cc = hb.cond_cdf(v, u)
    assert abs(cc[0] - Exponential(2.0).cdf(0.5)) < 1e-15
    assert abs(cc[1] - Exponential(0.5).cdf(0.5)) < 1e-15

    rng = np.random.default_rng(11)
    xi, eta = hb.sample_pair(rng, 40000)
    lo = xi < 1.25  # bucket boundary midway between centers
    # conditional means 1/2 and 2 by bucket
    assert abs(eta[lo].mean() - 0.5) < 0.02
    assert abs(eta[~lo].mean() - 2.0) < 0.06

    hi = JointDurationDist(g=Exponential(1.0), f=Gamma(2.0, 1.0))
    xi, eta = hi.sample_pair(rng, 40000)
    r = np.corrcoef(xi, eta)[0, 1]
    assert abs(r) < 0.02  # independent by construction


def test_kernels_exp_exp_closed_form():
    grid = uniform_grid(4.0, 1e-3)
    h = JointDurationDist(g=Exponential(1.0), f=Exponential(1.0))
    kt = tabulate_kernels(h, h, grid)
    exact = 1.0 - np.exp(-grid) - grid * np.exp(-grid)
    assert np.max(np.abs(kt.phi - exact)) < 5e-7  # trapezoid, O(dt^2)
    assert kt.phi_atoms == () and kt.psi_atoms == ()
    # Psi = G - Phi holds exactly as computed
    assert np.max(np.abs(kt.psi - (Exponential(1.0).cdf(grid) - kt.phi))) == 0.0
    assert np.max(np.abs(kt.psi0 - kt.psi)) == 0.0  # h0 = h here


def test_kernels_gamma_plus_exp_is_gamma3():
    # Gamma(2,1) + independent Exp(1) sums to Gamma(3,1)
    grid = uniform_grid(4.0, 1e-3)
    h = JointDurationDist(g=Gamma(2.0, 1.0), f=Exponential(1.0))
    kt = tabulate_kernels(h, h, grid)
    exact = special.gammainc(3.0, grid)
    assert np.max(np.abs(kt.phi - exact)) < 5e-7


def test_kernels_deterministic_pair_exact():
    grid = uniform_grid(4.0, 1e-3)
    h = JointDurationDist(g=Deterministic(1.0), f=Deterministic(0.5))
    kt = tabulate_kernels(h, h, grid)
    assert np.array_equal(kt.phi, (grid >= 1.5).astype(float))
    assert np.array_equal(kt.psi, ((grid >= 1.0) & (grid < 1.5)).astype(float))
    assert kt.phi_atoms == ((1.5, 1.0),)
    assert kt.psi_atoms == ((1.0, 1.0), (1.5, -1.0))


def test_kernels_initial_condition_uniform_times_det():
    # G0 = Uniform(0, 1), F = point mass at eta: Psi0(t) = min(t,1) - min((t-eta)^+, 1)
    grid = uniform_grid(4.0, 1e-3)
    h = JointDurationDist(g=Exponential(1.0), f=Deterministic(0.5))
    h0 = JointDurationDist(g=Uniform(0.0, 1.0), f=Deterministic(0.5))
    kt = tabulate_kernels(h, h0, grid)
    exact = np.minimum(grid, 1.0) - np.minimum(np.clip(grid - 0.5, 0.0, None), 1.0)
    assert np.max(np.abs(kt.psi0 - exact)) < 1e-13
    # below the immunity horizon this is (t - (t - eta)^+) / xi with xi = 1
    sub = grid <= 1.0
    short = grid[sub] - np.clip(grid[sub] - 0.5, 0.0, None)
    assert np.max(np.abs(kt.psi0[sub] - short)) < 1e-13


def _phi_brute(joint, t, dt_fine):
    # Riemann-Stieltjes trapezoid on a much finer grid, independent route
    us = np.arange(0.0, t + dt_fine / 2, dt_fine)
    dg = np.diff(joint.g.cdf(us))
    if joint.independent:
        fv = joint.f.cdf(t - us)
    else:
        fv = joint.cond_cdf(t - us, us)
    return float(np.sum(0.5 * (fv[1:] + fv[:-1]) * dg))


def test_kernels_vs_brute_force():
    h = JointDurationDist(g=LogNormal(0.0, 0.5), f=Weibull(1.5, 1.0))
    probes = [0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8]
    for dt, tol in ((0.02, 2e-4), (0.004, 1e-5)):
        kt = tabulate_kernels(h, h, uniform_grid(3.0, dt))
        for t in probes:
            k = int(round(t / dt))
            brute = _phi_brute(h, t, dt / 10.0)
            assert abs(kt.phi[k] - brute) < tol, (dt, t)


def test_kernels_bucketed_vs_brute_force():
    hb = JointDurationDist(
        g=Gamma(2.0, 2.0),
        bucket_centers=(0.5, 2.0),
        bucket_dists=(Exponential(2.0), Exponential(0.5)),
    )
    kt = tabulate_kernels(hb, hb, uniform_grid(3.0, 0.01))
    for t in [0.5, 1.0, 1.5, 2.0, 2.5]:
        k = int(round(t / 0.01))
        brute = _phi_brute(hb, t, 0.001)
        # bucket switches cost O(dt) locally, hence the looser band
        assert abs(kt.phi[k] - brute) < 3e-3, t
    assert np.all(np.diff(kt.phi) >= -1e-12)
    with pytest.raises(ValueError):
        tabulate_kernels(
            JointDurationDist(
                g=Deterministic(1.0),
                bucket_centers=(0.5,),
                bucket_dists=(Exponential(1.0),),
            ),
            hb,
            uniform_grid(2.0, 0.01),
        )


def test_kernels_immunity_identity():
    # with G = G0 = Exp(gamma), cumulative Psi + Psi0/gamma = int_0^t F^c
    gamma = 0.8
    f = Gamma(2.0, 1.5)
    h = JointDurationDist(g=Exponential(gamma), f=f)
    grid = uniform_grid(6.0, 1e-3)
    kt = tabulate_kernels(h, h, grid)
    cum_psi = np.concatenate([[0.0], np.cumsum(0.5 * (kt.psi[1:] + kt.psi[:-1]) * 1e-3)])
    lhs = cum_psi + kt.psi0 / gamma
    rhs = f.int_sf(grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_kernels_warn_on_coarse_grid():
    h = JointDurationDist(g=Deterministic(1.0), f=Deterministic(1.05))
    with pytest.warns(UserWarning):
        tabulate_kernels(h, h, uniform_grid(3.0, 0.1))


def test_next_fast_len_matches_scipy():
    # the local 5-smooth search gives scipy's real-FFT length
    for n in range(1, 100_001):
        assert _next_fast_len(n) == fft.next_fast_len(n, real=True), n
