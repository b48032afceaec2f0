"""Property tests over random kernels, rate paths, period laws and models.

The FFT convolutions of fully known paths are checked against direct sums:
conv_full against the product-trapezoid sum written out, and the kernel
tabulation against the same tabulation with np.convolve in place of the FFT.
Over random models, the fluid conserves mass with monotone cumulatives and
the fluctuation limit's compartments sum to zero; the simulator's event log
replays to its path at every node, and the integrated infection intensity
read from that log starts at 0 and never decreases.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epilim import ModelSpec, TabulatedRate, distributions
from epilim.agent_sim import _replay, integrated_intensity, simulate
from epilim.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    JointDurationDist,
    LogNormal,
    Uniform,
    Weibull,
    tabulate_kernels,
    uniform_grid,
)
from epilim.fclt import DriverCovariance, sample_drivers, solve_fclt_path
from epilim.fluid import ConvKernel, conv_full, solve_fluid

# deterministic and fast: the suite's wall-clock budget covers these too
_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


def _conv_direct(ker, q, dt):
    """out[k] = dt * sum_j w_j K(t_k - t_j) q(t_j), trapezoid weights w, plus
    each atom's jump times the trapezoid integral of q up to t_k - lag."""
    n = len(q)
    out = np.zeros(n)
    for k in range(1, n):
        terms = ker.cont[k::-1] * q[: k + 1]
        out[k] = dt * (terms.sum() - 0.5 * terms[0] - 0.5 * terms[-1])
    qc = np.concatenate([[0.0], np.cumsum(0.5 * dt * (q[1:] + q[:-1]))])
    for lag, jump in ker.atoms:
        out[lag:] += jump * qc[: max(n - lag, 0)]
    return out


@st.composite
def _kernel_and_rates(draw):
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cont = rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    lags = draw(st.lists(st.integers(0, n + 2), max_size=3))
    if draw(st.booleans()):
        lags = [0] + lags
    atoms = tuple((lag, float(rng.uniform(-2.0, 2.0))) for lag in lags)
    paths = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    q = rng.exponential(draw(st.sampled_from([1e-2, 1.0, 1e3])), size=paths + (n,))
    q *= rng.choice([-1.0, 1.0], size=q.shape)
    return ConvKernel(cont=cont, atoms=atoms), q, draw(st.sampled_from([1e-3, 0.05, 0.7]))


@_SETTINGS
@given(_kernel_and_rates())
def test_conv_full_matches_direct_sum(case):
    ker, q, dt = case
    out = conv_full(ker, q, dt)
    assert out.shape == q.shape
    assert np.all(out[..., 0] == 0.0)
    rows = q.reshape(-1, q.shape[-1])
    k_inf = np.max(np.abs(ker.cont)) + sum(abs(j) for _, j in ker.atoms)
    for row, got in zip(rows, out.reshape(rows.shape)):
        bound = 1e-12 * k_inf * np.abs(row).sum() * dt
        assert np.max(np.abs(got - _conv_direct(ker, row, dt))) <= bound
        # a bundle is its row loop
        np.testing.assert_array_equal(got, conv_full(ker, row, dt))


def _law(draw, dt, atoms, min_lag=0):
    kind = draw(st.sampled_from(["exp", "gamma", "lognormal", "uniform", "weibull"]
                                + (["det"] if atoms else [])))
    x = draw(st.floats(0.3, 3.0))
    if kind == "exp":
        return Exponential(x)
    if kind == "gamma":
        return Gamma(draw(st.floats(0.5, 4.0)), x)
    if kind == "lognormal":
        return LogNormal(np.log(x), draw(st.floats(0.2, 1.0)))
    if kind == "uniform":
        return Uniform(draw(st.floats(0.0, 1.0)), 1.0 + x)
    if kind == "weibull":
        return Weibull(draw(st.floats(0.7, 3.0)), x)
    return Deterministic(dt * draw(st.integers(min_lag, 60)))


@st.composite
def _joint_laws(draw):
    dt = draw(st.sampled_from([0.01, 0.02, 0.05]))
    grid = uniform_grid(draw(st.sampled_from([1.0, 4.0, 12.0])), dt)
    joints = []
    for _ in range(2):  # h and h0
        if draw(st.booleans()):  # bucketed conditionals need atomless laws
            centers = sorted(draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3,
                                           unique=True)))
            joints.append(JointDurationDist(
                g=_law(draw, dt, False), bucket_centers=tuple(centers),
                bucket_dists=tuple(_law(draw, dt, False) for _ in centers)))
        else:
            joints.append(JointDurationDist(g=_law(draw, dt, True), f=_law(draw, dt, True)))
    return joints[0], joints[1], grid


def _direct_head(a, b, m):
    # np.convolve row by row over the batch in a
    rows = [np.convolve(r, b)[:m] for r in a.reshape(-1, a.shape[-1])]
    return np.reshape(rows, a.shape[:-1] + (m,))


@_SETTINGS
@given(_joint_laws(), st.integers(1, 8))
def test_tabulate_kernels_matches_direct_convolution(case, shifts):
    h, h0, grid = case
    kt = tabulate_kernels(h, h0, grid)
    rows = distributions._conv_cdf_values(h, grid, shifts)
    with mock.patch.object(distributions, "_conv_head", _direct_head):
        ref = tabulate_kernels(h, h0, grid)
        ref_rows = distributions._conv_cdf_values(h, grid, shifts)
    for name in ("phi", "psi", "phi0", "psi0"):
        assert np.max(np.abs(getattr(kt, name) - getattr(ref, name))) <= 1e-13, name
    np.testing.assert_array_equal(kt.psi, h.g.cdf(grid) - kt.phi)
    np.testing.assert_array_equal(kt.psi0, h0.g.cdf(grid) - kt.phi0)
    # row d is P(xi <= t_k, xi + eta <= t_{k+d}), given where k + d < n:
    # nondecreasing in d and at most G(t_k), up to the FFT's rounding
    valid = np.arange(len(grid)) + np.arange(shifts)[:, None] < len(grid)
    assert np.max(np.abs(rows - ref_rows)[valid]) <= 1e-13
    np.testing.assert_array_equal(rows[0], kt.phi)
    assert np.all(np.diff(rows, axis=0)[valid[1:]] >= -1e-15)
    assert np.all((rows <= h.g.cdf(grid) + 1e-15)[valid])


@st.composite
def _models(draw):
    dt = draw(st.sampled_from([0.05, 0.1]))
    grid = uniform_grid(draw(st.sampled_from([1.0, 2.0, 4.0])), dt)
    kind = draw(st.sampled_from(["SIS", "SIR", "SEIR", "SIRS"]))
    if draw(st.booleans()):
        lam = draw(st.floats(0.0, 4.0))
    else:
        times = sorted(draw(st.lists(st.floats(0.1, 3.0), max_size=3, unique=True)))
        lam = TabulatedRate([0.0] + times, draw(st.lists(st.floats(0.0, 4.0),
                                                          min_size=len(times) + 1,
                                                          max_size=len(times) + 1)))
    # laws without an atom at 0, so that every fluctuation starts at 0
    laws = [_law(draw, dt, True, min_lag=1) for _ in range(2)]
    masses = {"i0": draw(st.floats(0.001, 0.3))}
    if kind in ("SIS", "SIR"):
        return ModelSpec(kind=kind, lam=lam, f=laws[0], **masses), grid
    other = {"SEIR": "e0", "SIRS": "r0"}[kind]
    masses[other] = draw(st.floats(0.0, 0.3))
    return ModelSpec(kind=kind, lam=lam, h=JointDurationDist(g=laws[0], f=laws[1]),
                     **masses), grid


@settings(derandomize=True, deadline=None, max_examples=15)
@given(_models(), st.integers(0, 2**32 - 1))
def test_fluid_and_fluctuation_conserve_mass(case, seed):
    spec, grid = case
    fl = solve_fluid(spec, grid)
    assert np.max(np.abs(fl.S + fl.E + fl.I + fl.R - 1.0)) <= 1e-12
    assert np.all(np.diff(fl.A) >= 0.0)  # a trapezoid sum of q >= 0
    # SEIR's L is an FFT convolution: it may step back by rounding, below
    # 4e-17 over 300 random models
    assert np.all(np.diff(fl.L) >= -1e-15)
    drivers = sample_drivers(DriverCovariance(fl), grid, np.random.default_rng(seed), paths=3)
    path = solve_fclt_path(drivers, fl, spec, grid)
    hats = [path.Shat, path.Ehat, path.Ihat, path.Rhat]
    assert np.max(np.abs(sum(hats))) <= 1e-10
    for hat in hats:
        assert np.all(hat[:, 0] == 0.0)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(_models(), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_replay_matches_path_and_intensity_is_monotone(case, n, seed):
    spec, grid = case
    path, log = simulate(spec, n, grid[-1], grid[1] - grid[0], seed=seed)
    S, I = _replay(log)
    assert len(S) == len(I) == len(log) + 1
    k = np.searchsorted(log.times, path.grid, side="right")
    np.testing.assert_array_equal(S[k], path.S)
    np.testing.assert_array_equal(I[k], path.I)
    ts = np.sort(np.concatenate([path.grid, log.times]))
    lam_bar = integrated_intensity(log, spec, ts)
    assert lam_bar[0] == 0.0
    assert np.all(np.diff(lam_bar) >= 0.0)
