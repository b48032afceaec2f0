"""Property tests over random kernels, rate paths, period laws and models.

The FFT convolutions of fully known paths are checked against direct sums:
conv_full against the product-trapezoid sum written out, the kernel
tabulation against the same tabulation with np.convolve in place of the FFT,
and the step loop's blocked history sums against a step loop whose history
sums are direct dots. Over random models, the fluid conserves mass with
monotone cumulatives and the fluctuation limit's compartments sum to zero;
the driver covariance is symmetric and positive semidefinite to rounding,
each of its blocks is built bitwise symmetric, and sampled drivers keep
their additive identities; the simulator's event log
replays to its path at every node, gives each infection a new id in epoch
order and each agent its pool's transitions in order, and the integrated
infection intensity read from that log starts at 0 and never decreases.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epilim import ModelSpec, TabulatedRate, distributions, fclt, fluid
from epilim.agent_sim import (
    _STAGES,
    BECOME_INFECTIOUS,
    INFECT,
    _replay,
    integrated_intensity,
    simulate,
)
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
from epilim.fclt import DRIVER_IDS, DriverCovariance, sample_drivers, solve_fclt_path
from epilim.fluid import ConvKernel, conv_full, solve_fluid, solve_linear_volterra

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
    drivers = sample_drivers(DriverCovariance(fl), np.random.default_rng(seed), paths=3)
    path = solve_fclt_path(drivers, fl)
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
    # A and L count the log's infections and onsets of infectiousness
    onset = BECOME_INFECTIOUS if spec.kind == "SEIR" else INFECT
    for got, code in ((path.A, INFECT), (path.L, onset)):
        np.testing.assert_array_equal(np.cumsum(np.append(0, log.codes == code))[k], got)
    # post-time-zero infections get the ids k0, k0 + 1, ... in epoch order,
    # and every agent passes through its pool's codes in order, starting
    # from its infection if it has one
    k0 = log.i0_count + log.e0_count + log.r0_count
    infected = log.agents[log.codes == INFECT]
    np.testing.assert_array_equal(infected, np.arange(k0, k0 + len(infected)))
    sizes = {"i0": log.i0_count, "e0": log.e0_count, "r0": log.r0_count}
    expect, first = {}, 0
    for pool, _, codes in _STAGES[spec.kind]:
        if pool == "new":
            expect.update((a, (INFECT,) + codes) for a in infected.tolist())
        else:
            expect.update((a, codes) for a in range(first, first + sizes[pool]))
            first += sizes[pool]
    for a in np.unique(log.agents).tolist():
        mine = log.agents == a
        got = tuple(log.codes[mine].tolist())
        assert got == expect[a][:len(got)], (a, got)
        assert np.all(np.diff(log.times[mine]) >= 0.0)
    ts = np.sort(np.concatenate([path.grid, log.times]))
    lam_bar = integrated_intensity(log, spec, ts)
    assert lam_bar[0] == 0.0
    assert np.all(np.diff(lam_bar) >= 0.0)


def _direct_renewal(grid, terms, rate):
    """fluid._renewal with each step's history sum a direct dot over every
    earlier node, O(N^2): the reference for the blocked sums."""
    dt = grid[1] - grid[0]
    shape = terms[0][0].shape
    q, qcum = np.zeros(shape), np.zeros(shape)
    xs = [np.empty(shape) for _ in terms]
    ws = [0.5 * dt * (K.cont[0] + sum(j for lag, j in K.atoms if lag == 0)) for _, K in terms]
    for k in range(len(grid)):
        bases = []
        for f, K in terms:
            b = f[k] + dt * (K.cont[k:0:-1] @ q[:k] - 0.5 * K.cont[k] * q[0]) if k else f[0]
            for lag, j in K.atoms:
                if lag == 0 and k:
                    b = b + j * (qcum[k - 1] + 0.5 * dt * q[k - 1])
                elif 0 < lag <= k:
                    b = b + j * qcum[k - lag]
            bases.append(b)
        wk = ws if k else [0.0] * len(terms)  # X(0) = f(0)
        q[k] = rate(k, bases, wk)
        if k:
            qcum[k] = qcum[k - 1] + 0.5 * dt * (q[k - 1] + q[k])
        for x, b, w in zip(xs, bases, wk):
            x[k] = b + w * q[k]
    return xs, q, qcum


@st.composite
def _volterra_systems(draw):
    # node counts around the near block and its first far squares
    b = fluid._BLOCK
    n = draw(st.sampled_from([b - 1, b, b + 1, 2 * b + 1, 4 * b + 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dt = draw(st.sampled_from([1e-3, 2e-3]))
    paths = draw(st.sampled_from([(), (1,), (3,)]))
    forcings, kernels, coefs, weights = [], [], [], []
    for _ in range(draw(st.integers(1, 3))):
        forcings.append(rng.standard_normal(paths + (n,)) * draw(st.sampled_from([1e-3, 1.0])))
        cont = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([0.0, 1.0, 3.0]))
        lags = draw(st.lists(st.integers(1, n + 2), max_size=3))
        if draw(st.booleans()):
            lags = [0] + lags
        kernels.append(ConvKernel(cont=cont, atoms=tuple(
            (lag, float(rng.uniform(-1.0, 1.0))) for lag in lags)))
        coefs.append(draw(st.floats(-1.0, 1.0)))
        weights.append(rng.uniform(-1.0, 1.0, n) if draw(st.booleans())
                       else draw(st.floats(-1.0, 1.0)))
    return forcings, kernels, coefs, weights, uniform_grid((n - 1) * dt, dt)


@_SETTINGS
@given(_volterra_systems())
def test_blocked_history_matches_direct_sums(case):
    xs, r = solve_linear_volterra(*case)
    with mock.patch.object(fluid, "_renewal", _direct_renewal):
        ref_xs, ref_r = solve_linear_volterra(*case)
    for got, ref in zip(xs + [r], ref_xs + [ref_r]):
        assert got.shape == ref.shape == case[0][0].shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_blocked_fluid_matches_direct_sums():
    # SIRS above 4 blocks: both kernels carry far squares of several sizes
    spec = ModelSpec(kind="SIRS", lam=1.5, i0=0.01, r0=0.05,
                     h=JointDurationDist(g=Gamma(3.0, 3.0), f=Uniform(1.0, 3.0)))
    grid = uniform_grid(30.0, 0.02)
    assert len(grid) > 4 * fluid._BLOCK
    got = solve_fluid(spec, grid)
    with mock.patch.object(fluid, "_renewal", _direct_renewal):
        ref = solve_fluid(spec, grid)
    for name in "SEIRAL":
        assert np.max(np.abs(getattr(got, name) - getattr(ref, name))) <= 1e-12, name
    assert got.diagnostics["max_iterations"] == ref.diagnostics["max_iterations"]


@settings(derandomize=True, deadline=None, max_examples=15)
@given(_models(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_driver_covariance_is_symmetric_psd(case, fracs):
    spec, grid = case
    cov = DriverCovariance(solve_fluid(spec, grid))
    nodes = sorted({round(u * (len(grid) - 1)) for u in fracs})
    mat = cov.matrix([(d, grid[k]) for d in DRIVER_IDS[spec.kind] for k in nodes])
    np.testing.assert_array_equal(mat, mat.T)
    assert np.linalg.eigvalsh(mat)[0] >= -1e-12 * np.max(np.diag(mat))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(_models())
def test_driver_blocks_are_bitwise_symmetric(case):
    # the sampler factors each block in place, reading it as its transpose
    spec, grid = case
    cov = DriverCovariance(solve_fluid(spec, grid))
    n = len(grid)
    for block in dict.fromkeys(b for b, _ in fclt._LAW[spec.kind].values()):
        blk = cov._build(block)
        width = blk.shape[0]
        assert blk.shape == (width, n, width, n)
        bits = blk.reshape(width * n, width * n).view(np.uint64)
        np.testing.assert_array_equal(bits, bits.T, err_msg=block)


# signed driver sums that vanish: each driver is one sum of its block's base
# paths, so a pair that negates is exact and a longer identity is exact up
# to the rounding of those sums
_IDENTITIES = {
    "SIS": (("MA", "-I1", "-R1"), ("I0", "R0")),
    "SIR": (("MA", "-I1", "-R1"), ("I0", "R0")),
    "SEIR": (("MA", "-E1", "-L1"), ("L1", "-I1", "-R1"), ("E0", "L0"),
             ("E0", "I02", "R02"), ("I01", "R01")),
    "SIRS": (),
}


@settings(derandomize=True, deadline=None, max_examples=15)
@given(_models(), st.integers(0, 2**32 - 1))
def test_sampled_driver_identities(case, seed):
    spec, grid = case
    dr = sample_drivers(DriverCovariance(solve_fluid(spec, grid)),
                        np.random.default_rng(seed), paths=4)
    for ids in _IDENTITIES[spec.kind]:
        terms = [-dr[d[1:]] if d[0] == "-" else dr[d] for d in ids]
        total = sum(terms)
        if len(ids) == 2:
            assert np.all(total == 0.0), ids
        else:
            eps = np.finfo(float).eps
            assert np.all(np.abs(total) <= 4 * eps * sum(np.abs(t) for t in terms)), ids
    for d in ("MA", "I1", "R1", "E1", "L1"):  # nobody is infected before t = 0
        if d in dr:
            assert np.all(dr[d][:, 0] == 0.0), d
