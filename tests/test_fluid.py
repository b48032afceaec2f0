"""Volterra fluid solver: closed forms, ODE/delay/phase-type oracles, invariants."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import solve_triangular

from epilim import fluid
from epilim.agent_sim import ModelSpec, TabulatedRate
from epilim.distributions import (
    Deterministic,
    Exponential,
    Gamma,
    JointDurationDist,
    LogNormal,
    Uniform,
    tabulate_kernels,
    uniform_grid,
)
from epilim.equilibria import verify_equilibrium_identities
from epilim.fluid import (
    ConvKernel,
    conv_full,
    solve_deterministic_delay,
    solve_fluid,
    solve_markovian_ode,
    survival_kernel,
)


def _sup(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------- closed forms


def test_lam0_sir_is_pure_residual_decay():
    # With no transmission the infected curve is i0 * (1 - F0)(t), exactly.
    grid = uniform_grid(4.0, 0.01)
    spec = ModelSpec(
        kind="SIR", lam=0.0, i0=0.3, f=Exponential(1.0), f0=Uniform(0.0, 2.0)
    )
    sol = solve_fluid(spec, grid)
    expect_i = 0.3 * np.clip(1.0 - grid / 2.0, 0.0, None)
    assert _sup(sol.I, expect_i) < 1e-12
    assert _sup(sol.R, 0.3 - expect_i) < 1e-12
    assert _sup(sol.S, 0.7) == 0.0
    assert _sup(sol.A, 0.0) == 0.0


def test_lam0_with_point_mass_residual_jumps_on_node():
    grid = uniform_grid(2.0, 0.05)
    spec = ModelSpec(
        kind="SIR", lam=0.0, i0=0.4, f=Exponential(1.0), f0=Deterministic(0.5)
    )
    sol = solve_fluid(spec, grid)
    k = int(round(0.5 / 0.05))
    assert _sup(sol.I[:k], 0.4) == 0.0
    assert _sup(sol.I[k:], 0.0) == 0.0  # cadlag: gone at t = 0.5
    assert _sup(sol.R[k:], 0.4) == 0.0


def test_disease_free_state_is_constant():
    grid = uniform_grid(5.0, 0.05)
    spec = ModelSpec(kind="SIR", lam=2.0, i0=0.0, f=Exponential(1.0))
    sol = solve_fluid(spec, grid)
    assert _sup(sol.S, 1.0) == 0.0
    assert _sup(sol.I, 0.0) == 0.0 and _sup(sol.A, 0.0) == 0.0


# ------------------------------------------------------- exponential oracles


def test_sir_matches_markovian_ode():
    grid = uniform_grid(10.0, 0.002)
    spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=Exponential(1.0))
    sol = solve_fluid(spec, grid)
    ode = solve_markovian_ode(spec, grid)
    assert _sup(sol.S, ode.S) < 1e-6
    assert _sup(sol.I, ode.I) < 1e-6
    assert _sup(sol.R, ode.R) < 1e-6
    assert _sup(sol.A, ode.A) < 1e-6


def test_seir_matches_markovian_ode():
    grid = uniform_grid(10.0, 0.002)
    h = JointDurationDist(g=Exponential(2.0), f=Exponential(1.0))
    spec = ModelSpec(kind="SEIR", lam=2.0, i0=0.02, e0=0.03, h=h)
    sol = solve_fluid(spec, grid)
    ode = solve_markovian_ode(spec, grid)
    for a, b in ((sol.S, ode.S), (sol.E, ode.E), (sol.I, ode.I), (sol.R, ode.R)):
        assert _sup(a, b) < 1e-6
    # exposed balance holds by construction, not just asymptotically
    assert _sup(sol.E, 0.03 + sol.A - sol.L) < 1e-12


def test_sis_matches_markovian_ode():
    grid = uniform_grid(10.0, 0.002)
    spec = ModelSpec(kind="SIS", lam=2.0, i0=0.05, f=Exponential(1.0))
    sol = solve_fluid(spec, grid)
    ode = solve_markovian_ode(spec, grid)
    assert _sup(sol.I, ode.I) < 1e-6


def test_sirs_matches_markovian_ode():
    grid = uniform_grid(10.0, 0.002)
    h = JointDurationDist(g=Exponential(1.0), f=Exponential(2.0))
    spec = ModelSpec(kind="SIRS", lam=3.0, i0=0.1, r0=0.15, h=h)
    sol = solve_fluid(spec, grid)
    ode = solve_markovian_ode(spec, grid)
    for a, b in ((sol.S, ode.S), (sol.I, ode.I), (sol.R, ode.R)):
        assert _sup(a, b) < 1e-6


def test_rk4_oracle_properties():
    grid = uniform_grid(8.0, 0.002)
    ode = solve_markovian_ode(ModelSpec(kind="SIR", lam=0.0, i0=0.2, f=Exponential(1.3)), grid)
    assert _sup(ode.I, 0.2 * np.exp(-1.3 * grid)) < 1e-10
    h = JointDurationDist(g=Exponential(1.5), f=Exponential(1.0))
    ode = solve_markovian_ode(ModelSpec(kind="SEIR", lam=2.0, i0=0.05, e0=0.05, h=h), grid)
    assert _sup(ode.S + ode.E + ode.I + ode.R, 1.0) < 1e-12
    assert _sup(ode.E, 0.05 + ode.A - ode.L) < 1e-12
    long = uniform_grid(50.0, 0.001)
    ode = solve_markovian_ode(ModelSpec(kind="SIS", lam=2.0, i0=0.3, f=Exponential(1.0)), long)
    assert abs(ode.I[-1] - 0.5) < 1e-6  # endemic level 1 - mu/lam


def _rk4_arrays(kind, lam, gamma, mu, u0, grid):
    # reference: RK4 on numpy state vectors, in the solver's operation order
    def vf(u):
        s, e, i, r = u
        inf = lam * s * i
        if kind == "SIS":
            return np.array([-inf + mu * i, 0.0, inf - mu * i, 0.0])
        if kind == "SIR":
            return np.array([-inf, 0.0, inf - mu * i, mu * i])
        if kind == "SEIR":
            return np.array([-inf, inf - gamma * e, gamma * e - mu * i, mu * i])
        return np.array([-inf + mu * r, 0.0, inf - gamma * i, gamma * i - mu * r])

    dt = grid[1] - grid[0]
    out = np.empty((len(grid), 4))
    acum = np.zeros(len(grid))
    out[0] = u = np.array(u0)
    for k in range(1, len(grid)):
        k1 = vf(u)
        u2 = u + 0.5 * dt * k1
        k2 = vf(u2)
        u3 = u + 0.5 * dt * k2
        k3 = vf(u3)
        u4 = u + dt * k3
        k4 = vf(u4)
        flux = [lam * v[0] * v[2] for v in (u, u2, u3, u4)]
        acum[k] = acum[k - 1] + dt / 6.0 * (flux[0] + 2.0 * flux[1] + 2.0 * flux[2] + flux[3])
        out[k] = u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out, acum


@pytest.mark.parametrize("kind", ["SIS", "SIR", "SEIR", "SIRS"])
def test_rk4_matches_array_form_bitwise(kind):
    grid = uniform_grid(6.0, 0.01)
    # ModelSpec takes e0 for SEIR only and r0 for SIRS only
    e0, r0 = 0.03 * (kind == "SEIR"), 0.02 * (kind == "SIRS")
    laws = ({"f": Exponential(0.9)} if kind in ("SIS", "SIR")
            else {"h": JointDurationDist(g=Exponential(1.3), f=Exponential(0.9))})
    ode = solve_markovian_ode(ModelSpec(kind=kind, lam=1.7, i0=0.05, e0=e0, r0=r0, **laws), grid)
    u0 = (1.0 - 0.05 - e0 - r0, e0, 0.05, r0)
    out, acum = _rk4_arrays(kind, 1.7, 1.3, 0.9, u0, grid)
    np.testing.assert_array_equal(np.column_stack([ode.S, ode.E, ode.I, ode.R]), out)
    np.testing.assert_array_equal(ode.A, acum)


_EXP_H = JointDurationDist(g=Exponential(1.0), f=Exponential(1.0))
_BUCKETED = JointDurationDist(g=Exponential(1.0), bucket_centers=(0.5, 2.0),
                              bucket_dists=(Exponential(1.0), Exponential(2.0)))


@pytest.mark.parametrize("model, match", [
    (dict(kind="SIR", f=Gamma(2.0, 2.0)), "exponential"),
    (dict(kind="SEIR", h=_EXP_H, e0=0.05,
          h0=JointDurationDist(g=Gamma(2.0, 2.0), f=Exponential(1.0))), "h0 = "),
    (dict(kind="SEIR", h=_BUCKETED, f0=Exponential(1.0)), "independent exponential"),
    (dict(kind="SIR", lam=TabulatedRate((0.0, 1.0), (1.5, 0.5)), f=Exponential(1.0)), "constant"),
    (dict(kind="SIR", f=Exponential(1.0), f0=Exponential(2.0)), r"f0 = Exponential\(1\)"),
    (dict(kind="SIRS", h=_EXP_H, r0=0.1, f0=Uniform(0.0, 4.0)), "f0 = "),
])
def test_markovian_ode_refuses_models_it_does_not_describe(model, match):
    # only a constant rate, exponential laws and each initial pool holding a
    # new infection's remaining stages make the ODE the model's limit
    spec = ModelSpec(**dict(dict(lam=1.5, i0=0.05), **model))
    with pytest.raises(ValueError, match=match):
        solve_markovian_ode(spec, uniform_grid(1.0, 0.1))


# ------------------------------------------------- non-exponential dual route


def test_gamma_period_matches_two_stage_expansion():
    # A Gamma(2, r) infectious period is two exponential stages in series;
    # the stationary-excess residual puts half the initial mass in each
    # stage, so a 3-compartment ODE gives an independent reference.
    lam, r, i0 = 1.5, 2.0, 0.1
    grid = uniform_grid(10.0, 0.002)
    spec = ModelSpec(kind="SIR", lam=lam, i0=i0, f=Gamma(shape=2.0, rate=r))
    sol = solve_fluid(spec, grid)

    def rhs(t, y):
        s, i1, i2 = y
        flux = lam * s * (i1 + i2)
        return [-flux, flux - r * i1, r * i1 - r * i2]

    ode = solve_ivp(
        rhs,
        (0.0, 10.0),
        [1.0 - i0, i0 / 2.0, i0 / 2.0],
        t_eval=grid,
        rtol=1e-11,
        atol=1e-13,
        max_step=0.05,
    )
    assert _sup(sol.S, ode.y[0]) < 5e-7
    assert _sup(sol.I, ode.y[1] + ode.y[2]) < 5e-7
    # frozen spot value from the staged ODE at rtol 1e-11
    assert abs(sol.I[int(round(5.0 / 0.002))] - 0.04573011191905699) < 1e-6


def test_sirs_fluid_matches_delay_form():
    # Point-mass periods turn the renewal system into a delay equation the
    # two solvers discretize identically, so agreement is near machine level.
    lam, xi, eta, i0, r0 = 2.0, 1.0, 1.5, 0.25, 0.1
    grid = uniform_grid(12.0, 0.05)
    h = JointDurationDist(g=Deterministic(xi), f=Deterministic(eta))
    spec = ModelSpec(kind="SIRS", lam=lam, i0=i0, r0=r0, h=h)
    sol = solve_fluid(spec, grid)
    dde = solve_deterministic_delay(spec, grid)
    for a, b in ((sol.S, dde.S), (sol.I, dde.I), (sol.R, dde.R), (sol.A, dde.A)):
        assert _sup(a, b) < 1e-12


def test_delay_solver_validation_and_lam0():
    grid = uniform_grid(3.0, 0.05)
    h = JointDurationDist(g=Deterministic(1.0), f=Deterministic(1.5))
    with pytest.raises(ValueError):
        solve_deterministic_delay(
            ModelSpec(kind="SIR", lam=1.0, i0=0.1, f=Deterministic(1.0)), grid)
    with pytest.raises(ValueError):  # 0.07 does not divide 1.0
        solve_deterministic_delay(
            ModelSpec(kind="SIRS", lam=1.0, i0=0.1, h=h), uniform_grid(3.5, 0.07)
        )
    dde = solve_deterministic_delay(ModelSpec(kind="SIRS", lam=0.0, i0=0.2, h=h), grid)
    expect_i = 0.2 * np.clip(1.0 - grid, 0.0, None)
    assert _sup(dde.I, expect_i) < 1e-12


@pytest.mark.parametrize("model, match", [
    (dict(kind="SEIR", h=JointDurationDist(g=Deterministic(1.0), f=Deterministic(1.5))),
     "SIRS only"),
    (dict(h=JointDurationDist(g=Deterministic(1.0), f=Exponential(1.0))), "Deterministic"),
    (dict(i0=0.0, r0=0.1, h=JointDurationDist(g=Deterministic(0.0), f=Deterministic(1.5))),
     "positive"),
    (dict(lam=TabulatedRate((0.0, 1.0), (1.5, 0.5))), "constant"),
    (dict(h0=JointDurationDist(g=Uniform(0.0, 0.5), f=Deterministic(1.5))), "h0 = "),
    (dict(r0=0.1, f0=Uniform(0.0, 1.0)), r"f0 = Uniform\(0, 1.5\)"),
])
def test_delay_form_refuses_other_models(model, match):
    # SIRS with point-mass periods, a constant rate and ModelSpec's default
    # uniform residual laws only
    base = dict(kind="SIRS", lam=2.0, i0=0.1,
                h=JointDurationDist(g=Deterministic(1.0), f=Deterministic(1.5)))
    with pytest.raises(ValueError, match=match):
        solve_deterministic_delay(ModelSpec(**dict(base, **model)), uniform_grid(3.0, 0.05))


def test_rate_shutoff_freezes_cumulative_infections():
    lam = TabulatedRate(times=(0.0, 1.0), values=(1.5, 0.0))
    grid = uniform_grid(4.0, 0.001)
    spec = ModelSpec(kind="SIR", lam=lam, i0=0.1, f=Exponential(1.0))
    sol = solve_fluid(spec, grid)
    k1 = int(round(1.0 / 0.001))
    assert sol.A[-1] == sol.A[k1]
    # after shutoff the infected mass just ages out exponentially
    tail = grid[k1:] - 1.0
    assert _sup(sol.I[k1:], sol.I[k1] * np.exp(-tail)) < 1e-5


# ----------------------------------------------------------------- invariants


def _sample_specs():
    h = JointDurationDist(g=Gamma(2.0, 3.0), f=LogNormal(-0.125, 0.5))
    return [
        ModelSpec(kind="SIS", lam=2.0, i0=0.3, f=Exponential(1.0)),
        ModelSpec(kind="SIR", lam=1.8, i0=0.05, f=LogNormal(-0.125, 0.5)),
        ModelSpec(kind="SEIR", lam=2.2, i0=0.02, e0=0.05, h=h),
        ModelSpec(kind="SIRS", lam=2.5, i0=0.1, r0=0.2, h=h),
    ]


def test_compartment_invariants():
    grid = uniform_grid(8.0, 0.01)
    for spec in _sample_specs():
        sol = solve_fluid(spec, grid)
        for arr in (sol.S, sol.E, sol.I, sol.R):
            assert np.all(arr > -1e-10) and np.all(arr < 1.0 + 1e-10)
        # A and L are cumulative, so only bounded for the no-reinfection kinds
        assert np.all(sol.A > -1e-14) and np.all(sol.L > -1e-14)
        if spec.kind in ("SIR", "SEIR"):
            assert np.all(sol.A < 1.0 + 1e-10) and np.all(sol.L < 1.0 + 1e-10)
        total = sol.S + sol.E + sol.I + sol.R
        assert _sup(total, 1.0) < 1e-12
        assert np.all(np.diff(sol.A) > -1e-14)
        assert np.all(np.diff(sol.L) > -1e-14)
        # A' = lam * S * I <= lam, so A is lam-Lipschitz
        assert np.max(np.diff(sol.A)) <= spec.lam_max() * 0.01 + 1e-12
        if spec.kind in ("SIR", "SEIR"):
            assert np.all(np.diff(sol.S) < 1e-14)
            assert np.all(np.diff(sol.R) > -1e-14)
        if spec.kind == "SIS":
            assert _sup(sol.S + sol.I, 1.0) == 0.0


def test_grid_refinement_is_second_order():
    spec = ModelSpec(kind="SIR", lam=1.8, i0=0.05, f=LogNormal(-0.125, 0.5))
    fine = solve_fluid(spec, uniform_grid(5.0, 0.0025))
    errs = []
    for dt in (0.04, 0.02):
        sol = solve_fluid(spec, uniform_grid(5.0, dt))
        stride = int(round(dt / 0.0025))
        errs.append(_sup(sol.I, fine.I[::stride]))
    # halving dt should shrink the error about 4x (5x against this
    # not-yet-converged reference); allow a generous band
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 7.0


def test_probe_and_diagnostics():
    grid = uniform_grid(6.0, 0.01)
    spec = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=Gamma(2.0, 2.0))
    a = solve_fluid(spec, grid)
    assert a.diagnostics["probe_residual"] < 1e-10
    assert a.diagnostics["halvings"] == 0
    assert a.diagnostics["max_iterations"] >= 1
    assert a.diagnostics["dt"] == pytest.approx(0.01)


@pytest.mark.parametrize("kind, probed", [("SIS", ["I"]), ("SIR", ["I", "S"]),
                                           ("SIRS", ["I", "R"])])
def test_probe_covers_every_stepped_term(kind, probed, monkeypatch):
    h = JointDurationDist(g=Exponential(1.0), f=Uniform(0.5, 1.5))
    spec = ModelSpec(kind=kind, lam=1.5, i0=0.05, **({"h": h} if kind == "SIRS" else
                                                     {"f": Gamma(2.0, 2.0)}))
    seen = []
    probe = fluid._probe_residual

    def recorded(x, *args):
        seen.append((x, probe(x, *args)))
        return seen[-1][1]

    monkeypatch.setattr(fluid, "_probe_residual", recorded)
    sol = solve_fluid(spec, uniform_grid(6.0, 0.01))
    assert [next(c for c in "SEIR" if getattr(sol, c) is x) for x, _ in seen] == probed
    assert sol.diagnostics["probe_residual"] == max(r for _, r in seen) < 1e-10
    assert 0.0 < sol.diagnostics["max_contraction"] < 0.1


def test_contraction_after_halvings_is_below_the_bound():
    # lam 40, SIR: 0.5 lam dt (S - I) at t = 0 is 0.225 at dt 0.0125, the
    # grid of three halvings, and twice that at the grid before
    spec = ModelSpec(kind="SIR", lam=40.0, i0=0.05, f=Exponential(1.0))
    sol = solve_fluid(spec, uniform_grid(1.0, 0.1))
    assert sol.diagnostics["halvings"] == 3
    bound = fluid._TOL ** (1.0 / fluid._MAX_ITER)
    assert 0.2 < sol.diagnostics["max_contraction"] <= bound < 0.45


def test_stiff_rate_triggers_halving_then_fails_honestly():
    spec = ModelSpec(kind="SIR", lam=40.0, i0=0.05, f=Exponential(1.0))
    sol = solve_fluid(spec, uniform_grid(1.0, 0.1))
    assert sol.diagnostics["halvings"] == 3
    assert sol.diagnostics["dt"] == pytest.approx(0.0125)
    assert len(sol.I) == 11  # subsampled back onto the requested grid
    ode = solve_markovian_ode(spec, uniform_grid(1.0, 1e-4))
    assert abs(sol.I[-1] - ode.I[-1]) < 2e-4

    hot = ModelSpec(kind="SIR", lam=120.0, i0=0.05, f=Exponential(1.0))
    with pytest.raises(RuntimeError, match="halvings"):
        solve_fluid(hot, uniform_grid(1.0, 0.1))


@pytest.mark.parametrize("lam, dt, halvings", [
    (80.0, 0.1, 3), (80.0, 0.05, 2), (80.0, 0.02, 1),
    (120.0, 0.1, 4), (120.0, 0.05, 3), (120.0, 0.02, 1),
])
def test_stiff_seir_halves_as_pinned(lam, dt, halvings):
    # the stiffest rows of a sweep over kinds, rates and steps: a change of
    # the sub-block size or of the contraction guard that moves the halving
    # contract shows here
    h = JointDurationDist(g=Gamma(2.0, 2.0), f=Exponential(1.0))
    spec = ModelSpec(kind="SEIR", lam=lam, i0=0.05, e0=0.05, h=h)
    assert solve_fluid(spec, uniform_grid(2.0, dt)).diagnostics["halvings"] == halvings


@pytest.mark.parametrize("kind", ["SIS", "SIR", "SIRS"])
def test_hottest_sweep_rows_fail_after_every_halving(kind):
    h = JointDurationDist(g=Exponential(1.0), f=Uniform(0.5, 1.5))
    extra = {"h": h, "r0": 0.05} if kind == "SIRS" else {"f": Exponential(1.0)}
    spec = ModelSpec(kind=kind, lam=120.0, i0=0.05, **extra)
    with pytest.raises(RuntimeError, match="halvings"):
        solve_fluid(spec, uniform_grid(2.0, 0.1))


@pytest.mark.parametrize("kind, pool", [("SEIR", "e0"), ("SIRS", "r0")])
def test_halved_fluid_keeps_its_kernels_on_the_requested_grid(kind, pool):
    # the fclt solve reads fluid.kernels on the requested grid, so after a
    # halving the table is tabulated there, not subsampled from the finer one
    h = JointDurationDist(g=Exponential(1.0), f=Uniform(0.5, 1.5))
    spec = ModelSpec(kind=kind, lam=40.0, i0=0.05, h=h, **{pool: 0.05})
    grid = uniform_grid(4.0, 0.1)
    sol = solve_fluid(spec, grid)
    assert sol.diagnostics["halvings"] > 0
    want = tabulate_kernels(spec.h, spec.residual_joint(), grid)
    for name in ("grid", "phi", "psi", "phi0", "psi0"):
        np.testing.assert_array_equal(getattr(sol.kernels, name), getattr(want, name))
    assert (sol.kernels.phi_atoms, sol.kernels.psi_atoms) == (want.phi_atoms, want.psi_atoms)
    sir = ModelSpec(kind="SIR", lam=40.0, i0=0.05, f=Exponential(1.0))
    assert solve_fluid(sir, grid).kernels is None  # one-stage kinds have no table


def test_solvers_refuse_a_grid_that_does_not_start_at_0():
    # every solver reads node k as time k dt: on this grid the fluid once
    # returned I(t_0) = 0.0184 for i0 = 0.05
    late = np.linspace(1.0, 3.0, 21)
    sir = ModelSpec(kind="SIR", lam=1.5, i0=0.05, f=Exponential(1.0))
    sis = ModelSpec(kind="SIS", lam=2.0, i0=0.05, f=Exponential(1.0))
    h = JointDurationDist(g=Exponential(1.0), f=Uniform(1.0, 3.0))
    for call in (lambda: solve_fluid(sir, late), lambda: solve_markovian_ode(sir, late),
                 lambda: tabulate_kernels(h, h, late),
                 lambda: verify_equilibrium_identities(sis, late)):
        with pytest.raises(ValueError, match="start at 0"):
            call()


def test_off_grid_point_mass_is_rejected():
    spec = ModelSpec(kind="SIR", lam=1.0, i0=0.1, f=Deterministic(0.333))
    with pytest.raises(ValueError, match="grid"):
        solve_fluid(spec, uniform_grid(2.0, 0.01))


# ------------------------------------------------------- linear system solver


def _linear_volterra(forcings, kernels, weights, grid, residual=None):
    """X_i = f_i + int_0^t K_i(t-s) r(s) ds with r = sum_i z_i X_i, on the
    fluid's step loop under a linear rate, whose sub-block step is one exact
    triangular solve. Forcings are (n,) or (paths, n); returns (list of X_i,
    r) in their shape. With residual, asserts the discretized equations hold
    to it."""
    zs = [np.broadcast_to(z, grid.shape) for z in weights]

    def solve(u, e, G, T):
        # r = sum_i z_i (G_i + T_i r) on the nodes [u, e)
        cols = (slice(u, e),) + (None,) * (G[0].ndim - 1)
        mat = np.eye(e - u) - sum(z[u:e, None] * t for z, t in zip(zs, T))
        rhs = sum(z[cols] * g for z, g in zip(zs, G))
        return solve_triangular(mat, rhs, lower=True)

    fs = [np.ascontiguousarray(np.asarray(f, dtype=float).T) for f in forcings]
    xs, r, _ = fluid._renewal(grid, np.array(fs), kernels, solve)
    if residual is not None:
        for f, ker, x in zip(fs, kernels, xs):
            conv = conv_full(ker, r.T, grid[1] - grid[0]).T
            assert _sup(x - f, conv) <= residual
    return [x.T for x in xs], r.T


def test_linear_volterra_zero_coupling_returns_forcing():
    grid = uniform_grid(2.0, 0.01)
    f = np.sin(grid)
    ker = survival_kernel(Exponential(1.0), grid)
    zero = ConvKernel(cont=0.0 * ker.cont, atoms=())  # c = 0 folded into the kernel
    xs, r = _linear_volterra([f], [zero], [1.0], grid)
    assert _sup(xs[0], f) == 0.0
    assert _sup(r, f) == 0.0


def test_linear_volterra_exponential_solution():
    # x(t) = 1 + c int_0^t x(s) ds has solution e^{ct}; trapezoid error O(dt^2)
    grid = uniform_grid(2.0, 0.002)
    c_ones = ConvKernel(cont=np.full(len(grid), 0.7), atoms=())
    xs, _ = _linear_volterra([np.ones(len(grid))], [c_ones], [1.0], grid, residual=1e-10)
    assert _sup(xs[0], np.exp(0.7 * grid)) < 1e-5


def test_linear_volterra_2d_against_picard():
    rng = np.random.default_rng(20260814)
    grid = uniform_grid(1.5, 0.005)
    n = len(grid)
    x = np.cos(grid)
    y = 0.3 * grid
    z = 0.5 + 0.1 * np.sin(grid)
    w = 0.2 * np.ones(n)
    K = np.exp(-grid)
    a, c = 0.4, 0.8
    # phi = a + x + c int (z phi + w psi) ds, psi = y + c int K(t-s)(z phi + w psi)(s) ds
    (phi, psi), _ = _linear_volterra(
        [a + x, y], [ConvKernel(cont=np.full(n, c)), ConvKernel(cont=c * K)], [z, w], grid,
        residual=1e-10,
    )

    # fixed-point iteration on the same trapezoid discretization
    dt = 0.005

    def trap_cum(v):
        out = np.zeros(n)
        out[1:] = np.cumsum(0.5 * dt * (v[1:] + v[:-1]))
        return out

    def conv(kv, v):
        full = dt * (np.convolve(kv, v)[:n] - 0.5 * kv * v[0] - 0.5 * kv[0] * v)
        return full

    p = np.zeros(n)
    s = np.zeros(n)
    for _ in range(200):
        r = p * z + s * w
        p = a + x + c * trap_cum(r)
        s = y + c * conv(K, r)
    assert _sup(phi, p) < 1e-10
    assert _sup(psi, s) < 1e-10
    del rng


def test_linear_volterra_batch_matches_flat():
    grid = uniform_grid(1.0, 0.01)
    n = len(grid)
    rng = np.random.default_rng(7)
    ker1 = survival_kernel(Gamma(2.0, 2.0), grid)
    ker2 = survival_kernel(Exponential(1.0), grid)
    # the coefficients 1.2 and -0.5 folded into the kernels
    kers = [ConvKernel(cont=1.2 * ker1.cont), ConvKernel(cont=-0.5 * ker2.cont)]
    fb1 = rng.normal(size=(4, n))
    fb2 = rng.normal(size=(4, n))
    z = 0.3 - 0.2 * grid
    xs, r = _linear_volterra([fb1, fb2], kers, [z, 0.4], grid)
    assert xs[0].shape == (4, n) and r.shape == (4, n)
    for p in range(4):
        xf, rf = _linear_volterra([fb1[p], fb2[p]], kers, [z, 0.4], grid)
        assert _sup(xs[0][p], xf[0]) < 1e-13
        assert _sup(xs[1][p], xf[1]) < 1e-13
        assert _sup(r[p], rf) < 1e-13


@pytest.mark.parametrize("paths, n", [(2000, 161), (2000, 257), (16, 1001)])
def test_conv_full_row_blocks_change_no_bit(paths, n, monkeypatch):
    # past _BLOCK nodes each row is its own FFT: one block, three rows a
    # block and the default blocks give the same bits (161 nodes take the
    # direct product, which has no row blocks)
    grid = uniform_grid((n - 1) * 0.05, 0.05)
    ker = survival_kernel(Deterministic(0.5), grid)
    ker = ConvKernel(cont=ker.cont + np.exp(-grid), atoms=ker.atoms)
    q = np.random.default_rng(5).standard_normal((paths, n))
    default = conv_full(ker, q, 0.05)
    for doubles in (q.size, 3 * n):
        monkeypatch.setattr(fluid, "_CONV_ROW_DOUBLES", doubles)
        np.testing.assert_array_equal(conv_full(ker, q, 0.05), default)


def test_conv_full_exact_for_constant_rate():
    # int_0^t K(t-s) ds with K = survival of Det(0.5): equals min(t, 0.5)
    grid = uniform_grid(2.0, 0.01)
    ker = survival_kernel(Deterministic(0.5), grid)
    out = conv_full(ker, np.ones(len(grid)), 0.01)
    assert _sup(out, np.minimum(grid, 0.5)) < 1e-12
