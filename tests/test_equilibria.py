"""Closed-form endemic equilibria and the fixed-point verification report."""

import json

import numpy as np
import pytest

from epilim import (
    Exponential,
    Gamma,
    JointDurationDist,
    LogNormal,
    ModelSpec,
    TabulatedRate,
    Uniform,
    solve_fluid,
    uniform_grid,
)
from epilim.equilibria import (
    ENDEMIC,
    TRIVIAL,
    EquilibriumPoint,
    sis_equilibrium,
    sirs_equilibrium,
    verify_equilibrium_identities,
)


def test_sis_closed_form():
    p = sis_equilibrium(2.0, 1.0)
    assert p.classification == ENDEMIC
    assert p.I == pytest.approx(0.5, abs=1e-15)
    assert p.S == pytest.approx(0.5, abs=1e-15)
    assert p.R == 0.0
    # boundary mu = lam only leaves the disease-free point
    q = sis_equilibrium(1.0, 1.0)
    assert q.classification == TRIVIAL and q.I == 0.0 and q.S == 1.0
    assert sis_equilibrium(1.0, 3.0).classification == TRIVIAL
    with pytest.raises(ValueError):
        sis_equilibrium(0.0, 1.0)
    with pytest.raises(ValueError):
        sis_equilibrium(2.0, -1.0)


def test_sirs_closed_form():
    p = sirs_equilibrium(3.0, 1.0, 2.0)
    assert p.classification == ENDEMIC
    assert p.S == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p.I == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert p.R == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert abs(p.S + p.I + p.R - 1.0) < 1e-12

    q = sirs_equilibrium(1.0, 2.0, 1.0)
    assert q.classification == TRIVIAL and q.note is not None
    # gamma -> lam from below collapses the endemic point into the trivial one
    r = sirs_equilibrium(2.0, 2.0 * (1.0 - 1e-10), 1.0)
    assert r.classification == ENDEMIC
    assert r.I < 1e-9 and r.S > 1.0 - 1e-9
    with pytest.raises(ValueError):
        sirs_equilibrium(3.0, 0.0, 2.0)


def test_point_validation():
    with pytest.raises(ValueError, match="sum"):
        EquilibriumPoint("SIRS", ENDEMIC, 0.5, 0.4, 0.3, 3.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="outside"):
        EquilibriumPoint("SIS", ENDEMIC, 1.5, -0.5, 0.0, 2.0, None, 1.0)
    with pytest.raises(ValueError, match="classification"):
        EquilibriumPoint("SIS", "Stable", 0.5, 0.5, 0.0, 2.0, None, 1.0)
    d = sirs_equilibrium(3.0, 1.0, 2.0).as_dict()
    assert d["S*"] == pytest.approx(1.0 / 3.0) and d["kind"] == "SIRS"


def test_monotonicity_lattice():
    lams = np.linspace(1.2, 4.0, 10)
    gammas = np.linspace(0.2, 1.0, 10)
    mus = np.linspace(0.3, 3.0, 10)
    istar = np.empty((10, 10, 10))
    for a, lam in enumerate(lams):
        for b, gam in enumerate(gammas):
            for c, mu in enumerate(mus):
                istar[a, b, c] = sirs_equilibrium(lam, gam, mu).I
    assert np.all(np.diff(istar, axis=0) > 0)  # increasing in lam
    assert np.all(np.diff(istar, axis=1) < 0)  # decreasing in gamma
    assert np.all(np.diff(istar, axis=2) > 0)  # increasing in mu


def test_long_run_fluid_sis_matches_closed_form():
    # mean-1 LogNormal periods: the endemic level depends on the mean only
    grid = uniform_grid(100.0, 0.025)
    spec = ModelSpec(kind="SIS", lam=2.0, i0=0.1, f=LogNormal(-0.125, 0.5))
    fl = solve_fluid(spec, grid)
    assert abs(fl.I[-1] - 0.5) < 1e-3


def test_long_run_fluid_sirs_matches_closed_form():
    grid = uniform_grid(200.0, 0.05)
    h = JointDurationDist(g=Exponential(1.0), f=Exponential(2.0))
    spec = ModelSpec(kind="SIRS", lam=3.0, i0=0.1, h=h)
    fl = solve_fluid(spec, grid)
    p = sirs_equilibrium(3.0, 1.0, 2.0)
    err = max(abs(fl.S[-1] - p.S), abs(fl.I[-1] - p.I), abs(fl.R[-1] - p.R))
    assert err < 1e-3


def test_verify_endemic_markovian_sirs():
    laws = JointDurationDist(g=Exponential(1.0), f=Exponential(2.0))
    grid = uniform_grid(50.0, 1e-3)
    report = verify_equilibrium_identities(ModelSpec(kind="SIRS", lam=3.0, i0=0.1, h=laws), grid)
    assert report["passed"]
    assert report["identities"]["residual1"] < 1e-10
    assert report["identities"]["residual2"] < 1e-10
    assert report["fixed_point"]["max_residual_I"] < 1e-6
    assert report["fixed_point"]["max_residual_R"] < 1e-6
    assert report["fixed_point"]["probes"] == 50
    # round-trips through JSON for the reporting layer
    again = json.loads(json.dumps(report))
    assert again["I*"] == pytest.approx(4.0 / 9.0)


def test_verify_depends_on_means_only():
    # same rates from very different shapes still verify
    grid = uniform_grid(50.0, 1e-3)
    rep = verify_equilibrium_identities(
        ModelSpec(kind="SIS", lam=2.0, i0=0.1, f=LogNormal(-0.125, 0.5)), grid)
    assert rep["passed"] and rep["fixed_point"]["max_residual_I"] < 1e-6

    laws = JointDurationDist(g=Uniform(0.5, 1.5), f=Gamma(2.0, 4.0))
    rep = verify_equilibrium_identities(ModelSpec(kind="SIRS", lam=3.0, i0=0.1, h=laws), grid)
    assert rep["passed"]
    assert rep["fixed_point"]["max_residual_R"] < 1e-6


def test_verify_trivial_points():
    grid = uniform_grid(20.0, 1e-3)
    rep = verify_equilibrium_identities(
        ModelSpec(kind="SIS", lam=1.0, i0=0.1, f=Exponential(2.0)), grid)
    assert rep["passed"]
    assert rep["identities"] == {"residual1": 0.0, "residual2": 0.0}
    assert rep["fixed_point"]["max_residual_I"] == 0.0

    laws = JointDurationDist(g=Exponential(2.0), f=Exponential(1.0))
    rep = verify_equilibrium_identities(ModelSpec(kind="SIRS", lam=1.0, i0=0.1, h=laws), grid)
    assert rep["passed"] and rep["identities"]["residual2"] == 0.0


def test_verify_validation():
    grid = uniform_grid(10.0, 1e-3)
    with pytest.raises(ValueError, match="independent"):
        verify_equilibrium_identities(
            ModelSpec(kind="SIRS", lam=3.0, i0=0.0, h=JointDurationDist(
                g=Exponential(1.0), bucket_centers=(0.5,), bucket_dists=(Exponential(2.0),))),
            grid,
        )
    with pytest.raises(ValueError, match="kind"):
        verify_equilibrium_identities(
            ModelSpec(kind="SIR", lam=2.0, i0=0.5, f=Exponential(1.0)), grid)


def test_verify_needs_a_constant_rate():
    spec = ModelSpec(kind="SIS", lam=TabulatedRate((0.0, 1.0), (2.0, 1.0)), i0=0.1,
                     f=Exponential(1.0))
    with pytest.raises(ValueError, match="constant contact rate"):
        verify_equilibrium_identities(spec, uniform_grid(10.0, 1e-3))
