"""Closed-form endemic equilibria for SIS and SIRS and numerical checks.

The closed forms depend on the period laws only through their means
(reciprocal rates gamma for the infectious period and mu for the immune
period). The verifier takes the ModelSpec, plugs its constant equilibrium
paths back into the integral fixed-point equations under stationary-excess
initial laws and reports the quadrature residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DurationDist, grid_step
from .model import ModelSpec

__all__ = [
    "EquilibriumPoint",
    "sis_equilibrium",
    "sirs_equilibrium",
    "verify_equilibrium_identities",
]

TRIVIAL = "Trivial"
ENDEMIC = "Endemic"

# largest identity or fixed-point residual that verification passes
_TOL = 1e-6


@dataclass(frozen=True)
class EquilibriumPoint:
    """A fixed point of the fluid system, with the rates that produced it."""

    kind: str
    classification: str
    S: float
    I: float
    R: float
    lam: float
    gamma: float | None  # reciprocal mean infectious period (SIRS)
    mu: float  # reciprocal mean infectious (SIS) or immune (SIRS) period
    note: str | None = None

    def __post_init__(self):
        if self.classification not in (TRIVIAL, ENDEMIC):
            raise ValueError(f"unknown classification {self.classification!r}")
        for name, v in (("S", self.S), ("I", self.I), ("R", self.R)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}* = {v} is outside [0, 1]")
        if abs(self.S + self.I + self.R - 1.0) > 1e-9:
            raise ValueError("equilibrium components must sum to 1")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "classification": self.classification,
            "S*": self.S,
            "I*": self.I,
            "R*": self.R,
            "lam": self.lam,
            "gamma": self.gamma,
            "mu": self.mu,
            "note": self.note,
        }


def sis_equilibrium(lam: float, mu: float) -> EquilibriumPoint:
    """Endemic point I* = 1 - mu/lam when mu < lam, else the trivial point.

    Only the mean of the infectious period enters, as 1/mu.
    """
    lam, mu = float(lam), float(mu)
    if lam <= 0 or mu <= 0:
        raise ValueError("need lam > 0 and mu > 0")
    if mu < lam:
        istar = 1.0 - mu / lam
        return EquilibriumPoint("SIS", ENDEMIC, 1.0 - istar, istar, 0.0,
                                lam, None, mu)
    return EquilibriumPoint("SIS", TRIVIAL, 1.0, 0.0, 0.0, lam, None, mu,
                            note="mu >= lam: only the disease-free point")


def sirs_equilibrium(lam: float, gamma: float, mu: float) -> EquilibriumPoint:
    """Unique endemic point S* = gamma/lam when lam > gamma.

    gamma and mu are the reciprocal mean infectious and immune periods;
    I* = (1 - gamma/lam) / (1 + gamma/mu) and R* = (gamma/mu) I*.
    """
    lam, gamma, mu = float(lam), float(gamma), float(mu)
    if lam <= 0 or gamma <= 0 or mu <= 0:
        raise ValueError("need lam, gamma, mu > 0")
    if lam > gamma:
        sstar = gamma / lam
        istar = (1.0 - sstar) / (1.0 + gamma / mu)
        rstar = (gamma / mu) * istar
        return EquilibriumPoint("SIRS", ENDEMIC, sstar, istar, rstar,
                                lam, gamma, mu)
    return EquilibriumPoint("SIRS", TRIVIAL, 1.0, 0.0, 0.0, lam, gamma, mu,
                            note="lam <= gamma: only the disease-free point")


def _stieltjes_int_sf(d_target: DurationDist, g: DurationDist, grid, k: int,
                      dgc, mids) -> float:
    """int over [0, t_k] of (int_0^(t_k - v) sf_target) dG(v), midpoint rule
    on the continuous part of G with atoms placed exactly."""
    t = grid[k]
    total = float(np.dot(d_target.int_sf(t - mids[:k]), dgc[:k])) if k else 0.0
    for loc, w in g.atoms():
        if loc <= t + 1e-12:
            total += w * float(d_target.int_sf(t - loc))
    return total


def verify_equilibrium_identities(spec: ModelSpec, grid) -> dict:
    """Check the flow-balance identities and the integral fixed point of
    spec's equilibrium.

    spec is SIS, or SIRS with an independent h (infectious g, immune f),
    at a constant rate; its initial masses and laws are not read. The
    constant equilibrium paths are substituted into the right-hand sides of
    the fluid equations under stationary-excess initial laws and the
    residuals are evaluated at 50 probe nodes of the grid. Quadrature is
    second order for atomless laws.
    """
    lam = spec.lam_constant()
    if lam is None:
        raise ValueError("equilibrium verification needs a constant contact rate")
    if spec.kind == "SIS":
        point = sis_equilibrium(lam, 1.0 / spec.f.mean())
    elif spec.kind == "SIRS" and spec.h.independent:
        point = sirs_equilibrium(lam, 1.0 / spec.h.g.mean(), 1.0 / spec.h.f.mean())
    else:
        raise ValueError(f"no equilibrium verification for kind {spec.kind!r} with these "
                         "laws: it covers SIS, and SIRS with independent period laws")
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    n = len(grid)
    probes = np.unique(np.linspace(1, n - 1, min(50, n - 1)).round().astype(int))
    sstar, istar, rstar = point.S, point.I, point.R
    qstar = lam * sstar * istar

    if point.kind == "SIS":
        intf = np.asarray(spec.f.int_sf(grid), dtype=float)
        # I(t) = I* (1 - F_e(t)) + lam S* I* int_0^t F^c
        rhs_i = istar * (1.0 - point.mu * intf[probes]) + qstar * intf[probes]
        res1 = abs(qstar - point.mu * istar)
        res2 = 0.0
        max_i = float(np.max(np.abs(rhs_i - istar)))
        max_r = 0.0
    else:
        g, f = spec.h.g, spec.h.f
        gam, mu = point.gamma, point.mu
        intg = np.asarray(g.int_sf(grid), dtype=float)
        intf = np.asarray(f.int_sf(grid), dtype=float)
        gc = np.asarray(g.sf(grid), dtype=float)
        fc = np.asarray(f.sf(grid), dtype=float)
        # continuous part of dG on grid cells, atoms handled separately
        gcd = 1.0 - gc
        for loc, w in g.atoms():
            gcd = gcd - w * (grid >= loc - 1e-12)
        dgc = np.diff(gcd)
        mids = grid[:-1] + 0.5 * dt

        # I(t) = I* (1 - G_e(t)) + lam S* I* int_0^t G^c
        rhs_i = istar * (1.0 - gam * intg[probes]) + qstar * intg[probes]
        max_i = float(np.max(np.abs(rhs_i - istar)))

        # R(t) = I* Psi_0(t) + R* (1 - F_e(t)) + lam S* I* int_0^t Psi,
        # Psi_0(t) = gam int_0^t F^c(t-u) G^c(u) du (stationary first stage)
        # and int_0^t Psi collapses to a single Stieltjes integral of int F^c
        max_r = 0.0
        for k in probes:
            seg = fc[k::-1] * gc[: k + 1]
            psi0 = gam * dt * (seg.sum() - 0.5 * (seg[0] + seg[-1]))
            ipsi = _stieltjes_int_sf(f, g, grid, int(k), dgc, mids)
            rhs_r = istar * psi0 + rstar * (1.0 - mu * intf[k]) + qstar * ipsi
            max_r = max(max_r, abs(rhs_r - rstar))
        res1 = abs(qstar - gam * istar)
        res2 = abs(mu * rstar - gam * istar)

    worst = max(res1, res2, max_i, max_r)
    return {
        "kind": point.kind,
        "classification": point.classification,
        "S*": sstar,
        "I*": istar,
        "R*": rstar,
        "identities": {"residual1": res1, "residual2": res2},
        "fixed_point": {
            "max_residual_I": max_i,
            "max_residual_R": max_r,
            "probes": int(len(probes)),
            "dt": float(dt),
            "horizon": float(grid[-1]),
        },
        "tolerance": _TOL,
        "passed": bool(worst < _TOL),
    }
