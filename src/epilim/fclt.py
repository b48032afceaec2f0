"""Gaussian fluctuation limits around the fluid paths.

Closed-form covariance kernels of the limit drivers, joint path sampling
that preserves the pathwise additive identities, the linear stochastic
Volterra solves for (Shat, Ehat, Ihat, Rhat), and the Markovian SIS SDE
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agent_sim import ModelSpec
from .distributions import Deterministic, JointDurationDist, grid_step, tabulate_kernels
from .fluid import (
    ConvKernel,
    FluidSolution,
    _atom_lag,
    cdf_kernel,
    conv_full,
    solve_linear_volterra,
    survival_kernel,
    table_kernel,
)

__all__ = [
    "DRIVER_IDS",
    "DriverCovariance",
    "FcltPath",
    "sample_drivers",
    "sis_sde_path",
    "solve_fclt_path",
]

DRIVER_IDS = {
    "SIS": ("MA", "I0", "I1", "R0", "R1"),
    "SIR": ("MA", "I0", "I1", "R0", "R1"),
    "SEIR": ("MA", "E1", "L1", "I1", "R1", "I01", "R01", "E0", "L0", "I02", "R02"),
    "SIRS": ("MA", "I0", "I1", "R01", "R02", "R1"),
}

_POINT_AT_ZERO = Deterministic(0.0)

# Post-infection drivers as constraints on (onset epoch a, settle epoch c)
# relative to the probe time. For one-stage kinds a is the infection time
# itself; for SIRS a is the recovery epoch and c the end of immunity.
_W_REGION = {
    ("SIR", "MA"): (),
    ("SIR", "I1"): ("a_le", "c_gt"),
    ("SIR", "R1"): ("a_le", "c_le"),
    ("SEIR", "MA"): (),
    ("SEIR", "E1"): ("a_gt",),
    ("SEIR", "L1"): ("a_le",),
    ("SEIR", "I1"): ("a_le", "c_gt"),
    ("SEIR", "R1"): ("a_le", "c_le"),
    ("SIRS", "MA"): (),
    ("SIRS", "I1"): ("a_gt",),
    ("SIRS", "R1"): ("a_le", "c_gt"),
}
_W_REGION.update({("SIS", d): r for (m, d), r in list(_W_REGION.items()) if m == "SIR"})

# Initial-pool roles: single residual period (i = still running, r = done)
# and two consecutive stages (e = in stage 1, i = in stage 2, r = done).
_RESIDUAL_ROLE = {"I0": "i", "R0": "r", "I01": "i", "R01": "r"}
_STAGE_ROLE = {
    "SEIR": {"E0": ("e", 1.0), "L0": ("e", -1.0), "I02": ("i", 1.0), "R02": ("r", 1.0)},
    "SIRS": {"I0": ("e", 1.0), "R01": ("i", 1.0)},
}


def _block(kind: str, x: str) -> str:
    ids = DRIVER_IDS.get(kind)
    if ids is None:
        raise ValueError(f"unknown kind {kind!r}")
    if x not in ids:
        raise ValueError(f"driver {x!r} is not defined for {kind}")
    if kind in ("SIS", "SIR"):
        return "W" if x in ("MA", "I1", "R1") else "init_i"
    if kind == "SEIR":
        if x in ("MA", "E1", "L1", "I1", "R1"):
            return "W"
        return "init_i" if x in ("I01", "R01") else "init_e"
    if x in ("MA", "I1", "R1"):
        return "W"
    return "init_i" if x in ("I0", "R01") else "init_r"


@dataclass
class FcltPath:
    """Sampled limit fluctuations and the driver paths that produced them."""

    grid: np.ndarray
    drivers: dict
    Shat: np.ndarray
    Ehat: np.ndarray
    Ihat: np.ndarray
    Rhat: np.ndarray
    ihat0: object = 0.0
    ehat0: object = 0.0
    seed: object = None


def _two_time_values(h: JointDurationDist, grid, delta_idx: int, mode: str) -> np.ndarray:
    """out[k] = int over y in [0, t_k] of W(t_{k+delta} - y | y) dG(y).

    W is the conditional cdf (mode "cdf") or survival (mode "sf") of the
    second stage given the first stage equals y; G is the first-stage law.
    delta_idx may be negative; arguments below zero give cdf 0 / sf 1.
    Second-order Stieltjes quadrature with G's atoms added exactly.
    """
    grid = np.asarray(grid, dtype=float)
    n = len(grid)
    dt = grid_step(grid)
    g = h.g

    conds = h.conditionals()
    if h.independent:
        node_bucket = np.zeros(n, dtype=int)
    else:
        if g.atoms() or any(d.atoms() for d in conds):
            raise ValueError("bucketed conditionals require atomless marginals")
        node_bucket = h._bucket_index(grid)

    idx = np.arange(n)

    def w_eval(d, lags):
        x = (lags + delta_idx) * dt
        vals = d.cdf(x) if mode == "cdf" else d.sf(x)
        filler = 0.0 if mode == "cdf" else 1.0
        return np.where(lags + delta_idx >= 0, vals, filler)

    out = np.zeros(n)
    dgc = np.diff(g.cdf_continuous(grid))
    for b, d in enumerate(conds):
        m1 = dgc * (node_bucket[:-1] == b)
        m2 = dgc * (node_bucket[1:] == b)
        if not (np.any(m1) or np.any(m2)):
            continue
        wa = w_eval(d, idx)
        left = np.convolve(m1, wa)[:n]
        left[: n - 1] -= m1 * wa[0]
        right = np.empty(n)
        right[0] = 0.0
        right[1:] = np.convolve(m2, wa)[: n - 1]
        out += 0.5 * (left + right)
    for loc, ja in g.atoms():
        a_idx = _atom_lag(loc, dt)
        if a_idx >= n:
            continue
        out[a_idx:] += ja * w_eval(h.conditional(loc), idx[: n - a_idx])
    return out


class DriverCovariance:
    """Closed-form covariance of the limit drivers on the fluid grid.

    The W-driven block is the intensity measure of rectangle intersections
    in (infection time, onset epoch, settle epoch) space; initial-condition
    blocks come from per-individual indicator moments. Cross-block
    covariances are exactly zero. Evaluation is pure and cached, so one
    instance can serve many sampling calls concurrently.
    """

    def __init__(self, fluid: FluidSolution, spec: ModelSpec | None = None):
        spec = spec if spec is not None else fluid.spec
        if spec is None:
            raise ValueError("need the model spec (fluid.spec or an explicit one)")
        if spec.kind != fluid.kind:
            raise ValueError("spec kind does not match the fluid solution")
        self.kind = spec.kind
        self.spec = spec
        self.fluid = fluid
        self.grid = np.asarray(fluid.grid, dtype=float)
        self.dt = grid_step(self.grid)
        self.n = len(self.grid)
        self.qpath = spec.lam_on_grid(self.grid) * fluid.S * fluid.I
        if self.kind in ("SIS", "SIR"):
            self._h = JointDurationDist(g=_POINT_AT_ZERO, f=spec.f)
            self._h0 = None
            self.kernels = None
        else:
            self._h = spec.h
            self._h0 = spec.h0 if spec.h0 is not None else spec.h
            self.kernels = tabulate_kernels(spec.h, self._h0, self.grid)
        self._cache: dict = {}

    # -- grid helpers --------------------------------------------------------

    def _node(self, t) -> int:
        k = int(round(float(t) / self.dt))
        if k < 0 or k >= self.n or abs(float(t) - k * self.dt) > 1e-9:
            raise ValueError(f"time {t} is not a node of the tabulation grid")
        return k

    def _two_time(self, law_tag: str, delta_idx: int, mode: str) -> np.ndarray:
        key = (law_tag, int(delta_idx), mode)
        hit = self._cache.get(key)
        if hit is None:
            h = self._h if law_tag == "h" else self._h0
            hit = _two_time_values(h, self.grid, int(delta_idx), mode)
            self._cache[key] = hit
        return hit

    # -- public evaluation ---------------------------------------------------

    def cov(self, x: str, t, y: str, tp) -> float:
        bx, by = _block(self.kind, x), _block(self.kind, y)
        it, ip = self._node(t), self._node(tp)
        if bx != by:
            return 0.0
        if bx == "W":
            return self._w_cov(x, it, y, ip)
        return self._init_cov(bx, x, it, y, ip)

    def matrix(self, pairs) -> np.ndarray:
        """Joint covariance matrix over (driver, time) pairs."""
        m = len(pairs)
        out = np.empty((m, m))
        for i, (x, t) in enumerate(pairs):
            for j in range(i, m):
                y, tp = pairs[j]
                out[i, j] = out[j, i] = self.cov(x, t, y, tp)
        return out

    # -- W block: rectangle intersection measure -------------------------------

    def _w_cov(self, x: str, it: int, y: str, ip: int) -> float:
        lo = min(it, ip)
        if lo == 0:
            return 0.0
        a_lo = a_hi = c_lo = c_hi = None
        for drv, tau in ((x, it), (y, ip)):
            for c in _W_REGION[(self.kind, drv)]:
                if c == "a_gt":
                    a_lo = tau if a_lo is None else max(a_lo, tau)
                elif c == "a_le":
                    a_hi = tau if a_hi is None else min(a_hi, tau)
                elif c == "c_gt":
                    c_lo = tau if c_lo is None else max(c_lo, tau)
                else:
                    c_hi = tau if c_hi is None else min(c_hi, tau)
        if a_lo is not None and a_hi is not None and a_lo >= a_hi:
            return 0.0
        if c_lo is not None and c_hi is not None and c_lo >= c_hi:
            return 0.0
        s = np.arange(lo + 1)
        # inclusion-exclusion of P(a in (a_lo, a_hi], c in (c_lo, c_hi]);
        # absent lower bounds drop their terms, absent upper bounds cap at
        # the law's own support.
        w = self._t_corner(a_hi, c_hi, s)
        if a_lo is not None:
            w = w - self._t_corner(a_lo, c_hi, s)
        if c_lo is not None:
            w = w - self._t_corner(a_hi, c_lo, s)
            if a_lo is not None:
                w = w + self._t_corner(a_lo, c_lo, s)
        integrand = self.qpath[: lo + 1] * w
        total = integrand.sum() - 0.5 * (integrand[0] + integrand[-1])
        return float(self.dt * total)

    def _t_corner(self, alpha, beta, s) -> np.ndarray:
        """T(alpha - s, beta - s) where T(a, c) is the joint cdf of the onset
        and settle epochs of one individual infected at time 0; a bound of
        None means +infinity."""
        if beta is None:
            if alpha is None:
                return np.ones(len(s))
            u = alpha - s
            vals = np.asarray(self._h.g.cdf(u * self.dt), dtype=float)
            return np.where(u >= 0, vals, 0.0)
        if alpha is None:
            alpha = beta  # the onset integral self-caps at the settle bound
        arr = self._two_time("h", beta - alpha, "cdf")
        u = alpha - s
        out = np.zeros(len(s))
        ok = u >= 0
        out[ok] = arr[u[ok]]
        return out

    # -- initial-condition blocks ----------------------------------------------

    def _init_cov(self, block: str, x: str, it: int, y: str, ip: int) -> float:
        spec = self.spec
        ta, tb = it * self.dt, ip * self.dt
        if block == "init_r":
            if spec.r0 <= 0:
                return 0.0
            sf = spec.f0.sf
            return spec.r0 * float(sf(max(ta, tb)) - sf(ta) * sf(tb))
        if block == "init_i" and self.kind != "SIRS":
            if spec.i0 <= 0:
                return 0.0
            return spec.i0 * _residual_cov(
                spec.f0, _RESIDUAL_ROLE[x], ta, _RESIDUAL_ROLE[y], tb)
        mass = spec.e0 if self.kind == "SEIR" else spec.i0
        if mass <= 0:
            return 0.0
        roles = _STAGE_ROLE[self.kind]
        ra, sa = roles[x]
        rb, sb = roles[y]
        m2 = self._stage_moment(ra, it, rb, ip)
        m1 = self._stage_mean(ra, it) * self._stage_mean(rb, ip)
        return mass * sa * sb * (m2 - m1)

    def _stage_mean(self, role: str, k: int) -> float:
        if role == "e":
            return float(self._h0.g.sf(k * self.dt))
        mode = "sf" if role == "i" else "cdf"
        return float(self._two_time("h0", 0, mode)[k])

    def _stage_moment(self, ra: str, ka: int, rb: str, kb: int) -> float:
        """E[x y'] for indicator states of (stage 1, stage 1 + stage 2)."""
        lo, hi = min(ka, kb), max(ka, kb)
        if ra == rb:
            if ra == "e":
                return float(self._h0.g.sf(hi * self.dt))
            if ra == "i":
                return float(self._two_time("h0", hi - lo, "sf")[lo])
            return float(self._two_time("h0", 0, "cdf")[lo])
        if "e" in (ra, rb):
            te, ro, to = (ka, rb, kb) if ra == "e" else (kb, ra, ka)
            if to <= te:
                return 0.0
            mode = "sf" if ro == "i" else "cdf"
            at_to = float(self._two_time("h0", 0, mode)[to])
            return at_to - float(self._two_time("h0", to - te, mode)[te])
        ti, tr = (ka, kb) if ra == "i" else (kb, ka)
        if tr < ti:
            return 0.0
        phi_ti = float(self._two_time("h0", 0, "cdf")[ti])
        return float(self._two_time("h0", tr - ti, "cdf")[ti]) - phi_ti


def _residual_cov(f0, ra: str, ta: float, rb: str, tb: float) -> float:
    """Per-individual Cov of still-running/done indicators of one period."""
    if ra == rb:
        m2 = float(f0.sf(max(ta, tb))) if ra == "i" else float(f0.cdf(min(ta, tb)))
    else:
        ti, tr = (ta, tb) if ra == "i" else (tb, ta)
        m2 = float(f0.cdf(tr) - f0.cdf(ti)) if tr > ti else 0.0
    mean = {"i": f0.sf, "r": f0.cdf}
    return m2 - float(mean[ra](ta)) * float(mean[rb](tb))


# ----------------------------------------------------------------- sampling


def _chol_psd(mat: np.ndarray, label: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    eye = np.eye(len(mat))
    for eps in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            return np.linalg.cholesky(mat + eps * eye if eps else mat)
        except np.linalg.LinAlgError:
            continue
    mineig = float(np.linalg.eigvalsh(mat)[0])
    raise RuntimeError(
        f"{label} covariance block is indefinite beyond the jitter budget "
        f"(min eigenvalue {mineig:.3e})"
    )


def _w_cell_sd_2d(cov: DriverCovariance) -> np.ndarray:
    """Cell std devs over (source cell, settle bucket) for one-stage kinds.

    Settle bucket ii covers (t_{ii-1}, t_ii]; bucket 0 catches an atom
    sitting exactly at the source node and the last index is the
    beyond-horizon tail.
    """
    dt, n = cov.dt, cov.n
    fv = np.asarray(cov.spec.f.cdf(np.arange(n) * dt), dtype=float)
    fv_ext = np.concatenate(([0.0], fv))  # fv_ext[m + 1] = F(m dt), F(<0) = 0

    lags = np.arange(n)[:, None]
    ii = np.arange(n + 1)[None, :]
    rel = ii - lags
    d = fv_ext[np.clip(rel + 1, 0, n)] - fv_ext[np.clip(rel, 0, n)]
    d[:, n] = 1.0 - fv_ext[n - lags[:, 0]]
    q = cov.qpath
    var = 0.5 * dt * (q[: n - 1, None] * d[: n - 1] + q[1:, None] * d[1:])
    return np.sqrt(np.clip(var, 0.0, None))


def _w_cell_sd_3d(cov: DriverCovariance) -> np.ndarray:
    """Cell std devs over (source cell, onset bucket, settle bucket)."""
    dt, n = cov.dt, cov.n
    # tt[p, q] = P(stage1 <= p dt, stage1 + stage2 <= q dt) for one individual
    tt = np.zeros((n, n))
    for delta in range(-(n - 1), n):
        arr = cov._two_time("h", delta, "cdf")
        p = np.arange(max(0, -delta), n - max(0, delta))
        tt[p, p + delta] = arr[p]
    vv = np.empty((n, n))
    vv[0, 0] = tt[0, 0]
    vv[0, 1:] = tt[0, 1:] - tt[0, :-1]
    vv[1:, 0] = tt[1:, 0] - tt[:-1, 0]
    vv[1:, 1:] = tt[1:, 1:] - tt[1:, :-1] - tt[:-1, 1:] + tt[:-1, :-1]
    cum_v = np.cumsum(vv, axis=1)
    gc = np.asarray(cov._h.g.cdf(cov.grid), dtype=float)
    pg = np.empty(n)
    pg[0] = gc[0]
    pg[1:] = np.diff(gc)

    prob = np.zeros((n, n + 1, n + 1))
    for l in range(n):
        w = n - l  # finite buckets reachable from source node l
        prob[l, l:n, l:n] = vv[:w, :w]
        prob[l, l:n, n] = pg[:w] - cum_v[:w, w - 1]
        prob[l, n, n] = 1.0 - gc[w - 1]
    q = cov.qpath
    var = 0.5 * dt * (q[: n - 1, None, None] * prob[: n - 1] + q[1:, None, None] * prob[1:])
    return np.sqrt(np.clip(var, 0.0, None))


def sample_drivers(cov: DriverCovariance, grid, rng, paths: int = 1) -> dict:
    """Sample joint driver paths on the covariance grid.

    W-driven drivers are aggregated from independent Gaussian cell
    increments, so their additive identities hold exactly on every path;
    initial-condition drivers come from a block Cholesky factor and are
    independent of the W block. Returns {driver id: (paths, len(grid))}.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) != cov.n or np.max(np.abs(grid - cov.grid)) > 1e-9:
        raise ValueError("sampling grid must match the covariance grid")
    kind, spec, n = cov.kind, cov.spec, cov.n
    out = {d: np.zeros((paths, n)) for d in DRIVER_IDS[kind]}
    ks = np.arange(n - 1)

    if kind in ("SIS", "SIR"):
        sd = _w_cell_sd_2d(cov)
        batch = max(1, min(paths, 8_000_000 // sd.size))
        done = 0
        while done < paths:
            b = min(batch, paths - done)
            z = rng.standard_normal((b,) + sd.shape)
            z *= sd[None]
            np.cumsum(z, axis=1, out=z)
            np.cumsum(z, axis=2, out=z)
            sl = slice(done, done + b)
            out["MA"][sl, 1:] = z[:, ks, n]
            out["R1"][sl, 1:] = z[:, ks, ks + 1]
            done += b
        out["I1"] = out["MA"] - out["R1"]
    else:
        sd = _w_cell_sd_3d(cov)
        batch = max(1, min(paths, 8_000_000 // sd.size))
        onset = np.zeros((paths, n))  # past stage 1 by t
        both = np.zeros((paths, n))  # past both stages by t
        done = 0
        while done < paths:
            b = min(batch, paths - done)
            z = rng.standard_normal((b,) + sd.shape)
            z *= sd[None]
            tot = z.sum(axis=(2, 3))
            np.cumsum(tot, axis=1, out=tot)
            pjm = z.sum(axis=3)
            np.cumsum(pjm, axis=1, out=pjm)
            np.cumsum(pjm, axis=2, out=pjm)
            np.cumsum(z, axis=1, out=z)
            np.cumsum(z, axis=2, out=z)
            np.cumsum(z, axis=3, out=z)
            sl = slice(done, done + b)
            out["MA"][sl, 1:] = tot[:, ks]
            onset[sl, 1:] = pjm[:, ks, ks + 1]
            both[sl, 1:] = z[:, ks, ks + 1, ks + 1]
            done += b
        if kind == "SEIR":
            out["E1"] = out["MA"] - onset
            out["L1"] = onset
            out["I1"] = onset - both
            out["R1"] = both
        else:  # SIRS: stage 1 = infectious, stage 2 = immune
            out["I1"] = out["MA"] - onset
            out["R1"] = onset - both

    if kind in ("SIS", "SIR") and spec.i0 > 0:
        z = rng.standard_normal((paths, n)) @ _residual_chol(spec.f0, spec.i0, grid).T
        out["I0"] = z
        out["R0"] = -z
    if kind == "SEIR":
        if spec.i0 > 0:
            z = rng.standard_normal((paths, n)) @ _residual_chol(spec.f0, spec.i0, grid).T
            out["I01"] = z
            out["R01"] = -z
        if spec.e0 > 0:
            lfac = _chol_psd(_stage_joint_cov(cov, spec.e0), "initial-exposed")
            z = rng.standard_normal((paths, 2 * n)) @ lfac.T
            out["E0"], out["I02"] = z[:, :n], z[:, n:]
            out["L0"] = -out["E0"]
            out["R02"] = -out["E0"] - out["I02"]
    if kind == "SIRS":
        if spec.i0 > 0:
            lfac = _chol_psd(_stage_joint_cov(cov, spec.i0), "initial-infectious")
            z = rng.standard_normal((paths, 2 * n)) @ lfac.T
            out["I0"], out["R01"] = z[:, :n], z[:, n:]
        if spec.r0 > 0:
            out["R02"] = rng.standard_normal((paths, n)) @ _residual_chol(
                spec.f0, spec.r0, grid).T
    return out


def _residual_chol(f0, mass: float, grid) -> np.ndarray:
    sf0 = np.asarray(f0.sf(grid), dtype=float)
    m = mass * (np.minimum.outer(sf0, sf0) - np.outer(sf0, sf0))
    return _chol_psd(m, "initial-pool")


def _stage_joint_cov(cov: DriverCovariance, mass: float) -> np.ndarray:
    """Joint covariance of (in stage 1, in stage 2) indicator sums."""
    n = cov.n
    g0sf = np.asarray(cov._h0.g.sf(cov.grid), dtype=float)
    psi0 = cov._two_time("h0", 0, "sf")
    m_ee = np.minimum.outer(g0sf, g0sf)
    m_ii = np.empty((n, n))
    m_ei = np.zeros((n, n))
    for d in range(n):
        arr = cov._two_time("h0", d, "sf")
        sl = np.arange(n - d)
        m_ii[sl, sl + d] = arr[: n - d]
        m_ii[sl + d, sl] = arr[: n - d]
        if d > 0:
            m_ei[sl, sl + d] = psi0[sl + d] - arr[: n - d]
    c_ee = m_ee - np.outer(g0sf, g0sf)
    c_ei = m_ei - np.outer(g0sf, psi0)
    c_ii = m_ii - np.outer(psi0, psi0)
    return mass * np.block([[c_ee, c_ei], [c_ei.T, c_ii]])


# -------------------------------------------------------------- path solves


def _rows_conv(ker: ConvKernel, r: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(r)
    for p in range(r.shape[0]):
        out[p] = conv_full(ker, r[p], dt)
    return out


_NEEDED = {
    "SIS": ("I0", "I1"),
    "SIR": ("MA", "I0", "I1", "R0", "R1"),
    "SEIR": ("MA", "E0", "E1", "I01", "I02", "I1", "R01", "R02", "R1", "L0", "L1"),
    "SIRS": ("I0", "I1", "R01", "R02", "R1"),
}


def solve_fclt_path(drivers, fluid: FluidSolution, spec: ModelSpec, grid,
                    ihat0=0.0, ehat0=0.0, seed=None) -> FcltPath:
    """Solve the limit fluctuation equations for sampled driver paths.

    drivers maps driver ids to (paths, n) or (n,) arrays on the grid;
    ihat0/ehat0 are the initial fluctuation values (scalars or per-path).
    """
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    n = len(grid)
    if len(fluid.grid) != n or np.max(np.abs(fluid.grid - grid)) > 1e-9:
        raise ValueError("drivers, fluid and grid must share the tabulation grid")
    if spec.kind != fluid.kind:
        raise ValueError("spec kind does not match the fluid solution")
    kind = spec.kind
    flat = True
    ds = {}
    for name in _NEEDED[kind]:
        if name not in drivers:
            raise ValueError(f"driver {name!r} is required for {kind}")
        arr = np.asarray(drivers[name], dtype=float)
        flat = flat and arr.ndim == 1
        ds[name] = arr if arr.ndim == 2 else arr[None, :]
    paths = max(a.shape[0] for a in ds.values())
    i0v = np.asarray(ihat0, dtype=float).reshape(-1, 1)
    e0v = np.asarray(ehat0, dtype=float).reshape(-1, 1)
    flat = flat and i0v.size == 1 and e0v.size == 1
    lam = spec.lam_on_grid(grid)
    zeros = np.zeros((paths, n))

    if spec.f0 is not None:
        f0sf = np.asarray(spec.f0.sf(grid), dtype=float)
        f0cdf = 1.0 - f0sf
    else:
        if np.any(i0v != 0.0):
            raise ValueError("nonzero initial I fluctuation needs a residual law f0")
        f0sf = f0cdf = np.zeros(n)

    def pack(shat, ehat, ihat, rhat):
        if flat:
            shat, ehat, ihat, rhat = shat[0], ehat[0], ihat[0], rhat[0]
            ds_out = {k: v[0] for k, v in ds.items()}
        else:
            ds_out = ds
        return FcltPath(grid, ds_out, shat, ehat, ihat, rhat,
                        _maybe_scalar(i0v), _maybe_scalar(e0v), seed)

    if kind == "SIS":
        forcing = i0v * f0sf + ds["I0"] + ds["I1"]
        xs, _ = solve_linear_volterra(
            [forcing], [survival_kernel(spec.f, grid)], [1.0],
            [lam * (1.0 - 2.0 * fluid.I)], grid,
        )
        ihat = xs[0]
        return pack(-ihat, zeros, ihat, zeros.copy())

    if kind == "SIR":
        ones = ConvKernel(cont=np.ones(n), atoms=())
        f_s = -i0v - ds["MA"] + zeros
        f_i = i0v * f0sf + ds["I0"] + ds["I1"]
        xs, r = solve_linear_volterra(
            [f_s, f_i], [ones, survival_kernel(spec.f, grid)], [-1.0, 1.0],
            [lam * fluid.I, lam * fluid.S], grid,
        )
        shat, ihat = xs
        rhat = i0v * f0cdf + ds["R0"] + ds["R1"] + _rows_conv(cdf_kernel(spec.f, grid), r, dt)
        return pack(shat, zeros, ihat, rhat)

    h0 = spec.h0 if spec.h0 is not None else spec.h
    kt = tabulate_kernels(spec.h, h0, grid)
    kpsi = table_kernel(kt.psi, kt.psi_atoms, grid)
    g0sf = np.asarray(h0.g.sf(grid), dtype=float)
    if kind == "SEIR":
        ones = ConvKernel(cont=np.ones(n), atoms=())
        f_s = -i0v - e0v - ds["MA"] + zeros
        f_i = i0v * f0sf + e0v * kt.psi0 + ds["I01"] + ds["I02"] + ds["I1"]
        xs, r = solve_linear_volterra(
            [f_s, f_i], [ones, kpsi], [-1.0, 1.0],
            [lam * fluid.I, lam * fluid.S], grid,
        )
        shat, ihat = xs
        ehat = e0v * g0sf + ds["E0"] + ds["E1"] + _rows_conv(
            survival_kernel(spec.h.g, grid), r, dt)
        rhat = i0v * f0cdf + e0v * kt.phi0 + ds["R01"] + ds["R02"] + ds["R1"] + _rows_conv(
            table_kernel(kt.phi, kt.phi_atoms, grid), r, dt)
        return pack(shat, ehat, ihat, rhat)

    # SIRS
    f_i = i0v * g0sf + ds["I0"] + ds["I1"]
    f_r = i0v * kt.psi0 + ds["R01"] + ds["R02"] + ds["R1"]
    xs, _ = solve_linear_volterra(
        [f_i, f_r], [survival_kernel(spec.h.g, grid), kpsi], [1.0, 1.0],
        [lam * (1.0 - 2.0 * fluid.I - fluid.R), -lam * fluid.I], grid,
    )
    ihat, rhat = xs
    return pack(-ihat - rhat, zeros, ihat, rhat)


def _maybe_scalar(arr):
    flat = np.asarray(arr).ravel()
    return float(flat[0]) if flat.size == 1 else flat


def sis_sde_path(lam, mu, fluid: FluidSolution, ihat0, grid, rng,
                 paths: int = 1, noise: bool = True):
    """Euler-Maruyama for the Markovian SIS fluctuation SDE.

    The fluctuation solves dX = (lam (1 - 2 Ibar) - mu) X dt plus the
    time-changed Brownian term of variance (lam (1-Ibar) Ibar + mu Ibar) dt.
    Returns (len(grid),) for a single path, else (paths, len(grid)).
    """
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    n = len(grid)
    lam, mu = float(lam), float(mu)
    if lam < 0 or mu <= 0:
        raise ValueError("need lam >= 0 and mu > 0")
    if len(fluid.grid) != n or np.max(np.abs(fluid.grid - grid)) > 1e-9:
        raise ValueError("fluid must be solved on the sampling grid")
    ibar = fluid.I
    out = np.empty((paths, n))
    out[:, 0] = ihat0
    for k in range(n - 1):
        drift = (lam * (1.0 - 2.0 * ibar[k]) - mu) * out[:, k]
        out[:, k + 1] = out[:, k] + drift * dt
        if noise:
            v = (lam * (1.0 - ibar[k]) * ibar[k] + mu * ibar[k]) * dt
            if v > 0:
                out[:, k + 1] += np.sqrt(v) * rng.standard_normal(paths)
    return out[0] if paths == 1 else out
