"""Gaussian fluctuation limits around the fluid paths.

The driver law (DriverCovariance): every limit driver is a fixed linear
combination of the base processes of one independent Gaussian block, and
each block's covariance is built in closed form over the whole grid. The
sampler draws each block from one factor of that covariance, so the
sampled law is this law and the additive identities between drivers hold
exactly by construction. Also the linear stochastic Volterra solves for
(Shat, Ehat, Ihat, Rhat) and the Markovian SIS SDE cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpstrf

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

# Every driver is a fixed linear combination of the base processes of one
# independent block: driver id -> (block, coefficients on its base processes).
# "W" is the white-noise block of new infections. Its base processes count
# the infections by t (MA), those past stage 1 by t ("onset", two-stage kinds
# only) and those past every stage by t ("both"); one-stage kinds have the
# bases (MA, both), two-stage kinds (MA, onset, both). An initial pool is
# named by its mass in ModelSpec. A one-process pool counts the members whose
# residual period (law f0) is still running. A two-process pool counts the
# members in stage 1 and in stage 2 of the joint residual law h0.
_ONE_STAGE = {"MA": ("W", (1, 0)), "I0": ("i0", (1,)), "I1": ("W", (1, -1)),
              "R0": ("i0", (-1,)), "R1": ("W", (0, 1))}
_LAW = {
    "SIS": _ONE_STAGE,
    "SIR": _ONE_STAGE,
    "SEIR": {"MA": ("W", (1, 0, 0)), "E1": ("W", (1, -1, 0)), "L1": ("W", (0, 1, 0)),
             "I1": ("W", (0, 1, -1)), "R1": ("W", (0, 0, 1)),
             "I01": ("i0", (1,)), "R01": ("i0", (-1,)),
             "E0": ("e0", (1, 0)), "L0": ("e0", (-1, 0)), "I02": ("e0", (0, 1)),
             "R02": ("e0", (-1, -1))},
    "SIRS": {"MA": ("W", (1, 0, 0)), "I0": ("i0", (1, 0)), "I1": ("W", (1, -1, 0)),
             "R01": ("i0", (0, 1)), "R02": ("r0", (1,)), "R1": ("W", (0, 1, -1))},
}
DRIVER_IDS = {kind: tuple(law) for kind, law in _LAW.items()}

_POINT_AT_ZERO = Deterministic(0.0)

# Largest norm, relative to the largest variance, of the Schur complement
# that a pivoted Cholesky factor may leave out: far above the rounding of a
# PSD block, far below anything a sample can resolve.
_PSD_RTOL = 1e-8


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
    """The law of the limit drivers on the fluid grid.

    Each driver is a fixed linear combination of the base processes of one
    independent block (the table ``_LAW``). The W block's covariance is the
    infection intensity q(s) ds integrated against the joint law of one
    individual's stage epochs; an initial pool's covariance comes from its
    members' residual-stage indicators. Each block's base covariance is
    built on first use, up to the latest node asked for, and cached. Over m
    nodes it holds (width * m)**2 doubles, and a two-stage W block takes
    O(m**3) time to build. ``cov`` and ``matrix`` read it through the
    coefficient table, and ``sample_drivers`` draws from a factor of it over
    every node, so the sampled law is this law. Cross-block covariances are
    exactly zero.
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
        else:
            self._h = spec.h
            self._h0 = spec.h0 if spec.h0 is not None else spec.h
        self._blocks: dict = {}

    def _node(self, t) -> int:
        k = int(round(float(t) / self.dt))
        if k < 0 or k >= self.n or abs(float(t) - k * self.dt) > 1e-9:
            raise ValueError(f"time {t} is not a node of the tabulation grid")
        return k

    def _law(self, x: str) -> tuple:
        law = _LAW[self.kind].get(x)
        if law is None:
            raise ValueError(f"driver {x!r} is not defined for {self.kind}")
        return law

    def _base(self, block: str, last: int) -> np.ndarray:
        """Covariance of the block's base processes over the first nodes, at
        least up to node last: [a, i, b, j] is Cov(base a at t_i, base b at t_j).

        Its entries up to node m depend on the law up to t_m only, so a block
        is built only as far as it is asked for, and at least doubles when a
        later call asks for more.
        """
        hit = self._blocks.get(block)
        if hit is None or hit.shape[1] <= last:
            size = min(self.n, max(last + 1, 2 * (1 if hit is None else hit.shape[1])))
            hit = self._w_block(size) if block == "W" else self._pool_block(block, size)
            self._blocks[block] = hit
        return hit

    def cov(self, x: str, t, y: str, tp) -> float:
        (bx, cx), (by, cy) = self._law(x), self._law(y)
        it, ip = self._node(t), self._node(tp)
        if bx != by:
            return 0.0
        base = self._base(bx, max(it, ip))
        return float(np.array(cx, float) @ base[:, it, :, ip] @ np.array(cy, float))

    def matrix(self, pairs) -> np.ndarray:
        """Joint covariance matrix over (driver, time) pairs."""
        laws = [self._law(x) for x, _ in pairs]
        nodes = np.array([self._node(t) for _, t in pairs], dtype=int)
        out = np.zeros((len(pairs), len(pairs)))
        for block in dict.fromkeys(b for b, _ in laws):
            sel = np.array([i for i, (b, _) in enumerate(laws) if b == block])
            coef = np.array([laws[i][1] for i in sel], dtype=float)
            k = nodes[sel]
            base = self._base(block, k.max())[:, k][:, :, :, k]
            out[np.ix_(sel, sel)] = np.einsum("pa,apbq,qb->pq", coef, base, coef)
        return np.triu(out) + np.triu(out, 1).T

    def _w_block(self, n: int) -> np.ndarray:
        """Base covariance of W on the first n nodes, over the levels (MA,
        both) or (MA, onset, both).

        Level l counts the infections by t that have also passed l stages by
        t. For t_i <= t_j, Cov(level l at t_i, level l' at t_j) is the
        trapezoid integral over s <= t_i of q(s) P(l stages by t_i - s and l'
        stages by t_j - s), for one individual infected at time 0; when
        l >= l' that probability is P(l stages by t_i - s).
        """
        dt, q, grid = self.dt, self.qpath[:n], self.grid[:n]
        k = np.arange(n)
        lag = k[None, :] - k[:, None]
        ahead = lag >= 0  # [i, j]: t_i <= t_j
        lag[~ahead] = 0

        def integrate(kernel):
            # [i, j] = int_0^{t_i} q(s) kernel(t_j - s) ds for t_i <= t_j
            m = np.where(ahead, q[:, None] * kernel[lag], 0.0)
            return dt * (np.cumsum(m, axis=0) - 0.5 * m[0] - 0.5 * m)

        both = _two_time_values(self._h, grid, 0, "cdf")  # P(both stages by lag)
        if self.kind in ("SIS", "SIR"):
            kernels = [np.ones(n), both]
        else:
            kernels = [np.ones(n), np.asarray(self._h.g.cdf(k * dt), dtype=float), both]
            # [i, j] = int_0^{t_i} q(s) P(onset by t_i - s, both by t_j - s) ds
            pair = np.zeros((n, n))
            for delta in range(n):
                tt = _two_time_values(self._h, grid, delta, "cdf")[: n - delta]
                i = k[: n - delta]
                conv = np.convolve(q[: n - delta], tt)[: n - delta]
                pair[i, i + delta] = dt * (conv - 0.5 * q[0] * tt - 0.5 * q[i] * tt[0])
        tables = [integrate(kernel) for kernel in kernels]
        diag = [np.diagonal(table) for table in tables]
        m = len(kernels)
        out = np.empty((m, n, m, n))
        for x in range(m):
            for y in range(x, m):
                upper = tables[y] if x == 0 else pair if x < y else diag[x][:, None]
                blk = np.where(ahead, upper, diag[y][None, :])
                out[x, :, y, :] = blk
                out[y, :, x, :] = blk.T
        return out

    def _pool_block(self, block: str, n: int) -> np.ndarray:
        """Base covariance, on the first n nodes, of the initial pool whose
        mass is spec.<block>."""
        spec = self.spec
        width = next(len(c) for b, c in _LAW[self.kind].values() if b == block)
        mass = getattr(spec, block)
        if mass <= 0:
            return np.zeros((width, n, width, n))
        t = np.arange(n) * self.dt
        if width == 1:  # still running: E[x(t) x(t')] = sf(max(t, t'))
            sf = np.asarray(spec.f0.sf(t), dtype=float)
            c = np.minimum.outer(sf, sf) - np.outer(sf, sf)
            return (mass * c)[None, :, None, :]
        # in stage 1 (e) and in stage 2 (i) of h0
        g0sf = np.asarray(self._h0.g.sf(t), dtype=float)
        tails = [_two_time_values(self._h0, self.grid[:n], d, "sf") for d in range(n)]
        psi0 = tails[0]
        m_ii = np.empty((n, n))
        m_ei = np.zeros((n, n))
        for d, arr in enumerate(tails):
            sl = np.arange(n - d)
            m_ii[sl, sl + d] = arr[: n - d]
            m_ii[sl + d, sl] = arr[: n - d]
            if d > 0:
                m_ei[sl, sl + d] = psi0[sl + d] - arr[: n - d]
        c_ei = m_ei - np.outer(g0sf, psi0)
        out = np.empty((2, n, 2, n))
        out[0, :, 0] = np.minimum.outer(g0sf, g0sf) - np.outer(g0sf, g0sf)
        out[0, :, 1] = c_ei
        out[1, :, 0] = c_ei.T
        out[1, :, 1] = m_ii - np.outer(psi0, psi0)
        return mass * out


# ----------------------------------------------------------------- sampling


def _chol_psd(mat: np.ndarray, label: str) -> np.ndarray:
    """Factor L, (m, rank), with L @ L.T == mat for a PSD covariance block.

    Pivoted Cholesky stops at the numerical rank, so singular blocks (the
    t = 0 rows of the initial pools, deterministic clocks, instant stages)
    are factored exactly, with nothing added to the diagonal. The Schur
    complement it leaves out must be rounding noise; a block that is
    indefinite beyond that raises with its minimum eigenvalue.
    """
    mat = np.asarray(mat, dtype=float)
    # factor a Fortran-ordered copy in place: LAPACK's own copy of a C array is slower
    low, piv, rank, _ = dpstrf(np.array(mat, order="F"), lower=1, overwrite_a=True)
    low = low[:, :rank]
    low *= np.tri(*low.shape, dtype=bool)  # dpstrf leaves the upper triangle as it was
    order = piv - 1
    rest = mat[np.ix_(order[rank:], order[rank:])] - low[rank:] @ low[rank:].T
    if rest.size and np.abs(rest).sum(axis=1).max() > _PSD_RTOL * np.max(np.diag(mat)):
        mineig = float(np.linalg.eigvalsh(mat)[0])
        raise RuntimeError(
            f"{label} covariance block is indefinite beyond rounding "
            f"(min eigenvalue {mineig:.3e})"
        )
    fac = np.empty(low.shape)
    fac[order] = low
    return fac


def _first_equal_row(mat: np.ndarray) -> np.ndarray:
    """out[i] = the first index whose row of mat is bitwise equal to row i."""
    out = np.arange(len(mat))
    _, inverse, counts = np.unique(np.diagonal(mat), return_inverse=True, return_counts=True)
    cand = np.flatnonzero(counts[inverse] > 1)  # equal rows have equal variances
    rows = np.ascontiguousarray(mat[cand]).view(np.dtype((np.void, 8 * mat.shape[1])))
    _, first, inv = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    out[cand] = cand[first[inv]]
    return out


def sample_drivers(cov: DriverCovariance, grid, rng, paths: int = 1) -> dict:
    """Sample joint driver paths on the covariance grid.

    Each independent block of ``cov`` is factored once, over every grid
    node, and all paths of its base processes come from one GEMM of
    standard normals against that factor. Every driver is then its fixed
    combination of its block's base paths, so the additive identities
    (MA = I1 + R1, L1 = I1 + R1, R0 = -I0, ...) hold exactly on each path.
    W drivers are exactly 0 at t = 0. Returns {driver id: (paths, len(grid))}.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) != cov.n or np.max(np.abs(grid - cov.grid)) > 1e-9:
        raise ValueError("sampling grid must match the covariance grid")
    law, n = _LAW[cov.kind], cov.n
    out = {}
    for block in dict.fromkeys(b for b, _ in law.values()):
        base = cov._base(block, n - 1)
        width = base.shape[0]
        flat = base.reshape(width * n, width * n)
        fac = _chol_psd(flat, f"{cov.kind} {block}")
        z = rng.standard_normal((paths, fac.shape[1])) @ fac.T
        # Equal rows are one random variable: copying its column keeps it
        # bitwise equal, e.g. exactly flat where no one can change state.
        z = z[:, _first_equal_row(flat)].reshape(paths, width, n)
        for d, (b, coef) in law.items():
            if b == block:
                out[d] = sum(c * z[:, a] for a, c in enumerate(coef) if c)
    return {d: out[d] for d in law}


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
