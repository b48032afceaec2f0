"""Gaussian fluctuation limits around the fluid paths.

Every function here reads the model's spec, its grid and its kernel table
from the FluidSolution it is given; none takes them again. The driver law
(DriverCovariance): every limit driver is a fixed linear combination of
the base processes of one independent Gaussian block, and each block's
covariance is built in closed form over every node of the fluid grid. The
W block reads F, or the first-stage law g of a two-stage kind, as the
fluid's cdf_kernel holds it, with its atoms added exactly. The two-stage
blocks read the law of both stages at two times from the fluid's own
Stieltjes sum of the joint law h (distributions._conv_cdf_values, every
time shift at once), so the fluid and the driver law share one
quadrature. The sampler draws each block from one factor of that same
build, so the sampled law is this law and the additive identities between
drivers hold exactly by construction. Also the linear stochastic Volterra
solve for (Shat, Ehat, Ihat, Rhat), the fluid's renewal system linearized
on its own kernel table with the drivers as extra forcing, and the
Markovian SIS SDE cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpstrf

from .distributions import _conv_cdf_values, _conv_head, grid_step
from .fluid import (
    ConvKernel,
    FluidSolution,
    _cumtrapz,
    _equations,
    cdf_kernel,
    conv_full,
    solve_linear_volterra,
)
from .model import _STAGES, ModelSpec

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

# Largest norm, relative to the largest variance, of the Schur complement
# that a pivoted Cholesky factor may leave out: far above the rounding of a
# PSD block, far below anything a sample can resolve.
_PSD_RTOL = 1e-8

# Doubles per slab when _chol_psd undoes its pivoting, and the side of the
# tiles it transposes: each gathered or swapped copy stays small next to the
# block it rearranges.
_SLAB_DOUBLES = 1 << 15
_TILE = 128


@dataclass
class FcltPath:
    """Limit fluctuations on the fluid grid: (n,) arrays for one path, else
    (paths, n)."""

    grid: np.ndarray
    Shat: np.ndarray
    Ehat: np.ndarray
    Ihat: np.ndarray
    Rhat: np.ndarray


def _model_spec(fluid: FluidSolution) -> ModelSpec:
    if not isinstance(fluid.spec, ModelSpec):  # the ODE and delay solvers keep a dict
        raise ValueError("need the model spec: this fluid solution keeps none")
    return fluid.spec


class DriverCovariance:
    """The law of the limit drivers on the fluid grid.

    Each driver is a fixed linear combination of the base processes of one
    independent block (the table ``_LAW``). The W block's covariance is the
    infection intensity q(s) ds integrated against the joint law of one
    individual's stage epochs; an initial pool's covariance comes from its
    members' residual-stage indicators. Over m nodes a block holds
    (width * m)**2 doubles and takes O(m**2 log m) time to build: the
    two-stage tables are batched FFT convolutions. It is built bitwise
    symmetric, over every node. ``cov`` and ``matrix`` read each block
    through the coefficient table from one build that they cache.
    ``sample_drivers`` makes the same build afresh and factors it in the
    memory it was built in, without caching it, so the sampled law is this
    law bit for bit. Cross-block covariances are exactly zero.
    """

    def __init__(self, fluid: FluidSolution):
        self.spec = _model_spec(fluid)
        self.kind = self.spec.kind
        self.fluid = fluid
        self.grid = np.asarray(fluid.grid, dtype=float)
        self.dt = grid_step(self.grid)
        self.n = len(self.grid)
        self.qpath = self.spec.lam_on_grid(self.grid) * fluid.S * fluid.I
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

    def _base(self, block: str) -> np.ndarray:
        """Covariance of the block's base processes: [a, i, b, j] is
        Cov(base a at t_i, base b at t_j), built once."""
        hit = self._blocks.get(block)
        if hit is None:
            hit = self._blocks[block] = self._build(block)
        return hit

    def _build(self, block: str) -> np.ndarray:
        """A new array of the block's base covariance over every node."""
        return self._w_block() if block == "W" else self._pool_block(block)

    def cov(self, x: str, t, y: str, tp) -> float:
        return float(self.matrix([(x, t), (y, tp)])[0, 1])

    def matrix(self, pairs) -> np.ndarray:
        """Joint covariance matrix over (driver, time) pairs."""
        laws = [self._law(x) for x, _ in pairs]
        nodes = np.array([self._node(t) for _, t in pairs], dtype=int)
        out = np.zeros((len(pairs), len(pairs)))
        for block in dict.fromkeys(b for b, _ in laws):
            sel = np.array([i for i, (b, _) in enumerate(laws) if b == block])
            coef = np.array([laws[i][1] for i in sel], dtype=float)
            k = nodes[sel]
            base = self._base(block)[:, k][:, :, :, k]
            out[np.ix_(sel, sel)] = np.einsum("pa,apbq,qb->pq", coef, base, coef)
        return np.triu(out) + np.triu(out, 1).T

    def _w_block(self) -> np.ndarray:
        """Base covariance of W, over the levels (MA, both) or (MA, onset,
        both).

        Level l counts the infections by t that have also passed l stages by
        t. For t_i <= t_j, Cov(level l at t_i, level l' at t_j) is the
        trapezoid integral over s <= t_i of q(s) P(l stages by t_i - s and l'
        stages by t_j - s), for one individual infected at time 0; when
        l >= l' that probability is P(l stages by t_i - s).
        """
        dt, q, n = self.dt, self.qpath, self.n
        t = np.arange(n) * dt
        # level 1's law (F, or G of a two-stage kind) as the fluid's
        # cdf_kernel holds it: a continuous part, plus atoms on nodes that
        # are added exactly below
        one_stage = self.kind in ("SIS", "SIR")
        kernels = [cdf_kernel(self.spec.f if one_stage else self.spec.h.g, t)]
        if not one_stage:
            # rows[d, i] = P(onset by t_i, both by t_{i+d}); row 0 is Phi
            rows = _conv_cdf_values(self.spec.h, self.grid, n)
            kernels.append(ConvKernel(rows[0].copy()))
            # [d, i] = int_0^{t_i} q(s) rows[d](t_i - s) ds, product trapezoid
            conv = dt * (_conv_head(rows, q, n) - 0.5 * q[0] * rows - 0.5 * rows[:, :1] * q)
            conv[:, 0] = 0.0  # an integral over an empty interval
            del rows
        m = 1 + len(kernels)
        out = np.empty((m, n, m, n))
        # Level 0 (MA) counts every infection, so its integral over s <= t_i
        # does not depend on t_j; diag[l][i] is level l's table at [i, i].
        diag = [dt * (np.cumsum(q) - 0.5 * q[0] - 0.5 * q)]
        for y, kernel in enumerate(kernels, 1):
            # [i, j] = int_0^{t_i} q(s) kernel(t_j - s) ds for t_i <= t_j,
            # written into its block; the product is the only other table.
            # lagged[i, j] = kernel[j - i], 0 below: a view, not a gather.
            table = out[0, :, y]
            lagged = sliding_window_view(np.concatenate([np.zeros(n - 1), kernel.cont]), n)[::-1]
            prod = q[:, None] * lagged
            np.cumsum(prod, axis=0, out=table)
            table -= 0.5 * prod[0]
            prod *= 0.5
            table -= prod
            table *= dt
            del prod
            # an atom of mass w at lag a adds w Q(min(t_i, t_j - a)), with Q
            # the cumulative trapezoid of q: conv_full's rule, exact at nodes
            for a, w in kernel.atoms:
                if a < n:
                    lags = np.minimum.outer(np.arange(n), np.arange(n - a))
                    table[:, a:] += w * _cumtrapz(q, dt)[lags]
            diag.append(np.diagonal(table).copy())
        below = np.tri(n, k=-1, dtype=bool)  # [i, j]: t_i > t_j
        for x in range(m):
            for y in range(x, m):
                blk = out[x, :, y]
                if x == y:
                    blk[:] = diag[x][:, None]
                elif x:
                    _by_lag(blk, conv)
                np.copyto(blk, diag[y][None, :], where=below)
                if x < y:
                    out[y, :, x] = blk.T
        return out

    def _pool_block(self, block: str) -> np.ndarray:
        """Base covariance of the initial pool whose mass is spec.<block>:
        one base per stage of its law in _STAGES."""
        law, width = next((getattr(self.spec, law), len(codes))
                          for pool, law, codes in _STAGES[self.kind] if pool == block)
        mass, n = getattr(self.spec, block), self.n
        if mass <= 0:
            return np.zeros((width, n, width, n))
        t = np.arange(n) * self.dt
        if width == 1:  # still running: E[x(t) x(t')] = sf(max(t, t'))
            sf = np.asarray(law.sf(t), dtype=float)
            c = np.minimum.outer(sf, sf)
            c -= np.multiply.outer(sf, sf)
            c *= mass
            return c[None, :, None, :]
        # in stage 1 (e) and in stage 2 (i) of the joint law h0
        g0sf = np.asarray(law.g.sf(t), dtype=float)
        # tails[d, k] = P(stage 1 over by t_k, stage 2 still running at t_{k+d})
        tails = law.g.cdf(self.grid) - _conv_cdf_values(law, self.grid, n)
        psi0 = tails[0]
        out = np.empty((2, n, 2, n))
        ee, ei, ii = out[0, :, 0], out[0, :, 1], out[1, :, 1]
        np.minimum.outer(g0sf, g0sf, out=ee)
        ee -= np.multiply.outer(g0sf, g0sf)
        # [i, j] = P(in stage 2 at t_i and at t_j) = tails[|j - i|, min(i, j)]
        _by_lag(ii, tails)
        _by_lag(ii.T, tails)
        ii -= np.multiply.outer(psi0, psi0)
        # in stage 1 at t_i rules out stage 2 at any t_j <= t_i: with psi0[j]
        # below the diagonal (and psi0[i] = tails[0, i] on it), psi0 - ei
        # is exactly 0 there
        _by_lag(ei, tails)
        np.copyto(ei, psi0, where=np.tri(n, k=-1, dtype=bool))
        np.subtract(psi0, ei, out=ei)
        ei -= np.multiply.outer(g0sf, psi0)
        out[1, :, 0] = ei.T
        out *= mass
        return out


def _by_lag(dest: np.ndarray, table: np.ndarray) -> None:
    """dest[i, j] = table[j - i, i] for j >= i, from a table over (lag,
    start node); dest below its diagonal is left as it was."""
    n = len(dest)
    for i in range(n):
        dest[i, i:] = table[: n - i, i]


# ----------------------------------------------------------------- sampling


def _chol_psd(mat: np.ndarray, label: str) -> np.ndarray:
    """Factor L, (m, rank), with L @ L.T == mat for a PSD covariance block,
    in the block's own memory: mat is consumed, and L is a view of it whose
    rows are contiguous.

    mat is a C-ordered float array and bitwise symmetric, so its transpose
    is a Fortran-ordered view of the same matrix, which LAPACK's pivoted
    Cholesky (dpstrf) factors without a copy. Pivoted Cholesky stops at the
    numerical rank, so singular blocks (the t = 0 rows of the initial pools,
    deterministic clocks, instant stages) are factored exactly, with nothing
    added to the diagonal. The Schur complement it leaves out must be
    rounding noise; a block that is indefinite beyond that raises with its
    minimum eigenvalue. dpstrf never touches the strict upper triangle, so
    that triangle and the diagonal saved beforehand still hold the block
    for both checks.
    """
    diag = np.diagonal(mat).copy()
    low, piv, rank, _ = dpstrf(mat.T, lower=1, overwrite_a=True)
    order = piv - 1
    left = order[rank:]
    if left.size:
        rest = low[np.minimum.outer(left, left), np.maximum.outer(left, left)]
        np.fill_diagonal(rest, diag[left])
        rest -= low[rank:, :rank] @ low[rank:, :rank].T
        if np.abs(rest).sum(axis=1).max() > _PSD_RTOL * np.max(diag):
            upper = np.triu(low, 1)
            mineig = float(np.linalg.eigvalsh(upper + upper.T + np.diag(diag))[0])
            raise RuntimeError(
                f"{label} covariance block is indefinite beyond rounding "
                f"(min eigenvalue {mineig:.3e})"
            )
    fac = low[:, :rank]
    for j in range(1, rank):  # the part of the block that L's columns still hold
        fac[:j, j] = 0.0
    # fac[order] = L, one slab of columns at a time
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    step = max(1, _SLAB_DOUBLES // len(fac))
    for c in range(0, rank, step):
        fac[:, c : c + step] = fac[inv, c : c + step]
    # Rows of L contiguous: a GEMM against L.T then sums in the same order
    # as one against a C-ordered copy of L. With columns contiguous, the
    # small-matrix GEMM kernels of OpenBLAS sum in another order.
    _transpose(low)
    return low.T[:, :rank]


def _transpose(a: np.ndarray) -> None:
    """a[:] = a.T for a square array, one pair of tiles at a time."""
    for i in range(0, len(a), _TILE):
        ii = slice(i, i + _TILE)
        a[ii, ii] = a[ii, ii].T.copy()
        for j in range(i + _TILE, len(a), _TILE):
            jj = slice(j, j + _TILE)
            tile = a[ii, jj].copy()
            a[ii, jj] = a[jj, ii].T
            a[jj, ii] = tile.T


def _first_equal_row(mat: np.ndarray) -> np.ndarray:
    """out[i] = the first index whose row of mat is bitwise equal to row i."""
    out = np.arange(len(mat))
    _, inverse, counts = np.unique(np.diagonal(mat), return_inverse=True, return_counts=True)
    cand = np.flatnonzero(counts[inverse] > 1)  # equal rows have equal variances
    rows = np.ascontiguousarray(mat[cand]).view(np.dtype((np.void, 8 * mat.shape[1])))
    _, first, inv = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    out[cand] = cand[first[inv]]
    return out


def sample_drivers(cov: DriverCovariance, rng, paths: int = 1) -> dict:
    """Sample joint driver paths on the fluid grid, cov.grid.

    Each independent block of ``cov`` is built afresh, bitwise as
    ``cov.matrix`` reads it, and factored in the memory it was built in;
    all paths of its base processes come from one GEMM of standard normals
    against that factor. The block is freed before the next one is built,
    so sampling holds one block plus the build's transients. Every driver
    is then its fixed combination of its block's base paths, so the
    additive identities (MA = I1 + R1, L1 = I1 + R1, R0 = -I0, ...) hold
    exactly on each path. W drivers are exactly 0 at t = 0. Returns
    {driver id: (paths, cov.n)}.
    """
    law, n = _LAW[cov.kind], cov.n
    out = {}
    for block in dict.fromkeys(b for b, _ in law.values()):
        flat = cov._build(block)
        width = flat.shape[0]
        flat = flat.reshape(width * n, width * n)
        # Equal rows are one random variable: copying its column keeps it
        # bitwise equal, e.g. exactly flat where no one can change state.
        first = _first_equal_row(flat)
        fac = _chol_psd(flat, f"{cov.kind} {block}")
        z = rng.standard_normal((paths, fac.shape[1])) @ fac.T
        del flat, fac  # the block goes before the next one is built
        z = z[:, first].reshape(paths, width, n)
        for d, (b, coef) in law.items():
            if b == block:
                out[d] = sum(c * z[:, a] for a, c in enumerate(coef) if c)
    return {d: out[d] for d in law}


# -------------------------------------------------------------- path solves


# Doubles per conv_full call in _rows_conv: its FFT buffers, a few times this
# size, stay small next to the path bundle, so many paths add no memory peak.
_ROW_BLOCK_DOUBLES = 1 << 15


def _rows_conv(ker: ConvKernel, r: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(r)
    rows = max(1, _ROW_BLOCK_DOUBLES // r.shape[1])
    for p in range(0, r.shape[0], rows):
        out[p : p + rows] = conv_full(ker, r[p : p + rows], dt)
    return out


# Compartment -> the drivers added to its forcing in the linearized system
# ("-" marks one that is subtracted). These are the drivers a solve reads.
_FORCED = {
    "SIS": {"I": ("I0", "I1")},
    "SIR": {"I": ("I0", "I1"), "S": ("-MA",), "R": ("R0", "R1")},
    "SEIR": {"I": ("I01", "I02", "I1"), "S": ("-MA",), "E": ("E0", "E1"),
             "R": ("R01", "R02", "R1")},
    "SIRS": {"I": ("I0", "I1"), "R": ("R01", "R02", "R1")},
}


def solve_fclt_path(drivers, fluid: FluidSolution, ihat0=0.0, ehat0=0.0) -> FcltPath:
    """Solve the limit fluctuation equations for sampled driver paths.

    The solve is the fluid system linearized: the renewal terms of the
    fluid's equations on its own spec, grid and kernel table, with initial
    masses (0, ihat0, ehat0), the drivers added to the forcings, and the
    rate lam S I replaced by lam (Sbar Ihat + Ibar Shat). drivers maps
    driver ids to (paths, n) or (n,) arrays on the fluid grid; only the ids
    in the kind's forcings are read. ihat0/ehat0 are the initial
    fluctuation values (scalars or per-path).
    """
    spec = _model_spec(fluid)
    grid = fluid.grid
    dt = grid_step(grid)
    kind = spec.kind
    forced = _FORCED[kind]
    flat = True
    ds = {}
    for name in dict.fromkeys(d.lstrip("-") for ids in forced.values() for d in ids):
        if name not in drivers:
            raise ValueError(f"driver {name!r} is required for {kind}")
        arr = np.asarray(drivers[name], dtype=float)
        flat = flat and arr.ndim == 1
        ds[name] = arr if arr.ndim == 2 else arr[None, :]
    i0v = np.asarray(ihat0, dtype=float).reshape(-1, 1)
    e0v = np.asarray(ehat0, dtype=float).reshape(-1, 1)
    flat = flat and i0v.size == 1 and e0v.size == 1

    terms, _, cs, rest = _equations(spec, grid, fluid.kernels, 0.0, i0v, e0v)

    def forcing(name, f):
        # sampled drivers are Fortran-ordered and f broadcasts over paths,
        # so the sum stays Fortran-ordered: its time-major view is free
        for d in forced[name]:
            f = f - ds[d[1:]] if d[0] == "-" else f + ds[d]
        return f

    # q = lam S I linearized: qhat = sum_i z_i X_i with z_i = lam Ibar c_i,
    # plus lam Sbar for X_0 = Ihat
    lam = spec.lam_on_grid(grid)
    zs = [lam * fluid.I * c for c in cs]
    zs[0] = zs[0] + lam * fluid.S
    xs, r = solve_linear_volterra(
        [forcing(name, f) for name, f, _ in terms], [K for _, _, K in terms],
        [1.0] * len(terms), zs, grid,
    )
    hats = {name: x for (name, _, _), x in zip(terms, xs)}
    if "S" not in hats:
        hats["S"] = sum(c * x for c, x in zip(cs, xs))
    for name, (f, K) in rest.items():
        if name in forced:
            hats[name] = _rows_conv(K, r, dt)
            hats[name] += forcing(name, f)
    out = [hats[c] if c in hats else np.zeros_like(hats["I"]) for c in "SEIR"]
    if flat:
        out = [x[0] for x in out]
    return FcltPath(grid, *out)


def sis_sde_path(lam, mu, fluid: FluidSolution, ihat0, rng,
                 paths: int = 1, noise: bool = True):
    """Euler-Maruyama for the Markovian SIS fluctuation SDE.

    The fluctuation solves dX = (lam (1 - 2 Ibar) - mu) X dt plus the
    time-changed Brownian term of variance (lam (1-Ibar) Ibar + mu Ibar) dt,
    on the fluid grid. Returns (n,) for a single path, else (paths, n).
    """
    dt = grid_step(fluid.grid)
    lam, mu = float(lam), float(mu)
    if lam < 0 or mu <= 0:
        raise ValueError("need lam >= 0 and mu > 0")
    ibar = fluid.I
    n = len(ibar)
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
