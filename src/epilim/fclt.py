"""Gaussian fluctuation limits around the fluid paths.

Every function here reads the model's spec, its grid and its kernel table
from the FluidSolution it is given; none takes them again. A two-stage
kind needs the kernel table, which only solve_fluid keeps. The driver law
(DriverCovariance): every limit driver is a fixed linear combination of
the base processes of one independent Gaussian block, and each block's
covariance is built in closed form over every node of the fluid grid. The
W block reads F, or the first-stage law g of a two-stage kind, as the
fluid's cdf_kernel holds it, with its atoms added exactly. The two-stage
blocks read the law of both stages at two times from the fluid's own
Stieltjes sum of the joint law h (distributions._conv_cdf_values, every
time shift at once), so the fluid and the driver law share one
quadrature; the jumps that an atom of g puts into the two-time table are
read by the exact atom rule. The sampler draws each block from the
pivoted Cholesky factor of that same build, by one triangular product in
pivot order and one gather, so the sampled law is this law and the
additive identities between drivers hold exactly by construction. It
draws only the drivers it is asked for: where they span fewer rows than
their block (the SIS and SIRS W blocks of the drivers a solve reads), it
factors only the block's projection onto them. The draw is time-major,
(node, path), as the solve's runner reads it: each driver is the
transpose of a C-ordered (n, paths) array, and a driver that is one base
process of its block is a view of the block's draw. Also
the solve for (Shat, Ehat, Ihat, Rhat), the fluid's own system run by its
runner with the linearized rate and the drivers added to the forcings
(each sub-block one triangular inverse and one product over every path),
and the Markovian SIS SDE cross-check, whose rates come from the spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpstrf, dtrtri

from .distributions import _conv_cdf_values, _conv_head, _phi_atom_list, grid_step
from .fluid import (
    FluidSolution,
    _cumtrapz,
    _equations,
    _markovian_rates,
    _run_system,
    _step_matrix,
    cdf_kernel,
    table_kernel,
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
    spec = fluid.spec  # a two-stage solve also reads the kernel table solve_fluid keeps
    if not isinstance(spec, ModelSpec) or (spec.h is not None and fluid.kernels is None):
        raise ValueError("need the model spec, and for SEIR and SIRS its kernel table "
                         "from solve_fluid: this fluid solution lacks one")
    return spec


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
    ``sample_drivers`` makes the same build afresh, projects it onto the
    asked drivers where they span fewer rows than the block, factors it in
    its own memory without caching it, and draws all paths time-major, by
    one triangular product in pivot order and one row gather, so the
    sampled law is this law bit for bit. Cross-block covariances are
    exactly zero.
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
            # rows[d, i] = P(onset by t_i, both by t_{i+d}); row 0 is Phi, level
            # 2's law, whose atoms (sums of g's and f's) are added exactly below
            rows = _conv_cdf_values(self.spec.h, self.grid, n)
            kernels.append(table_kernel(rows[0], _phi_atom_list(self.spec.h), t))
            # [d, i] = int_0^{t_i} q(s) rows[d](t_i - s) ds, product trapezoid
            conv = dt * (_conv_head(rows, q, n) - 0.5 * q[0] * rows - 0.5 * rows[:, :1] * q)
            conv[:, 0] = 0.0  # an integral over an empty interval
            del rows
            if kernels[0].atoms:
                self._g_atoms_exact(conv, kernels[0].atoms)
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

    def _g_atoms_exact(self, conv: np.ndarray, atoms) -> None:
        """Correct the pair table conv, [d, i] as _w_block builds it, at the
        jumps that the atoms of g put into its rows.

        An atom of g, of mass w at lag a, adds w F(t_{i+d} - a) to rows[d, i]
        from i = a on: rows[d] jumps by w F(t_d) at lag a and, for an atom of
        F at a lag b > d, by w times its mass at lag a + b - d. Against a
        jump J at a lag c > 0 the product trapezoid weighs q(t_i - t_c) by
        dt, the exact atom rule of the level tables by dt / 2.
        """
        q, dt, n = self.qpath, self.dt, self.n
        idx = np.arange(n)
        f = cdf_kernel(self.spec.h.f, idx * dt)
        for a, w in atoms:
            jumps = [(np.full(n, a), f.cont + sum(jb * (idx >= b) for b, jb in f.atoms))]
            jumps += [(a + b - idx, jb * (idx < b)) for b, jb in f.atoms]
            for lag, size in jumps:
                k = idx - lag[:, None]  # [d, i]: the node of q that the jump meets
                hit = (k >= 0) & (lag[:, None] > 0)
                conv -= 0.5 * dt * w * size[:, None] * np.where(hit, q[np.clip(k, 0, n - 1)], 0.0)

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


def _chol_psd(mat: np.ndarray, label: str):
    """LAPACK's pivoted Cholesky factor of a PSD covariance block, as dpstrf
    leaves it: (low, order, rank), with tril(low)[:, :rank] an L such that
    L @ L.T == mat[order][:, order]. mat is consumed: low is its transpose.

    mat is a C-ordered float array and bitwise symmetric, so its transpose
    is a Fortran-ordered view of the same matrix, which dpstrf factors
    without a copy. Pivoted Cholesky stops at the numerical rank, so
    singular blocks (the t = 0 rows of the initial pools, deterministic
    clocks, instant stages) are factored exactly, with nothing added to the
    diagonal. The Schur complement it leaves out must be rounding noise; a
    block that is indefinite beyond that raises with its minimum
    eigenvalue. dpstrf never touches the strict upper triangle, so that
    triangle and the diagonal saved beforehand still hold the block for
    both checks.
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
    return low, order, rank


def _draw_block(cov: DriverCovariance, block: str, normals, coef=None) -> np.ndarray:
    """Paths of one block of cov, time-major (k, cov.n, paths), from
    standard normals xi = normals(rank), (paths, rank); with np.eye they
    are the columns of a factor F of the drawn covariance, F @ F.T that
    covariance, read as (k n, rank).

    coef, (k, width), holds the coefficient rows of the combinations to
    draw; None draws the block's width base processes themselves (k =
    width) and skips the projection. The block is built afresh, bitwise as
    cov.matrix reads it, projected onto the rows (_project), which frees
    the full block, and factored in its own memory (_chol_psd). xi.T fills
    the first rank rows of a zeroed (k n, paths) array, which one dtrmm
    multiplies in place, from the left, by the factor's lower triangle, in
    pivot order: the triangle's columns past rank, which are not the
    factor, meet zeros. Where there are at least as many paths as rows,
    the array is C-ordered, time-major, and the product a right-side one on
    its transpose; with fewer paths it is Fortran-ordered and the product a
    left-side one. Each is the faster for its shape, and touches less of
    OpenBLAS's packing buffer, which stays resident: for 16 paths of a
    1001-row block (one thread), 0.64 ms and 0.6 MB from the left, 0.97 ms
    and 3.0 MB from the right. The factored matrix is freed, and one row
    gather, the inverse pivot order composed with _first_equal_row, puts
    the nodes back in order, C-ordered either way. Equal rows are one
    random variable and come out bitwise equal, e.g. exactly 0 wherever no
    one can change state.
    """
    flat = cov._build(block)
    if coef is not None:
        flat = _project(flat, coef)
    k, n = flat.shape[:2]
    flat = flat.reshape(k * n, -1)
    first = _first_equal_row(flat)
    low, order, rank = _chol_psd(flat, f"{cov.kind} {block}")
    xi = normals(rank)
    narrow = len(xi) < len(low)
    z = np.zeros((len(low), len(xi)), order="F" if narrow else "C")
    z[:rank] = xi.T
    if narrow:
        dtrmm(1.0, low, z, lower=1, overwrite_b=1)
    else:  # in place: z.T is Fortran-ordered, and z.T @ low.T is (low @ z).T
        dtrmm(1.0, low, z.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    del flat, low, xi  # the block goes before the gather
    return z[np.argsort(order)[first]].reshape(k, n, -1)  # C-ordered, as any gather


def _project(base: np.ndarray, coef) -> np.ndarray:
    """The covariance of the combinations coef @ base processes, (k, n, k,
    n), from a block's base covariance base, (width, n, width, n), which
    it consumes.

    Off the diagonal, block [p, r] is sum_ab c_pa c_rb base[a, b] and
    [r, p] its transpose. Diagonal block p is sum_a (c_pa**2 base[a, a] +
    sum_{b > a} c_pa c_pb (base[a, b] + base[b, a])), so it is bitwise
    symmetric as base is; each pair sum is formed in base[a, b] once the
    off-diagonal blocks no longer read it. Every term is accumulated into
    the output in place (_accumulate), so nothing besides base and the
    output is held.
    """
    k, width, n = len(coef), len(base), base.shape[1]
    out = np.empty((k, n, k, n))  # a basis row is not 0: every block has a term
    for p in range(k):
        for r in range(p + 1, k):
            _accumulate(out[p, :, r], [(coef[p][a] * coef[r][b], base[a, :, b])
                                       for a in range(width) for b in range(width)])
            out[r, :, p] = out[p, :, r].T
    for a in range(width):
        for b in range(a + 1, width):
            base[a, :, b] += base[b, :, a]
    for p, c in enumerate(coef):
        _accumulate(out[p, :, p], [(c[a] * c[b], base[a, :, b])
                                   for a in range(width) for b in range(a, width)])
    return out


def _first_equal_row(mat: np.ndarray) -> np.ndarray:
    """out[i] = the first index whose row of mat is bitwise equal to row i."""
    out = np.arange(len(mat))
    _, inverse, counts = np.unique(np.diagonal(mat), return_inverse=True, return_counts=True)
    cand = np.flatnonzero(counts[inverse] > 1)  # equal rows have equal variances
    rows = np.ascontiguousarray(mat[cand]).view(np.dtype((np.void, 8 * mat.shape[1])))
    _, first, inv = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    out[cand] = cand[first[inv]]
    return out


def sample_drivers(cov: DriverCovariance, rng, paths: int = 1, ids=None) -> dict:
    """Sample joint driver paths on the fluid grid, cov.grid.

    ids names the drivers to draw, every one of the kind by default. Each
    independent block of ``cov`` that holds an asked driver is built
    afresh, factored in its own memory, and all its paths come from one
    triangular product of that factor with standard normals, in its pivot
    order, and one row gather, time-major (_draw_block). Where the asked
    drivers' coefficient rows span the block's width (every block of the default,
    every SIR and SEIR block of the drivers a solve reads), the base
    processes are drawn. Where they span fewer rows (the SIS and SIRS W
    blocks of those drivers), only the block's projection onto a basis of
    them, chosen among them in _LAW order, is factored and drawn, with
    fewer normals, so later blocks see other normals than by default. The
    block is freed before the next one is built, so sampling holds one
    block plus the build's transients. Every asked driver is then its
    fixed combination of the drawn paths, so the additive identities (MA
    = I1 + R1, L1 = I1 + R1, R0 = -I0, ...) hold exactly on each path. W
    drivers are exactly 0 at t = 0. Returns {driver id: (paths, cov.n)} in
    _LAW order, each the transpose of a C-ordered (cov.n, paths) array
    (_combine): a driver that is one drawn process with coefficient +1
    (MA, R1 or I0, say, or a basis driver of a projected block) is a view
    of its block's draw, not a copy. An id the kind lacks raises
    ValueError.
    """
    law = _LAW[cov.kind]
    ids = tuple(law if ids is None else ids)
    for d in ids:
        cov._law(d)  # an id the kind lacks raises, named
    out = {}
    for block in dict.fromkeys(b for b, _ in law.values()):
        names = [d for d, (b, _) in law.items() if b == block and d in ids]
        if not names:
            continue
        coef, combos = _basis([law[d][1] for d in names])
        z = _draw_block(cov, block, lambda rank: rng.standard_normal((paths, rank)), coef)
        for d, combo in zip(names, combos):
            out[d] = _combine(z, combo)
    return {d: out[d] for d in law if d in out}


def _basis(rows):
    """(coef, combos) for the coefficient rows of a block's asked drivers:
    coef, the rows of a basis of them chosen in order, or None where they
    span their width; combos, each row as its integer combination of the
    coef rows (of the base processes where coef is None).

    The rows are a handful of 0 and +-1 entries, so fraction-free integer
    elimination serves, exact and with no import; a LAPACK rank or
    least-squares call would map about 0.7 MB more of the library's code
    into the process for nothing.
    """
    width, echelon, keep, augs = len(rows[0]), [], [], []
    for i, row in enumerate(rows):
        # [v | w] with v == sum(w[m] * rows[m]): row i less the echelon rows
        aug = list(row) + [int(m == i) for m in range(len(rows))]
        for pivot, red in echelon:
            f, g = aug[pivot], red[pivot]
            aug = [g * x - f * y for x, y in zip(aug, red)]
        if any(aug[:width]):  # independent of the rows before it
            echelon.append((next(j for j, x in enumerate(aug) if x), aug))
            keep.append(i)
        augs.append(aug)
    if len(keep) == width:
        return None, rows
    # a dependent row i has v == 0, so w[i] * row i == -sum(w[m] * rows[m])
    # over m kept; the quotients are the integers of _LAW's combinations
    combos = [[int(m == i) if i in keep else -aug[width + m] // aug[width + i] for m in keep]
              for i, aug in enumerate(augs)]
    return [rows[i] for i in keep], combos


def _accumulate(dest, terms):
    """dest = sum(c * mat for c, mat in terms if c), bitwise as that sum
    forms it from 0, for coefficients 0 and +-1 (those of _LAW): each term
    is added to or subtracted from dest in place."""
    acc = 0.0  # 0 + (-0.0) is +0.0, as in the sum
    for c, mat in terms:
        if c:
            {1: np.add, -1: np.subtract}[c](acc, mat, out=dest)
            acc = dest


def _combine(z, coef):
    """sum(c * z[a] for a, c in enumerate(coef) if c), (paths, n), from a
    time-major draw z, (width, n, paths): the transpose of a C-ordered (n,
    paths) array. A single base process with coefficient +1 is that
    process's view of z, not a copy; any other combination is one new
    array (_accumulate)."""
    terms = [(c, x) for c, x in zip(coef, z) if c]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1].T
    out = np.empty(z.shape[1:])
    _accumulate(out, terms)
    return out.T


# -------------------------------------------------------------- path solves


# Compartment -> the drivers added to its forcing in the linearized system
# ("-" marks one that is subtracted). These are the drivers a solve reads,
# and the ones `epilim fclt` draws (_forced_ids).
_FORCED = {
    "SIS": {"I": ("I0", "I1")},
    "SIR": {"I": ("I0", "I1"), "S": ("-MA",), "R": ("R0", "R1")},
    "SEIR": {"I": ("I01", "I02", "I1"), "S": ("-MA",), "E": ("E0", "E1"),
             "R": ("R01", "R02", "R1")},
    "SIRS": {"I": ("I0", "I1"), "R": ("R01", "R02", "R1")},
}


def _forced_ids(kind: str) -> tuple:
    """The ids of the drivers that a kind's solve reads, once each."""
    return tuple(dict.fromkeys(d.lstrip("-") for ids in _FORCED[kind].values() for d in ids))


def solve_fclt_path(drivers, fluid: FluidSolution, ihat0=0.0, ehat0=0.0) -> FcltPath:
    """Solve the limit fluctuation equations for sampled driver paths.

    The solve is the fluid system linearized: the renewal terms of the
    fluid's equations on its own spec, grid and kernel table, with initial
    masses (0, ihat0, ehat0), the drivers added to the forcings, and the
    rate lam S I replaced by lam (Sbar Ihat + Ibar Shat). drivers maps
    driver ids to (paths, n) or (n,) arrays on the fluid grid, an (n,)
    array being one path; only the ids in the kind's forcings are read, and
    they must share one number of paths. ihat0/ehat0 are the initial
    fluctuation values (scalars or one per path). Each sub-block's linear
    step is exact: its lower-triangular matrix is inverted once and the
    inverse applied to every path by one product. A node where the
    linearized step is singular, 1 - sum_i z_i w_i = 0 with z_i the rate's
    weight on term i and w_i its implicit weight, raises ValueError.
    Compartments the kind lacks (E, and R for SIS) are zero arrays.
    """
    spec = _model_spec(fluid)
    grid = fluid.grid
    kind = spec.kind
    forced = _FORCED[kind]
    n = len(grid)
    flat = True
    ds = {}
    for name in _forced_ids(kind):
        if name not in drivers:
            raise ValueError(f"driver {name!r} is required for {kind}")
        arr = np.asarray(drivers[name], dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != n:
            raise ValueError(f"driver {name!r} has shape {arr.shape}, not ({n},) or (paths, {n})")
        flat = flat and arr.ndim == 1
        ds[name] = arr if arr.ndim == 2 else arr[None, :]
    (first, d0), *others = ds.items()
    paths = len(d0)
    for name, arr in others:
        if len(arr) != paths:
            raise ValueError(f"driver {name!r} has {len(arr)} paths, driver {first!r} {paths}")
    i0v = np.asarray(ihat0, dtype=float).reshape(-1, 1)
    e0v = np.asarray(ehat0, dtype=float).reshape(-1, 1)
    for name, v in (("ihat0", i0v), ("ehat0", e0v)):
        if len(v) not in (1, paths):
            raise ValueError(f"{name} has {len(v)} values for {paths} driver paths")

    terms, s0, cs, rest = _equations(spec, grid, fluid.kernels, 0.0, i0v, e0v)
    rest = {name: fk for name, fk in rest.items() if name in forced}  # FcltPath has no L
    added = {name: [(-1, ds[d[1:]]) if d[0] == "-" else (1, ds[d]) for d in ids]
             for name, ids in forced.items()}

    # q = lam S I linearized: qhat = sum_i z_i X_i with z_i = lam Ibar c_i,
    # plus lam Sbar for X_0 = Ihat
    lam = spec.lam_on_grid(grid)
    zs = np.multiply.outer(cs, lam * fluid.I)
    zs[0] += lam * fluid.S

    def solve(u, e, G, T):
        # X_i = G_i + T_i qhat is linear in qhat: qhat = M^-1 sum_i z_i G_i,
        # M = Id - sum_i diag(z_i) T_i lower triangular, exact in one step.
        # M.T is a Fortran-ordered upper triangle that LAPACK reads without
        # a copy; its inverse is (M^-1).T.
        z = zs[:, u:e]
        inv_t, info = dtrtri(_step_matrix(z, T).T, lower=0, overwrite_c=1)
        if info > 0:
            node = u + info - 1
            raise ValueError(f"the linearized step at node {node} (t = {grid[node]:g}) "
                             "is singular: 1 - sum_i z_i w_i = 0")
        rhs = np.einsum("ia,ia...->a...", z, G)  # (e - u, P), C-ordered
        # rhs.T @ (M^-1).T = (M^-1 rhs).T, one triangular product in place
        return dtrmm(1.0, inv_t, rhs.T, side=1, overwrite_b=1).T

    hats, _, _ = _run_system(grid, (terms, s0, cs, rest), solve, added)
    shape = hats["I"].shape
    out = [hats[c] if c in hats else np.zeros(shape) for c in "SEIR"]
    if flat:
        out = [x[0] for x in out]
    return FcltPath(grid, *out)


def sis_sde_path(fluid: FluidSolution, ihat0, rng, paths: int = 1, noise: bool = True):
    """Euler-Maruyama for the Markovian SIS fluctuation SDE.

    The fluctuation solves dX = (lam (1 - 2 Ibar) - mu) X dt plus the
    time-changed Brownian term of variance (lam (1-Ibar) Ibar + mu Ibar) dt,
    on the fluid grid, for the Markovian SIS model of fluid.spec
    (_markovian_rates). Returns (n,) for a single path, else (paths, n).
    """
    spec = _model_spec(fluid)
    if spec.kind != "SIS":
        raise ValueError(f"the SDE is the SIS limit, not {spec.kind}")
    lam, (mu,) = _markovian_rates(spec)
    dt = grid_step(fluid.grid)
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
