"""Deterministic limit solvers: the renewal-type Volterra system of each of
the four models, one step loop for every such system (the fluid's and the
linear fluctuation systems of fclt), and the Markovian-ODE and
deterministic-duration delay special cases used as cross-checks. Every
solver takes the ModelSpec and keeps it on its FluidSolution; the special
cases refuse a spec they do not describe.

Each kind's system (_equations) is written once: its renewal terms, the
closure giving S, and the compartments that are convolutions of the rate.
One runner (_run_system) runs it. The fluid passes the rate lam S I; fclt
passes the linearized rate on the fluid's kernel table and adds drivers.

Discretization: uniform grid, product-trapezoidal convolution. Kernel jump
discontinuities are carried separately as (lag, jump) atoms whose
contribution is a shifted cumulative of the rate path, so deterministic
period laws stay exact up to the trapezoid order. The kernel value at lag 0
enters each step implicitly.

The step loop solves the unknown rates of each sub-block of _SUB nodes
together (P. Linz, Analytical and Numerical Methods for Volterra
Equations, SIAM 1985): there each term is X = G + T q, with G known and T
one lower-triangular Toeplitz matrix per term and solve. The fluid takes
Newton steps to 1e-12, each one triangular solve (LAPACK dtrtrs); the
fluctuation limit's linear step inverts the sub-block's matrix once
(dtrtri) and applies the inverse to every path with one product. A step
too stiff for the grid (see _solve_fluid_on) halves the grid.

A convolution of a fully known path (conv_full) on a grid of at most
_BLOCK nodes is one product with the product-trapezoid Toeplitz matrix;
longer ones, and the kernel tabulation in distributions, use FFT, O(N log
N). The stepper's history sums, whose rate is only known up to the current
sub-block, are split over dyadic squares of the lower triangle (Hairer,
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532-541): each
square is one FFT once its sources are known, and only sources in the
current block of _BLOCK nodes are summed directly, by one product per
sub-block, O(N log^2 N) in all. That is the split conv_full makes: direct
sums up to _BLOCK lags, FFT beyond.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dtrtrs

from .distributions import (
    Deterministic,
    DurationDist,
    Exponential,
    KernelTable,
    _conv_head,
    grid_step,
    tabulate_kernels,
    uniform_grid,
)
from .model import _STAGES, ModelSpec

__all__ = [
    "ConvKernel",
    "FluidSolution",
    "survival_kernel",
    "cdf_kernel",
    "table_kernel",
    "conv_full",
    "solve_fluid",
    "solve_markovian_ode",
    "solve_deterministic_delay",
]

_TOL = 1e-12
_MAX_ITER = 20
_MAX_HALVINGS = 4


@dataclass(frozen=True)
class ConvKernel:
    """Kernel split into a continuous part on grid lags plus jump atoms.

    The represented kernel is cont[k] + sum of jumps with lag index <= k.
    Atoms must sit exactly on grid nodes.
    """

    cont: np.ndarray
    atoms: tuple = ()


def _atom_lag(loc: float, dt: float) -> int:
    lag = loc / dt
    r = round(lag)
    if abs(lag - r) > 1e-9 * max(1.0, abs(lag)):
        raise ValueError(f"kernel jump at t={loc:g} does not lie on a grid node (dt={dt:g})")
    return int(r)


def survival_kernel(d: DurationDist, grid) -> ConvKernel:
    """K(t) = 1 - CDF(t) with the jumps carried as atoms."""
    dt = grid_step(grid)
    cont = 1.0 - d.cdf_continuous(grid)
    atoms = tuple((_atom_lag(b, dt), -j) for b, j in d.atoms())
    return ConvKernel(cont=cont, atoms=atoms)


def cdf_kernel(d: DurationDist, grid) -> ConvKernel:
    dt = grid_step(grid)
    cont = np.asarray(d.cdf_continuous(grid), dtype=float)
    atoms = tuple((_atom_lag(b, dt), j) for b, j in d.atoms())
    return ConvKernel(cont=cont, atoms=atoms)


def table_kernel(values: np.ndarray, atom_pairs, grid) -> ConvKernel:
    """ConvKernel from tabulated kernel values whose jumps are listed separately."""
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    cont = np.array(values, dtype=float, copy=True)
    atoms = []
    for loc, j in atom_pairs:
        lag = _atom_lag(loc, dt)
        if lag < len(cont):
            cont[lag:] -= j
        atoms.append((lag, j))
    return ConvKernel(cont=cont, atoms=tuple(atoms))


# Doubles per row block of a conv_full over many paths: its FFT buffers, a
# few times this size, stay small next to the path bundle.
_CONV_ROW_DOUBLES = 1 << 15


def conv_full(ker: ConvKernel, q: np.ndarray, dt: float) -> np.ndarray:
    """int_0^{t_k} K(t_k - s) q(s) ds for fully known rate paths q, (n,) or
    (..., n).

    On a grid of at most _BLOCK nodes the product-trapezoid sum is one
    product of q's rows with its lower-triangular Toeplitz weights
    (_trapezoid_product). A longer grid takes one FFT convolution per block of rows, each row on
    its own, so blocking changes no bit. Either way atoms add shifted
    cumulative trapezoids of q, and out[..., 0], the integral over an empty
    interval, is exactly 0.
    """
    q = np.asarray(q, dtype=float)
    k1 = q.shape[-1]
    if k1 <= _BLOCK:
        out = _trapezoid_product(ker.cont, q, dt)
    elif q.ndim == 2 and q.size > _CONV_ROW_DOUBLES:
        out = np.empty_like(q)
        rows = max(1, _CONV_ROW_DOUBLES // k1)
        for p in range(0, len(q), rows):
            out[p : p + rows] = conv_full(ker, q[p : p + rows], dt)
        return out
    else:
        cont = ker.cont[:k1]
        out = dt * (_conv_head(cont, q, k1) - 0.5 * cont * q[..., :1] - 0.5 * cont[0] * q)
        out[..., 0] = 0.0
    if ker.atoms:
        qc = _cumtrapz(q, dt)
        for lag, j in ker.atoms:
            if lag == 0:
                out += j * qc
            elif lag < k1:
                out[..., lag:] += j * qc[..., : k1 - lag]
    return out


def _trapezoid_product(cont, q, dt):
    """conv_full's continuous part on a short grid: q's rows times the
    product-trapezoid weights w[k, j] = dt cont[k - j], halved at j = 0 and
    at j = k, with row 0 zero; one dgemm, whose result is Fortran-ordered.

    w is Fortran-ordered and passed transposed (op(B) = B.T), as is q unless
    its rows are a Fortran-ordered bundle. In this form OpenBLAS sums every
    row of a bundle of up to 100 rows in one order (measured on an AVX-512
    host with one and two threads), so such a row is bitwise its one-row
    call; the edge tiles of a larger bundle may round a few rows otherwise.
    """
    k1 = q.shape[-1]
    w = _toeplitz(dt * np.asarray(cont[:k1], dtype=float), k1, k1, 0, order="F")
    w[:, 0] *= 0.5
    w.ravel(order="K")[::k1 + 1] *= 0.5  # the diagonal, in place
    w[0, 0] = 0.0
    rows = q.reshape(-1, k1)
    if rows.flags.f_contiguous:  # the runner's bundle: a transposed time-major array
        out = dgemm(1.0, rows, w, trans_b=1)
    else:
        out = dgemm(1.0, rows.T, w, trans_a=1, trans_b=1)
    return out.reshape(q.shape)


def _cumtrapz(q, dt):
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    out[..., 0] = 0.0
    np.cumsum(0.5 * dt * (q[..., 1:] + q[..., :-1]), axis=-1, out=out[..., 1:])
    return out


_BLOCK = 256  # block of the near part: sources in the target's aligned block are summed directly
_SUB = 128  # sub-block of the near part: its unknown rates are solved together


def _toeplitz(c, rows, cols, offset, order="C"):
    """The (rows, cols) array [a, x] = c[offset + a - x], 0 where that lag is
    negative or past c: a copy, in the given memory order, of a
    sliding-window view of one padded vector."""
    lags = offset + rows - 1 - np.arange(rows + cols - 1)
    ok = (lags >= 0) & (lags < len(c))
    pad = np.zeros(len(lags))
    pad[ok] = c[lags[ok]]
    return np.array(sliding_window_view(pad, cols)[::-1], order=order)


def _near_weights(ker: ConvKernel, dt: float, n: int):
    """(known, t) of one term's near part on a grid of n nodes.

    known[a, x] weighs the near source width - x nodes before node a of a
    sub-block, at lag width + a - x; t is the sub-block's lower-triangular
    Toeplitz matrix, with the near weights, the implicit weight of the
    current node on the diagonal, and every atom at a lag below _SUB: an
    atom of mass j at lag L weighs q(t_k - t_L) by j dt / 2 and the earlier
    nodes by j dt, as the cumulative trapezoid does.
    """
    rows, c = min(n, _SUB), dt * np.asarray(ker.cont[:min(n, _BLOCK)], dtype=float)
    width = max(1, (len(c) - 1) // _SUB * _SUB)  # the farthest start of a sub-block in its block
    t = c[:rows].copy()
    t[0] *= 0.5
    for lag, j in ker.atoms:
        if lag < rows:
            t[lag] += 0.5 * dt * j
            t[lag + 1:] += dt * j
    return _toeplitz(c, rows, width, width), _toeplitz(t, rows, rows, 0)


def _step_matrix(ds, ts):
    """Id - sum_i diag(ds[i]) @ ts[i]: the lower-triangular matrix of a
    sub-block's linearized step, with ds[i] the rate's derivative in X_i."""
    mat = np.einsum("ia,iab->ab", ds, ts)
    np.negative(mat, out=mat)
    mat.ravel()[::len(mat) + 1] += 1.0
    return mat


def _solve_lower(mat, rhs):
    """(x, node) with mat @ x = rhs for a lower-triangular mat, by one dtrtrs
    that may write x over rhs: node is the index of mat's first zero
    diagonal entry, None if it has none (x is then meaningless)."""
    # mat.T is a Fortran-ordered upper triangle: LAPACK reads it without a copy
    x, info = dtrtrs(mat.T, rhs, lower=0, trans=1, overwrite_b=1)
    return x, (info - 1 if info > 0 else None)


def _add_product(out, a, b):
    """out += a @ b, in place and with no temporary of out's size: out and b
    are C-ordered, (m,) and (L,) or (m, P) and (L, P), and a is (m, L). One
    dgemm on their transposes, which are Fortran-ordered views."""
    dgemm(1.0, b.reshape(len(b), -1).T, a.T, 1.0, out.reshape(len(out), -1).T, overwrite_c=1)


def _renewal(grid, x, kernels, solve):
    """Step X_i(t) = f_i(t) + int_0^t K_i(t-s) q(s) ds across the grid.

    x stacks the forcings f_i, time-major: (terms, n) for one path or
    (terms, n, P) for a bundle; X is stepped into it in place. kernels
    lists the ConvKernel K_i. solve(u, e, G, T) returns q on the nodes
    [u, e) given that X_i = G[i] + T[i] @ q there, with T a stack of
    lower-triangular matrices; node 0 comes alone, with X(0) = f(0), and
    then each _SUB-aligned sub-block. Returns (list of X_i, q, cumulative
    trapezoid of q), all with a forcing's shape.

    The history sum dt * sum_{j<k} cont[k - j] p_j, with p the rate path
    under trapezoid weights (p_0 = q_0 / 2), splits over the dyadic squares
    of the lower triangle: the pair (j, k) lies in the square of the highest
    bit where j and k differ. Squares of side s >= _BLOCK form the far part,
    added to X by FFTs of twice their side as soon as their sources are
    known; the pairs left, whose j lies in k's _BLOCK-aligned block, form
    the near part: one product per sub-block for the sources before it, and
    the sub-block's own matrix T. A kernel with no continuous part (S's
    lag-0 atom) has neither history sum. Atoms add shifted cumulative
    trapezoids of q. In all O(N log^2 N).
    """
    dt = grid_step(grid)
    n = len(grid)
    near = [_near_weights(K, dt, n) for K in kernels]
    known, t = np.array([w[0] for w in near]), np.array([w[1] for w in near])
    atoms = [(i, lag, j) for i, K in enumerate(kernels) for lag, j in K.atoms if lag < n]
    # atom-only kernels have no history sums (their near weights are all
    # zeros), and only long grids have far squares
    cont = [i for i, K in enumerate(kernels) if np.any(K.cont)]
    far = cont if n > _BLOCK else []
    spectra = {}
    p = np.empty(x.shape[1:])  # q with trapezoid weights, for the history sums
    qcum = np.empty_like(p)  # every node past 0 is written below
    qcum[0] = 0.0
    q0 = solve(0, 1, x[:, :1], np.zeros((len(kernels), 1, 1)))[0]
    p[0] = 0.5 * q0
    q_last = q0
    for u in [1, *range(_SUB, n, _SUB)]:
        e = min(n, u - u % _SUB + _SUB)
        kb = u - u % _BLOCK
        if u == kb and far:  # a new block: its far part is complete once this square is in
            s = u & -u
            src = np.fft.rfft(p[u - s:u].T, 2 * s)
            for i in far:
                spec = spectra.get((i, s))
                if spec is None:  # lags 1 .. 2s - 1
                    spec = spectra[i, s] = np.fft.rfft(dt * kernels[i].cont[1:2 * s], 2 * s)
                out = np.fft.irfft(spec * src, 2 * s).T
                x[i, u:u + s] += out[s - 1:s - 1 + min(s, n - u)]
        G = x[:, u:e]  # forcing + far part, then + the known sources: G
        if u > kb:
            for i in cont:
                _add_product(G[i], known[i, :e - u, -(u - kb):], p[kb:u])
        if atoms:
            # the cumulative trapezoid of q up to t_k - t_L: known up to
            # u - 1, and through q[u - 1] plus a half cell at every later lag
            reach = qcum[u - 1] + 0.5 * dt * q_last
            for i, lag, j in atoms:
                lo, mid = max(0, lag - u), min(lag, e - u)
                if lo < mid:
                    G[i, lo:mid] += j * qcum[u + lo - lag:u + mid - lag]
                G[i, mid:] += j * reach
        ts = t[:, :e - u, :e - u]
        q = p[u:e] = solve(u, e, G, ts)
        for g, a in zip(G, ts):
            _add_product(g, a, p[u:e])
        # the cumulative trapezoid, summed node by node as np.cumsum does
        c = qcum[u:e]
        np.add(q[1:], q[:-1], out=c[1:])
        np.add(q[:1], q_last, out=c[:1])
        c *= 0.5 * dt
        c[0] += qcum[u - 1]
        np.cumsum(c, axis=0, out=c)
        q_last = p[e - 1]
    p[0] = q0
    return list(x), p, qcum


def _run_system(grid, system, solve, added=None):
    """Run a system of _equations: step its terms with _renewal under the
    sub-block solver (see _renewal), convolve the rest with the solved rate
    q, and close S.

    added maps a compartment to the (sign, path) pairs, paths (P, n), that
    its forcing gains, +1 adding and -1 subtracting, in their order; by
    default none. Each compartment's forcing is summed once into a
    time-major array, and a convolved compartment adds its convolution to
    that sum. An added path is read as its transpose, (n, P), which is
    contiguous for the drivers that fclt.sample_drivers draws; any other
    layout gives the same sums, read strided. Returns ({compartment:
    path}, q, cumulative trapezoid of q), each (n,) for one path or
    (paths, n) for a bundle.
    """
    terms, s0, cs, rest = system
    added = added or {}
    # time-major (n,) or (n, P), so that a sub-block is a run of rows; the
    # results are their transposes, Fortran-ordered for a bundle
    shape = np.broadcast_shapes(*(np.shape(f) for _, f, _ in terms),
                                *(np.shape(a) for pairs in added.values() for _, a in pairs))[::-1]

    def forcing(name, f, out):
        out.T[...] = f
        for sign, a in added.get(name, ()):
            (np.add if sign > 0 else np.subtract)(out, a.T, out=out)
        return out

    x = np.empty((len(terms),) + shape)
    for (name, f, _), xi in zip(terms, x):
        forcing(name, f, xi)
    xs, q, qcum = _renewal(grid, x, [K for _, _, K in terms], solve)
    xs, q = [x.T for x in xs], q.T
    out = {name: x for (name, _, _), x in zip(terms, xs)}
    dt = grid_step(grid)
    for name, (f, K) in rest.items():
        total = forcing(name, f, np.empty(shape))
        total += conv_full(K, q, dt).T
        out[name] = total.T
    if "S" not in out:  # s0 + sum_i cs[i] X_i, summed left to right
        out["S"] = sum((c * x for c, x in zip(cs, xs)), s0)
    return out, q, qcum.T


class _StepDiverged(Exception):
    pass


@dataclass
class FluidSolution:
    """Deterministic compartment fractions on a uniform grid.

    A is the cumulative infection fraction and L the cumulative onset
    fraction (equal to A except for SEIR). diagnostics records the grid
    step actually used, internal halvings, the most Newton steps that one
    sub-block took (max_iterations; the delay form counts its fixed-point
    iterations per node), the largest |1 - J_kk| of the Newton
    Jacobians (max_contraction: a halving comes past _TOL ** (1 /
    _MAX_ITER), about 0.251), and the worst probe residual of the
    discretized equations over the stepped terms. spec is the model
    solved, by every solver here. kernels is the (h, h0) table of the solve
    on this grid; None for SIS/SIR, ODE and delay solves.
    """

    kind: str
    grid: np.ndarray
    S: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray
    A: np.ndarray
    L: np.ndarray
    spec: ModelSpec | None = field(repr=False, default=None)
    diagnostics: dict = field(default_factory=dict)
    kernels: KernelTable | None = field(repr=False, default=None)


def _fixed_point_scalar(update, q0):
    """Iterate q = update(q) from q0; returns (q, iterations) or raises.

    Divergence is detected and handled, so callers silence transient
    overflows with np.errstate around the whole solve.
    """
    q = q0
    delta = float("inf")
    for it in range(1, _MAX_ITER + 1):
        qn = update(q)
        if not math.isfinite(qn):
            raise _StepDiverged(float("inf"))
        delta = abs(qn - q)
        if delta <= _TOL * max(1.0, abs(qn)):
            return qn, it
        q = qn
    raise _StepDiverged(delta)


def _require_nodes(grid, dists):
    dt = grid_step(grid)
    for d in dists:
        if d is None:
            continue
        for loc, _ in d.atoms():
            _atom_lag(loc, dt)


def solve_fluid(spec: ModelSpec, grid) -> FluidSolution:
    """Solve the deterministic limit system of spec's model on the grid."""
    grid = np.asarray(grid, dtype=float)
    grid_step(grid)  # validate uniformity
    horizon = float(grid[-1])
    dt0 = float(grid[1] - grid[0])

    last = None
    for halving in range(_MAX_HALVINGS + 1):
        dt = dt0 / (1 << halving)
        g = uniform_grid(horizon, dt) if halving else grid
        try:
            sol = _solve_fluid_on(spec, g)
        except _StepDiverged as e:
            last = e
            continue
        if halving:  # back on the caller's grid, with the kernels tabulated there
            idx = np.arange(0, len(g), 1 << halving)
            sol = replace(
                sol, grid=grid, **{c: getattr(sol, c)[idx] for c in "SEIRAL"},
                diagnostics=dict(sol.diagnostics, halvings=halving, dt=dt),
                kernels=sol.kernels and tabulate_kernels(spec.h, spec.residual_joint(), grid))
        return sol
    raise RuntimeError(f"the near steps failed after {_MAX_HALVINGS} grid halvings: {last}")


def _equations(spec, grid, kt, unit, i0, e0):
    """The renewal system of spec's kind on the grid, written once.

    Returns (terms, s0, cs, rest). terms lists (name, forcing, ConvKernel)
    with X = forcing + int_0^t K(t-s) q(s) ds, I first; S = s0 + sum_i
    cs[i] X_i closes the system through the rate q = lam S I; rest maps
    the other compartments to a (forcing, ConvKernel) pair, to be convolved
    with the solved q. SIR and SEIR carry S as a term of its own whose kernel
    is a lag-0 atom of -1, so S(t) = S(0) - int_0^t q.

    Forcings and s0 are linear in (unit, i0, e0): the fluid passes (1,
    spec.i0, spec.e0); the fluctuation limit passes (0, ihat0, ehat0), and
    the same kernels then carry the linearized rate. kt is the kernel table
    of (h, h0) for the two-stage kinds, None for SIS and SIR.
    """
    n = len(grid)
    minus_cum = ConvKernel(cont=np.zeros(n), atoms=((0, -1.0),))

    def f0_part(c, which):
        # c times f0's sf or cdf; with c = 0 the law need not exist
        if not np.any(c):
            return 0.0
        if spec.f0 is None:
            raise ValueError("nonzero initial I fluctuation needs a residual law f0")
        return c * getattr(spec.f0, which)(grid)

    if spec.kind in ("SIS", "SIR"):
        _require_nodes(grid, [spec.f, spec.f0])
        terms = [("I", i0 * spec.f0.sf(grid), survival_kernel(spec.f, grid))]
        if spec.kind == "SIS":
            return terms, unit, (-1.0,), {}
        terms.append(("S", (unit - i0) * np.ones(n), minus_cum))
        rest = {"R": (i0 * spec.f0.cdf(grid), cdf_kernel(spec.f, grid))}
        return terms, 0.0, (0.0, 1.0), rest
    h0 = kt.h0
    psi = table_kernel(kt.psi, kt.psi_atoms, grid)
    if spec.kind == "SEIR":
        terms = [("I", e0 * kt.psi0 + f0_part(i0, "sf"), psi),
                 ("S", (unit - i0 - e0) * np.ones(n), minus_cum)]
        rest = {
            "E": (e0 * (1.0 - h0.g.cdf(grid)), survival_kernel(spec.h.g, grid)),
            "R": (e0 * kt.phi0 + f0_part(i0, "cdf"), table_kernel(kt.phi, kt.phi_atoms, grid)),
            "L": (e0 * h0.g.cdf(grid), cdf_kernel(spec.h.g, grid)),
        }
        return terms, 0.0, (0.0, 1.0), rest
    terms = [("I", i0 * (1.0 - h0.g.cdf(grid)), survival_kernel(spec.h.g, grid)),
             ("R", i0 * kt.psi0 + f0_part(unit * spec.r0, "sf"), psi)]
    return terms, unit, (-1.0, -1.0), {}


def _solve_fluid_on(spec, grid):
    """One fluid solve without halving: the renewal system of _equations
    with the rate q = lam S I, by Newton steps on each sub-block."""
    dt = float(grid[1] - grid[0])
    n = len(grid)
    lam = spec.lam_on_grid(grid)
    kt = tabulate_kernels(spec.h, spec.residual_joint(), grid) if spec.h is not None else None
    terms, s0, cs, rest = _equations(spec, grid, kt, 1.0, spec.i0, spec.e0)
    cs = np.array(cs)
    # Newton converges where a node's scalar fixed point q = lam S I, of
    # contraction factor |1 - J_kk|, would not reach _TOL in _MAX_ITER
    # iterations. A step whose factor passes this bound is too stiff for
    # the grid all the same, and the grid is halved.
    picard = _TOL ** (1.0 / _MAX_ITER)
    stats = {"steps": 0, "contraction": 0.0}
    q_last = 0.0

    def solve(u, e, G, T):
        nonlocal q_last
        lk = lam[u:e]
        q = np.full(e - u, q_last)
        for it in range(1, _MAX_ITER + 1):
            xs = G + T @ q
            li = lk * xs[0]
            ls = lk * (cs @ xs + s0)
            # dq/dX_i of q = lam S I, with S = s0 + sum_i cs[i] X_i and I = X_0
            ds = np.multiply.outer(cs, li)
            ds[0] += ls
            jac = _step_matrix(ds, T)
            step, zero = _solve_lower(jac, ls * xs[0] - q)
            if zero is not None:
                raise _StepDiverged(f"a singular Newton step at node {u + zero}")
            q += step
            # |step| <= _TOL max(1, |q|), false for nan: a step that
            # overflows runs out of iterations
            size = np.abs(step)
            if size.max() <= _TOL or np.all(size <= _TOL * np.maximum(1.0, np.abs(q))):
                break
        else:
            raise _StepDiverged(f"Newton steps of {np.max(np.abs(step)):.3e} after "
                                f"{_MAX_ITER} steps at node {u}")
        # from the last Jacobian, taken within _TOL of the solution
        contraction = float(np.max(np.abs(1.0 - np.diagonal(jac))))
        if contraction > picard:
            raise _StepDiverged(f"a step contraction of {contraction:.3f} (above "
                                f"{picard:.3f}) at node {u}")
        stats["steps"] = max(stats["steps"], it)
        stats["contraction"] = max(stats["contraction"], contraction)
        q_last = q[-1]
        return q

    # Divergence is detected and handled, so silence transient overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        out, q, qcum = _run_system(grid, (terms, s0, cs, rest), solve)

    return FluidSolution(
        kind=spec.kind,
        grid=grid,
        S=out["S"],
        E=out.get("E", np.zeros(n)),
        I=out["I"],
        R=out.get("R", np.zeros(n)),
        A=qcum,
        L=out.get("L", qcum.copy()),
        spec=spec,
        diagnostics={
            "dt": dt,
            "halvings": 0,
            "max_iterations": stats["steps"],
            "max_contraction": stats["contraction"],
            "probe_residual": max(_probe_residual(out[name], f, ker, q, dt)
                                  for name, f, ker in terms),
        },
        kernels=kt,
    )


def _probe_residual(x, forcing, ker, q, dt):
    """Discretized-equation residual of one stepped term at a handful of
    probe nodes.

    Each probe recomputes conv_full's value at its node from the whole rate
    path with one O(k) dot, independently of the stepper's history sums.
    """
    qc = _cumtrapz(q, dt)
    forcing = np.broadcast_to(forcing, q.shape)
    worst = 0.0
    for k in np.unique(np.linspace(0, len(q) - 1, 9, dtype=int)):
        conv = dt * (ker.cont[k::-1] @ q[: k + 1]
                     - 0.5 * ker.cont[k] * q[0] - 0.5 * ker.cont[0] * q[k])
        conv += sum(j * qc[k - lag] for lag, j in ker.atoms if lag <= k)
        worst = max(worst, abs(x[k] - forcing[k] - conv))
    return float(worst)


def _require_default_residuals(spec: ModelSpec, solver: str) -> None:
    """Refuse spec unless each initial pool with mass has ModelSpec's default
    residual law, the one that solver assumes."""
    default = replace(spec, f0=None, h0=None)  # ModelSpec fills in the defaults
    for pool, law, _ in _STAGES[spec.kind]:
        want, have = getattr(default, law), getattr(spec, law)
        if pool != "new" and getattr(spec, pool) > 0 and have != want:
            raise ValueError(f"{solver} needs the {pool} pool's law {law} = {want!r}, "
                             f"got {have!r}")


def _markovian_rates(spec: ModelSpec):
    """(lam, rates of a new infection's stages) where the Markovian ODE is the
    fluid limit: a constant rate, exponential laws, and each initial pool's
    law that of a new infection's remaining stages (ModelSpec's default)."""
    lam = spec.lam_constant()
    if lam is None:
        raise ValueError("the Markovian ODE needs a constant contact rate")
    stages = (spec.f,) if spec.h is None else (spec.h.g, spec.h.f)  # f is None if h is bucketed
    if not all(isinstance(d, Exponential) for d in stages):
        raise ValueError("the Markovian ODE needs independent exponential period laws, "
                         f"got {spec.f or spec.h!r}")
    _require_default_residuals(spec, "the Markovian ODE")
    return lam, tuple(d.rate for d in stages)


def solve_markovian_ode(spec: ModelSpec, grid) -> FluidSolution:
    """Classic RK4 for the exponential-period special case, Kurtz's
    density-dependent limit; _markovian_rates refuses any other spec.

    Rates: lam infection; mu exit from I (SIS: back to S, SIR/SEIR: to R);
    gamma E->I for SEIR. For SIRS gamma is the I->R rate and mu the R->S
    rate, matching the equilibrium formulas.
    """
    lam, rates = _markovian_rates(spec)
    gamma, mu = rates if len(rates) == 2 else (0.0, rates[0])
    kind, i0, e0, r0 = spec.kind, spec.i0, spec.e0, spec.r0
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    n = len(grid)

    # Python floats, in the array form's operation order: the same IEEE
    # results at a fraction of the per-step cost. Last comes the flux into A.
    def vf(s, e, i, r):
        inf = lam * s * i
        if kind == "SIS":
            return -inf + mu * i, 0.0, inf - mu * i, 0.0, inf
        if kind == "SIR":
            return -inf, 0.0, inf - mu * i, mu * i, inf
        if kind == "SEIR":
            return -inf, inf - gamma * e, gamma * e - mu * i, mu * i, inf
        return -inf + mu * r, 0.0, inf - gamma * i, gamma * i - mu * r, inf

    half, sixth = 0.5 * dt, dt / 6.0
    s, e, i, r = 1.0 - i0 - e0 - r0, e0, i0, r0
    rows = array("d", (s, e, i, r))
    acum = array("d", (0.0,))
    for _ in range(1, n):
        ds1, de1, di1, dr1, f1 = vf(s, e, i, r)
        s2, e2, i2, r2 = s + half * ds1, e + half * de1, i + half * di1, r + half * dr1
        ds2, de2, di2, dr2, f2 = vf(s2, e2, i2, r2)
        s3, e3, i3, r3 = s + half * ds2, e + half * de2, i + half * di2, r + half * dr2
        ds3, de3, di3, dr3, f3 = vf(s3, e3, i3, r3)
        s4, e4, i4, r4 = s + dt * ds3, e + dt * de3, i + dt * di3, r + dt * dr3
        ds4, de4, di4, dr4, f4 = vf(s4, e4, i4, r4)
        # the cumulative infection flux rides along at the same order
        acum.append(acum[-1] + sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4))
        s = s + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
        e = e + sixth * (de1 + 2.0 * de2 + 2.0 * de3 + de4)
        i = i + sixth * (di1 + 2.0 * di2 + 2.0 * di3 + di4)
        r = r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
        rows.extend((s, e, i, r))
    out = np.frombuffer(rows).reshape(n, 4)
    acum = np.frombuffer(acum)

    ll = acum.copy()
    if kind == "SEIR":
        ll = e0 + acum - out[:, 1]  # onsets = E(0) + infections - current E
    return FluidSolution(
        kind=kind,
        grid=grid,
        S=out[:, 0],
        E=out[:, 1],
        I=out[:, 2],
        R=out[:, 3],
        A=acum,
        L=ll,
        spec=spec,
        diagnostics={"dt": dt, "method": "rk4"},
    )


def solve_deterministic_delay(spec: ModelSpec, grid) -> FluidSolution:
    """Delay-equation form of the SIRS system with point-mass periods.

    spec has a constant rate and h = Deterministic(xi) x Deterministic(eta):
    infectious period exactly xi, immune period exactly eta. Initially
    infectious (immune) agents carry ModelSpec's default residuals, uniform
    on [0, xi] ([0, eta]). The grid step must divide both xi and eta so the
    moving integration limits land on nodes.
    """
    if spec.kind != "SIRS":
        raise ValueError("the delay form is implemented for SIRS only")
    lam, h = spec.lam_constant(), spec.h
    if lam is None or not all(isinstance(d, Deterministic) and d.value > 0 for d in (h.g, h.f)):
        raise ValueError("the delay form needs a constant rate and h = Deterministic(xi) x "
                         "Deterministic(eta), with xi and eta positive")
    _require_default_residuals(spec, "the delay form")
    xi, eta, i0, r0 = h.g.value, h.f.value, spec.i0, spec.r0
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    mx = xi / dt
    me = eta / dt
    if abs(mx - round(mx)) > 1e-9 or abs(me - round(me)) > 1e-9:
        raise ValueError(f"grid step {dt:g} must divide xi={xi:g} and eta={eta:g}")
    mx = int(round(mx))
    me = int(round(me))
    kk = len(grid) - 1

    # uniform residuals: still-infectious fraction (1 - t/xi)^+, etc.
    forc_i = i0 * np.clip(1.0 - grid / xi, 0.0, None)
    psi0 = (np.minimum(grid, xi) - np.minimum(np.clip(grid - eta, 0.0, None), xi)) / xi
    forc_r = r0 * np.clip(1.0 - grid / eta, 0.0, None) + i0 * psi0

    # q = (1 - I - R) I; the lam factor stays outside the integrals
    q = np.zeros(kk + 1)
    qcum = np.zeros(kk + 1)
    ii = np.empty(kk + 1)
    rr = np.empty(kk + 1)
    ii[0] = forc_i[0]
    rr[0] = forc_r[0]
    q[0] = (1.0 - ii[0] - rr[0]) * ii[0]
    max_it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, kk + 1):
            lag_x = qcum[k - mx] if k >= mx else 0.0
            lag_xe = qcum[k - mx - me] if k >= mx + me else 0.0
            rr[k] = forc_r[k] + lam * (lag_x - lag_xe)
            base_cum = qcum[k - 1] + 0.5 * dt * q[k - 1]
            rk = rr[k]
            fk = forc_i[k]

            def upd(qk):
                ik = fk + lam * (base_cum + 0.5 * dt * qk - lag_x)
                return (1.0 - ik - rk) * ik

            qk, it = _fixed_point_scalar(upd, q[k - 1])
            max_it = max(max_it, it)
            q[k] = qk
            qcum[k] = base_cum + 0.5 * dt * qk
            ii[k] = fk + lam * (qcum[k] - lag_x)

    aa = lam * qcum
    ss = 1.0 - ii - rr
    return FluidSolution(
        kind="SIRS",
        grid=grid,
        S=ss,
        E=np.zeros(kk + 1),
        I=ii,
        R=rr,
        A=aa,
        L=aa.copy(),
        spec=spec,
        diagnostics={"dt": dt, "max_iterations": max_it, "method": "delay"},
    )
