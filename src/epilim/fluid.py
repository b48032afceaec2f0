"""Deterministic limit solvers: renewal-type Volterra systems for all four
models, a generic two-unknown linear Volterra solver, and the Markovian-ODE
and deterministic-duration delay special cases used as cross-checks.

Discretization: uniform grid, product-trapezoidal convolution. Kernel jump
discontinuities are carried separately as (lag, jump) atoms whose
contribution is a shifted cumulative of the rate path, so deterministic
period laws stay exact up to the trapezoid order. The kernel value at lag 0
enters each step implicitly; the within-step scalar fixed point is iterated
to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .agent_sim import ModelSpec
from .distributions import (
    DurationDist,
    JointDurationDist,
    KernelTable,
    grid_step,
    tabulate_kernels,
    uniform_grid,
)

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


def conv_full(ker: ConvKernel, q: np.ndarray, dt: float) -> np.ndarray:
    """int_0^{t_k} K(t_k - s) q(s) ds for a fully known rate path q."""
    q = np.asarray(q, dtype=float)
    k1 = len(q)
    cont = ker.cont[:k1]
    out = dt * (np.convolve(cont, q)[:k1] - 0.5 * cont * q[0] - 0.5 * cont[0] * q)
    if ker.atoms:
        qc = _cumtrapz(q, dt)
        for lag, j in ker.atoms:
            if lag == 0:
                out += j * qc
            elif lag < k1:
                out[lag:] += j * qc[: k1 - lag]
    return out


def _cumtrapz(q, dt):
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    out[..., 0] = 0.0
    np.cumsum(0.5 * dt * (q[..., 1:] + q[..., :-1]), axis=-1, out=out[..., 1:])
    return out


class _StepKernel:
    """Per-step convolution bookkeeping for one kernel against the rate path."""

    __slots__ = ("cont", "hist", "atoms", "lag0", "w", "dt")

    def __init__(self, ker: ConvKernel, dt: float):
        self.cont = np.ascontiguousarray(ker.cont, dtype=float)
        self.hist = bool(np.any(self.cont))  # atom-only kernels skip the dot
        self.atoms = tuple((lag, j) for lag, j in ker.atoms if lag > 0)
        self.lag0 = sum(j for lag, j in ker.atoms if lag == 0)
        # implicit weight of q_k: half-cell of the lag-0 kernel value
        self.w = float(0.5 * dt * (self.cont[0] + self.lag0))
        self.dt = dt

    def known(self, k, q, qr, qcum, kk):
        """Contribution of q[0..k-1]; q[k]'s share is self.w * q[k]."""
        v = 0.0
        if self.hist:
            s = 0.5 * self.cont[k] * q[0]
            if k > 1:
                s += np.dot(self.cont[1:k], qr[kk - k + 1 : kk])
            v = self.dt * s
        if self.lag0:
            v += self.lag0 * (qcum[k - 1] + 0.5 * self.dt * q[k - 1])
        for lag, j in self.atoms:
            if lag <= k:
                v += j * qcum[k - lag]
        return v


def _renewal(grid, terms, rate):
    """Step X_i(t) = f_i(t) + int_0^t K_i(t-s) q(s) ds across the grid.

    terms is a list of (forcing, ConvKernel) pairs. Forcings are time-major:
    (n,) for one path or (n, P) for a bundle. rate(k, bases, ws) returns q
    at node k given that X_i(t_k) = bases[i] + ws[i] * q(t_k). Returns
    (list of X_i, q, cumulative trapezoid of q), all with the forcings' shape.
    """
    dt = grid_step(grid)
    kk = len(grid) - 1
    fs = [f for f, _ in terms]
    kers = [_StepKernel(K, dt) for _, K in terms]
    ws = [ker.w for ker in kers]
    shape = fs[0].shape
    q = np.zeros(shape)
    qr = np.zeros(shape)  # qr[kk - j] = q[j], kept for contiguous dots
    qcum = np.zeros(shape)
    xs = [np.empty(shape) for _ in terms]

    bases = [f[0] for f in fs]
    for x, b in zip(xs, bases):
        x[0] = b
    q[0] = rate(0, bases, [0.0] * len(terms))
    qr[kk] = q[0]
    for k in range(1, kk + 1):
        bases = [f[k] + ker.known(k, q, qr, qcum, kk) for f, ker in zip(fs, kers)]
        qk = rate(k, bases, ws)
        q[k] = qk
        qr[kk - k] = qk
        qcum[k] = qcum[k - 1] + 0.5 * dt * (q[k - 1] + qk)
        for x, b, w in zip(xs, bases, ws):
            x[k] = b + w * qk
    return xs, q, qcum


class _StepDiverged(Exception):
    pass


@dataclass
class FluidSolution:
    """Deterministic compartment fractions on a uniform grid.

    A is the cumulative infection fraction and L the cumulative onset
    fraction (equal to A except for SEIR). diagnostics records the grid
    step actually used, internal halvings, fixed-point iteration counts,
    and probe residuals of the discretized equations.
    """

    kind: str
    grid: np.ndarray
    S: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray
    A: np.ndarray
    L: np.ndarray
    spec: object = field(repr=False, default=None)
    diagnostics: dict = field(default_factory=dict)


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


def solve_fluid(spec: ModelSpec, grid, kernels: KernelTable | None = None) -> FluidSolution:
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
            sol = _solve_fluid_on(spec, g, kernels if not halving else None)
        except _StepDiverged as e:
            last = e
            continue
        if halving:
            stride = 1 << halving
            idx = np.arange(0, len(g), stride)
            sol = FluidSolution(
                kind=sol.kind,
                grid=grid,
                S=sol.S[idx],
                E=sol.E[idx],
                I=sol.I[idx],
                R=sol.R[idx],
                A=sol.A[idx],
                L=sol.L[idx],
                spec=spec,
                diagnostics=dict(sol.diagnostics, halvings=halving, dt=dt),
            )
        return sol
    raise RuntimeError(
        f"within-step fixed point failed to converge after {_MAX_HALVINGS} grid "
        f"halvings (last residual {last.args[0]:.3e})"
    )


def _solve_fluid_on(spec, grid, kernels):
    """One fluid solve without halving.

    Every kind has rate q = lam S I with I = X_0 and S = s0 + sum_i c_i X_i
    over the renewal terms; SIR and SEIR carry S as a term of its own whose
    kernel is a lag-0 atom of -1, so S(t) = S(0) - int_0^t q.
    """
    kind = spec.kind
    dt = float(grid[1] - grid[0])
    n = len(grid)
    lam = spec.lam_on_grid(grid).tolist()
    i0, e0, r0 = spec.i0, spec.e0, spec.r0
    minus_cum = ConvKernel(cont=np.zeros(n), atoms=((0, -1.0),))

    if kind in ("SEIR", "SIRS"):
        h0 = spec.h0 if spec.h0 is not None else spec.h
        kt = kernels if kernels is not None else tabulate_kernels(spec.h, h0, grid)
        _check_table(kt, grid)
    if kind in ("SIS", "SIR"):
        _require_nodes(grid, [spec.f, spec.f0])
        terms = [(i0 * spec.f0.sf(grid), survival_kernel(spec.f, grid))]
        if kind == "SIS":
            s0, cs = 1.0, (-1.0,)
        else:
            terms.append((np.full(n, 1.0 - i0), minus_cum))
            s0, cs = 0.0, (0.0, 1.0)
    elif kind == "SEIR":
        forc_i = e0 * kt.psi0
        if i0 > 0:
            forc_i = forc_i + i0 * spec.f0.sf(grid)
        terms = [
            (forc_i, table_kernel(kt.psi, kt.psi_atoms, grid)),
            (np.full(n, 1.0 - i0 - e0), minus_cum),
        ]
        s0, cs = 0.0, (0.0, 1.0)
    else:  # SIRS
        forc_r = i0 * kt.psi0
        if r0 > 0:
            forc_r = forc_r + r0 * spec.f0.sf(grid)
        terms = [
            (i0 * (1.0 - h0.g.cdf(grid)), survival_kernel(spec.h.g, grid)),
            (forc_r, table_kernel(kt.psi, kt.psi_atoms, grid)),
        ]
        s0, cs = 1.0, (-1.0, -1.0)

    max_it = 0
    q_prev = 0.0

    def rate(k, bases, ws):
        nonlocal max_it, q_prev
        bases = [float(b) for b in bases]  # plain floats iterate faster
        ib, iw = bases[0], ws[0]
        sb, sw = s0, 0.0
        for c, b, w in zip(cs, bases, ws):
            sb += c * b
            sw += c * w
        lam_k = lam[k]
        if k == 0:
            q_prev = lam_k * sb * ib
        else:
            q_prev, it = _fixed_point_scalar(
                lambda qk: lam_k * (sb + sw * qk) * (ib + iw * qk), q_prev)
            max_it = max(max_it, it)
        return q_prev

    # Divergence is detected and handled, so silence transient overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        xs, q, qcum = _renewal(grid, terms, rate)
    ii = xs[0]
    ss = np.full(n, s0)
    for c, x in zip(cs, xs):
        ss += c * x
    ee = np.zeros(n)
    ll = qcum.copy()
    if kind == "SIS":
        rr = np.zeros(n)
    elif kind == "SIR":
        rr = i0 * spec.f0.cdf(grid) + conv_full(cdf_kernel(spec.f, grid), q, dt)
    elif kind == "SEIR":
        ee = e0 * (1.0 - h0.g.cdf(grid)) + conv_full(survival_kernel(spec.h.g, grid), q, dt)
        rr = e0 * kt.phi0 + conv_full(table_kernel(kt.phi, kt.phi_atoms, grid), q, dt)
        if i0 > 0:
            rr = rr + i0 * spec.f0.cdf(grid)
        ll = e0 * h0.g.cdf(grid) + conv_full(cdf_kernel(spec.h.g, grid), q, dt)
    else:
        rr = xs[1]
    resid = _probe_residual(ii, terms[0][0], terms[0][1], q, dt)

    return FluidSolution(
        kind=kind,
        grid=grid,
        S=ss,
        E=ee,
        I=ii,
        R=rr,
        A=qcum,
        L=ll,
        spec=spec,
        diagnostics={
            "dt": dt,
            "halvings": 0,
            "max_iterations": max_it,
            "probe_residual": resid,
        },
    )


def _check_table(kt: KernelTable, grid):
    if len(kt.grid) != len(grid) or abs(kt.grid[-1] - grid[-1]) > 1e-9:
        raise ValueError("kernel table must be tabulated on the solver grid")


def _probe_residual(x, forcing, ker, q, dt):
    """Discretized-equation residual at a handful of probe nodes.

    Each probe recomputes conv_full's value at its node from the whole rate
    path with one O(k) dot, independently of the stepper's history sums.
    """
    qc = _cumtrapz(q, dt)
    worst = 0.0
    for k in np.unique(np.linspace(0, len(q) - 1, 9, dtype=int)):
        conv = dt * (ker.cont[k::-1] @ q[: k + 1]
                     - 0.5 * ker.cont[k] * q[0] - 0.5 * ker.cont[0] * q[k])
        conv += sum(j * qc[k - lag] for lag, j in ker.atoms if lag <= k)
        worst = max(worst, abs(x[k] - forcing[k] - conv))
    return float(worst)


def _as_conv_kernel(K, n_nodes) -> ConvKernel:
    if isinstance(K, ConvKernel):
        if len(K.cont) != n_nodes:
            raise ValueError("kernel path length must match the grid")
        return K
    K = np.asarray(K, dtype=float)
    if K.ndim != 1 or len(K) != n_nodes:
        raise ValueError("kernel path length must match the grid")
    return ConvKernel(cont=K, atoms=())


def solve_linear_volterra(forcings, kernels, coefs, weights, grid, residual_check=False):
    """Linear Volterra system solver shared by the limit-process machinery.

    Solves X_i(t) = f_i(t) + c_i int_0^t K_i(t-s) r(s) ds with the coupling
    r = sum_i z_i X_i. Forcings may be (P, K+1) path bundles; the step solve
    is exact (the implicit weight enters linearly) and vectorized across
    paths. Returns (list of X_i, r) with the forcings' shape.
    """
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    n = len(grid)
    if not (len(forcings) == len(coefs) == len(weights) == len(kernels)):
        raise ValueError("forcings, kernels, coefs, weights must have equal length")
    fs = [np.asarray(f, dtype=float) for f in forcings]
    shape = np.broadcast_shapes(*(f.shape for f in fs))
    if shape[-1] != n or len(shape) > 2:
        raise ValueError("forcings must be (n,) or (paths, n) on the grid")
    flat = len(shape) == 1
    # time-major (n,) or (n, P), so that a step reads one row of the history
    fs = [np.ascontiguousarray(np.broadcast_to(f, shape).T) for f in fs]
    zs = []
    for z in weights:
        z = np.asarray(z, dtype=float)
        if z.ndim == 0:
            z = np.full(n, float(z))
        if z.shape != (n,):
            raise ValueError("coupling weights must be scalars or (n,) paths")
        zs.append(z)
    kers = []  # c_i folded in: X_i = f_i + int (c_i K_i)(t-s) r(s) ds
    for K, c in zip(kernels, coefs):
        K, c = _as_conv_kernel(K, n), float(c)
        kers.append(ConvKernel(cont=c * K.cont, atoms=tuple((lag, c * j) for lag, j in K.atoms)))

    def rate(k, bases, ws):
        num = 0.0
        den = 1.0
        for z, b, w in zip(zs, bases, ws):
            num = num + z[k] * b
            den -= z[k] * w
        return num / den

    xs, r, _ = _renewal(grid, list(zip(fs, kers)), rate)

    if residual_check:
        worst = 0.0
        for f, ker, x in zip(fs, kers, xs):
            conv = np.apply_along_axis(lambda rp: conv_full(ker, rp, dt), 0, r)
            worst = max(worst, float(np.max(np.abs(x - f - conv))))
        if worst > 1e-10:
            raise RuntimeError(f"discretized-equation residual {worst:.3e} above 1e-10")
    if flat:
        return xs, r
    return [np.ascontiguousarray(x.T) for x in xs], np.ascontiguousarray(r.T)


_ODE_INIT_KEYS = {"i0", "e0", "r0"}


def solve_markovian_ode(kind, lam, gamma, mu, init, grid) -> FluidSolution:
    """Classic RK4 for the exponential-period special case.

    Rates: lam infection; mu exit from I (SIS: back to S, SIR/SEIR: to R);
    gamma E->I for SEIR. For SIRS gamma is the I->R rate and mu the R->S
    rate, matching the equilibrium formulas.
    """
    if kind not in ("SIS", "SIR", "SIRS", "SEIR"):
        raise ValueError(f"unknown kind {kind!r}")
    if lam < 0 or mu <= 0 or (kind == "SEIR" and gamma <= 0) or (kind == "SIRS" and gamma <= 0):
        raise ValueError("rates must be positive")
    if not _ODE_INIT_KEYS.issuperset(init):
        raise ValueError(f"init keys must be among {sorted(_ODE_INIT_KEYS)}")
    i0 = float(init.get("i0", 0.0))
    e0 = float(init.get("e0", 0.0))
    r0 = float(init.get("r0", 0.0))
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    n = len(grid)

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

    def flux(v):
        return lam * v[0] * v[2]

    out = np.empty((n, 4))
    u = np.array([1.0 - i0 - e0 - r0, e0, i0, r0])
    out[0] = u
    acum = np.empty(n)
    acum[0] = 0.0
    for k in range(1, n):
        k1 = vf(u)
        u2 = u + 0.5 * dt * k1
        k2 = vf(u2)
        u3 = u + 0.5 * dt * k2
        k3 = vf(u3)
        u4 = u + dt * k3
        k4 = vf(u4)
        # the cumulative infection flux rides along at the same order
        acum[k] = acum[k - 1] + dt / 6.0 * (flux(u) + 2.0 * flux(u2) + 2.0 * flux(u3) + flux(u4))
        u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = u

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
        spec={"lam": lam, "gamma": gamma, "mu": mu, "init": dict(init)},
        diagnostics={"dt": dt, "method": "rk4"},
    )


def solve_deterministic_delay(kind, lam, xi, eta, init, grid) -> FluidSolution:
    """Delay-equation form of the SIRS system with point-mass periods.

    Infectious period exactly xi, immune period exactly eta; initially
    infectious (immune) agents carry uniform residuals on [0, xi] ([0, eta]).
    The grid step must divide both xi and eta so the moving integration
    limits land on nodes.
    """
    if kind != "SIRS":
        raise ValueError("the delay form is implemented for SIRS only")
    if xi <= 0 or eta <= 0:
        raise ValueError("xi and eta must be positive")
    grid = np.asarray(grid, dtype=float)
    dt = grid_step(grid)
    mx = xi / dt
    me = eta / dt
    if abs(mx - round(mx)) > 1e-9 or abs(me - round(me)) > 1e-9:
        raise ValueError(f"grid step {dt:g} must divide xi={xi:g} and eta={eta:g}")
    mx = int(round(mx))
    me = int(round(me))
    i0 = float(init.get("i0", 0.0))
    r0 = float(init.get("r0", 0.0))
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
        spec={"lam": lam, "xi": xi, "eta": eta, "init": dict(init)},
        diagnostics={"dt": dt, "max_iterations": max_it, "method": "delay"},
    )
