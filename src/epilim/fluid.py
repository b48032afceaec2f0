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
enters each step implicitly; the within-step scalar fixed point is iterated
to 1e-12.

Convolutions of a fully known path (conv_full, and the kernel tabulation in
distributions) use FFT, O(N log N). The stepper's history sums, whose rate
is only known up to the current node, are split over dyadic squares of the
lower triangle (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6
(1985) 532-541): each square is one FFT once its sources are known, and only
sources in the current block of _BLOCK nodes are summed directly at each
step, O(N log^2 N) in all.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

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
    (paths, n).

    The product-trapezoid sum is one FFT convolution per block of rows, each
    row on its own, so blocking changes no bit. out[..., 0] is the integral
    over an empty interval, exactly 0.
    """
    q = np.asarray(q, dtype=float)
    k1 = q.shape[-1]
    if q.ndim == 2 and q.size > _CONV_ROW_DOUBLES:
        out = np.empty_like(q)
        rows = max(1, _CONV_ROW_DOUBLES // k1)
        for p in range(0, len(q), rows):
            out[p : p + rows] = conv_full(ker, q[p : p + rows], dt)
        return out
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


def _cumtrapz(q, dt):
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    out[..., 0] = 0.0
    np.cumsum(0.5 * dt * (q[..., 1:] + q[..., :-1]), axis=-1, out=out[..., 1:])
    return out


_BLOCK = 256  # block of the near part: sources in the target's aligned block are summed directly


class _StepKernel:
    """One term of the step loop: its kernel's weight on the current rate,
    its continuous history folded into the forcing, and its atoms.

    The history sum dt * sum_{j<k} cont[k - j] p_j, with p the rate path
    under trapezoid weights (p_0 = q_0 / 2), splits over the dyadic squares
    of the lower triangle: the pair (j, k) lies in the square of the highest
    bit where j and k differ. Squares of side s >= _BLOCK form the far part,
    which add_square folds into g = forcing + far part as soon as their
    sources are known; the pairs left, whose j lies in k's _BLOCK-aligned
    block, form the near part, weighted by near over lags _BLOCK, ..., 1.
    """

    __slots__ = ("cont", "g", "near", "atoms", "lag0", "w", "dt", "spectra")

    def __init__(self, forcing, ker: ConvKernel, dt: float):
        n = len(forcing)
        self.cont = np.asarray(ker.cont, dtype=float)
        tail = dt * self.cont[1:_BLOCK + 1]
        self.near = np.zeros(_BLOCK)
        self.near[_BLOCK - len(tail):] = tail[::-1]
        # only long grids have far squares; atom-only kernels have no history
        far = n > _BLOCK and bool(np.any(self.cont))
        self.g = np.array(forcing, dtype=float) if far else forcing
        self.spectra = {} if far else None
        self.atoms = tuple((lag, j) for lag, j in ker.atoms if lag > 0)
        self.lag0 = sum(j for lag, j in ker.atoms if lag == 0)
        # implicit weight of q_k: half-cell of the lag-0 kernel value
        self.w = float(0.5 * dt * (self.cont[0] + self.lag0))
        self.dt = dt

    def add_square(self, k, s, src):
        """Add the square of sources [k - s, k) on targets [k, k + s) to g;
        src is the rfft of p[k - s:k].T at length 2s."""
        spec = self.spectra.get(s)
        if spec is None:  # lags 1 .. 2s - 1
            spec = self.spectra[s] = np.fft.rfft(self.dt * self.cont[1:2 * s], 2 * s)
        out = np.fft.irfft(spec * src, 2 * s).T
        target = self.g[k:k + s]
        target += out[s - 1:s - 1 + len(target)]

    def atom_sum(self, k, q, qcum):
        """Contribution of the atoms from q[0..k-1]."""
        v = 0.0
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

    The history sums cost O(N log^2 N): each far square is one FFT of twice
    its side, and each step's near part is one product over all terms.
    """
    dt = grid_step(grid)
    n = len(grid)
    shape = terms[0][0].shape
    kers = [_StepKernel(f, K, dt) for f, K in terms]
    ws = [ker.w for ker in kers]
    far = [ker for ker in kers if ker.spectra is not None]
    atomic = [(i, ker) for i, ker in enumerate(kers) if ker.lag0 or ker.atoms]
    near = np.array([ker.near for ker in kers])
    # one path steps in Python floats, stored as C doubles (a list of float
    # objects would leave its allocator arenas behind), a bundle in rows
    if len(shape) == 1:
        rows, store = np.ndarray.tolist, lambda: array("d", bytes(8 * n))
    else:
        rows, store = list, lambda: np.zeros(shape)
    p = np.zeros(shape)  # q with trapezoid weights, for the history sums
    q, qcum = store(), store()
    xs = [store() for _ in terms]

    block = [rows(ker.g[:_BLOCK]) for ker in kers]  # forcing + far part
    bases = [b[0] for b in block]
    q[0] = rate(0, bases, [0.0] * len(terms))
    p[0] = 0.5 * q[0]
    for x, b in zip(xs, bases):
        x[0] = b
    for k in range(1, n):
        m = k % _BLOCK
        if m:
            nv = rows(near[:, _BLOCK - m:].dot(p[k - m:k]))
            bases = [b[m] + v for b, v in zip(block, nv)]
        else:  # a new block: its far part is complete once this square is in
            s = k & -k
            src = np.fft.rfft(p[k - s:k].T, 2 * s)
            for ker in far:
                ker.add_square(k, s, src)
            block = [rows(ker.g[k:k + _BLOCK]) for ker in kers]
            bases = [b[0] for b in block]
        for i, ker in atomic:
            bases[i] = bases[i] + ker.atom_sum(k, q, qcum)
        qk = rate(k, bases, ws)
        q[k] = p[k] = qk
        qcum[k] = qcum[k - 1] + 0.5 * dt * (q[k - 1] + qk)
        for x, b, w in zip(xs, bases, ws):
            x[k] = b + w * qk
    return [np.asarray(x) for x in xs], np.asarray(q), np.asarray(qcum)


def _run_system(grid, system, rate, forced=None):
    """Run a system of _equations: step its terms with _renewal under the
    rate closure, convolve the rest with the solved rate q, and close S.

    forced(name, forcing) adds anything to a compartment's forcing; by
    default nothing. Returns ({compartment: path}, q, cumulative trapezoid
    of q), each (n,) for one path or (paths, n) for a bundle of forcings.
    """
    terms, s0, cs, rest = system
    forced = forced or (lambda name, f: f)
    fs = [forced(name, f) for name, f, _ in terms]
    shape = np.broadcast_shapes(*(np.shape(f) for f in fs))
    # time-major (n,) or (n, P), so that a step reads one row of the history
    fs = [np.ascontiguousarray(np.broadcast_to(f, shape).T) for f in fs]
    xs, q, qcum = _renewal(grid, [(f, K) for f, (_, _, K) in zip(fs, terms)], rate)
    xs, q = [np.ascontiguousarray(x.T) for x in xs], np.ascontiguousarray(q.T)
    out = {name: x for (name, _, _), x in zip(terms, xs)}
    dt = grid_step(grid)
    for name, (f, K) in rest.items():
        out[name] = conv_full(K, q, dt)
        out[name] += forced(name, f)
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
    step actually used, internal halvings, fixed-point iteration counts,
    and probe residuals of the discretized equations. spec is the model
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
    raise RuntimeError(
        f"within-step fixed point failed to converge after {_MAX_HALVINGS} grid "
        f"halvings (last residual {last.args[0]:.3e})"
    )


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
    with the rate q = lam S I, a scalar fixed point at each step."""
    dt = float(grid[1] - grid[0])
    n = len(grid)
    lam = spec.lam_on_grid(grid).tolist()
    kt = tabulate_kernels(spec.h, spec.residual_joint(), grid) if spec.h is not None else None
    terms, s0, cs, rest = _equations(spec, grid, kt, 1.0, spec.i0, spec.e0)

    max_it = 0
    q_prev = 0.0
    iterations, isfinite = range(1, _MAX_ITER + 1), math.isfinite

    def rate(k, bases, ws):
        nonlocal max_it, q_prev
        ib, iw = bases[0], ws[0]
        sb, sw = s0, 0.0
        for c, b, w in zip(cs, bases, ws):
            sb += c * b
            sw += c * w
        lam_k = lam[k]
        if k == 0:
            q_prev = lam_k * sb * ib
            return q_prev
        # _fixed_point_scalar inlined, the step loop's hot spot: the same
        # rule, delta <= _TOL * max(1, |q|), in two comparisons
        qk = q_prev
        for it in iterations:
            qn = lam_k * (sb + sw * qk) * (ib + iw * qk)
            if not isfinite(qn):
                raise _StepDiverged(float("inf"))
            delta = abs(qn - qk)
            if delta <= _TOL or delta <= _TOL * abs(qn):
                break
            qk = qn
        else:
            raise _StepDiverged(delta)
        max_it = max(max_it, it)
        q_prev = qn
        return qn

    # Divergence is detected and handled, so silence transient overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        out, q, qcum = _run_system(grid, (terms, s0, cs, rest), rate)
    _, forcing, ker = terms[0]

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
            "max_iterations": max_it,
            "probe_residual": _probe_residual(out["I"], forcing, ker, q, dt),
        },
        kernels=kt,
    )


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
