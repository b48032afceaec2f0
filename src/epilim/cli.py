"""Config-driven batch runner for the simulators, limit solvers, and checks.

One subcommand per engine plus ``describe``:

    simulate | fluid | fclt | verify | equilibrium | rate | describe

Engine subcommands take a JSON config file naming the model, grid,
ensemble sizes, output directory, and probe times.  Every run writes its
artifacts into a fresh directory together with a manifest (config hash,
seed, versions, wall time); rerunning the same config produces
byte-identical CSV files.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 failed acceptance check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .agent_sim import simulate_ensemble
from .distributions import JointDurationDist, _grid_steps, dist_from_record, equilibrium_dist
from .equilibria import verify_equilibrium_identities
from .fclt import DriverCovariance, _forced_ids, sample_drivers, solve_fclt_path
from .fluid import solve_fluid, solve_markovian_ode, uniform_grid
from .harness import convergence_rate, empirical_cov, fluid_scale
from .model import ModelSpec, TabulatedRate

ENGINES = ("simulate", "fluid", "fclt", "verify", "equilibrium", "rate")

# sup-norm budget for the verify engine's solver cross-check
VERIFY_TOL = 1e-4

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3


class ConfigError(ValueError):
    """Raised for any config problem; the message names the key path."""


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(d, allowed, path):
    for k in d:
        if k not in allowed:
            full = f"{path}.{k}" if path else str(k)
            raise ConfigError(f"unknown config key '{full}'")


def _section(doc, name, required=False):
    v = doc.get(name)
    if v is None:
        if required:
            raise ConfigError(f"'{name}' section is required")
        return {}
    if not isinstance(v, dict):
        raise ConfigError(f"'{name}' must be an object")
    return v


def _num(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"'{path}' must be a number")
    return float(v)


def _int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{path}' must be an integer")
    return v


def _parse_dist(v, path):
    if not isinstance(v, dict):
        raise ConfigError(f"'{path}' must be an object")
    if "equilibrium_of" in v:
        _check_keys(v, {"equilibrium_of"}, path)
        return equilibrium_dist(_parse_dist(v["equilibrium_of"],
                                            path + ".equilibrium_of"))
    _check_keys(v, {"family", "params"}, path)
    if "family" not in v or "params" not in v:
        raise ConfigError(f"'{path}' needs 'family' and 'params'")
    try:
        return dist_from_record(v)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"'{path}': {e}") from None


def _parse_joint(v, path):
    if not isinstance(v, dict):
        raise ConfigError(f"'{path}' must be an object")
    _check_keys(v, {"g", "f", "bucket_centers", "bucket_dists"}, path)
    if "g" not in v:
        raise ConfigError(f"'{path}.g' is required")
    g = _parse_dist(v["g"], path + ".g")
    try:
        if "f" in v:
            if "bucket_centers" in v or "bucket_dists" in v:
                raise ConfigError(
                    f"'{path}' takes either 'f' or the bucket fields")
            return JointDurationDist(g=g, f=_parse_dist(v["f"], path + ".f"))
        centers = v.get("bucket_centers")
        dists = v.get("bucket_dists")
        if not isinstance(centers, list) or not isinstance(dists, list):
            raise ConfigError(
                f"'{path}' needs 'bucket_centers' and 'bucket_dists' lists")
        ds = tuple(_parse_dist(d, f"{path}.bucket_dists[{i}]")
                   for i, d in enumerate(dists))
        return JointDurationDist(
            g=g,
            bucket_centers=tuple(_num(c, f"{path}.bucket_centers[{i}]")
                                 for i, c in enumerate(centers)),
            bucket_dists=ds)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"'{path}': {e}") from None


def _parse_lam(v, path):
    if isinstance(v, dict):
        _check_keys(v, {"times", "values"}, path)
        if "times" not in v or "values" not in v:
            raise ConfigError(f"'{path}' needs 'times' and 'values'")
        try:
            return TabulatedRate(tuple(float(t) for t in v["times"]),
                                 tuple(float(x) for x in v["values"]))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"'{path}': {e}") from None
    return _num(v, path)


_MODEL_KEYS = {"kind", "lam", "i0", "e0", "r0", "f", "f0", "h", "h0"}


def _parse_model(d):
    _check_keys(d, _MODEL_KEYS, "model")
    for req in ("kind", "lam", "i0"):
        if req not in d:
            raise ConfigError(f"'model.{req}' is required")
    kw = {
        "kind": d["kind"],
        "lam": _parse_lam(d["lam"], "model.lam"),
        "i0": _num(d["i0"], "model.i0"),
        "e0": _num(d.get("e0", 0.0), "model.e0"),
        "r0": _num(d.get("r0", 0.0), "model.r0"),
    }
    for name in ("f", "f0"):
        if name in d:
            kw[name] = _parse_dist(d[name], f"model.{name}")
    for name in ("h", "h0"):
        if name in d:
            kw[name] = _parse_joint(d[name], f"model.{name}")
    try:
        return ModelSpec(**kw)
    except ValueError as e:
        raise ConfigError(f"model: {e}") from None


class ExperimentConfig:
    """Validated run description: model, grid, ensemble, output, probes."""

    def __init__(self, doc, engine=None):
        if not isinstance(doc, dict):
            raise ConfigError("top level must be an object")
        _check_keys(doc, {"engine", "model", "grid", "ensemble", "output",
                          "probes"}, "")

        own = doc.get("engine")
        if own is not None and own not in ENGINES:
            raise ConfigError(
                f"'engine' must be one of {', '.join(ENGINES)}, got {own!r}")
        if own is not None and engine is not None and own != engine:
            raise ConfigError(
                f"config engine {own!r} does not match subcommand {engine!r}")
        self.engine = own or engine
        if self.engine is None:
            raise ConfigError("'engine' is required")

        model = _section(doc, "model", required=True)
        self.spec = _parse_model(model)

        grid = _section(doc, "grid", required=True)
        _check_keys(grid, {"horizon", "dt"}, "grid")
        if "horizon" not in grid or "dt" not in grid:
            raise ConfigError("'grid' needs 'horizon' and 'dt'")
        self.horizon = _num(grid["horizon"], "grid.horizon")
        self.dt = _num(grid["dt"], "grid.dt")
        if self.dt <= 0:
            raise ConfigError("'grid.dt' must be positive")
        if self.horizon < self.dt:
            raise ConfigError("'grid.horizon' must be at least grid.dt")

        ens = _section(doc, "ensemble")
        _check_keys(ens, {"n", "reps", "master_seed"}, "ensemble")
        self.n = ens.get("n")
        if self.n is not None:
            if isinstance(self.n, list):
                self.n = [_int(v, f"ensemble.n[{i}]")
                          for i, v in enumerate(self.n)]
                if not self.n or any(v < 1 for v in self.n):
                    raise ConfigError(
                        "'ensemble.n' entries must be positive integers")
            else:
                self.n = _int(self.n, "ensemble.n")
                if self.n < 1:
                    raise ConfigError("'ensemble.n' must be positive")
        self.reps = _int(ens.get("reps", 1), "ensemble.reps")
        if self.reps < 1:
            raise ConfigError("'ensemble.reps' must be at least 1")
        self.master_seed = _int(ens.get("master_seed", 0),
                                "ensemble.master_seed")
        if self.master_seed < 0:
            raise ConfigError("'ensemble.master_seed' must be nonnegative")

        out = _section(doc, "output", required=True)
        _check_keys(out, {"directory", "formats"}, "output")
        directory = out.get("directory")
        if not isinstance(directory, str) or not directory:
            raise ConfigError("'output.directory' must be a non-empty string")
        self.directory = directory
        formats = out.get("formats", ["csv", "json"])
        if not isinstance(formats, list) or not formats:
            raise ConfigError("'output.formats' must be a non-empty list")
        for i, f in enumerate(formats):
            if f not in ("csv", "json"):
                raise ConfigError(
                    f"'output.formats[{i}]' must be 'csv' or 'json'")
        self.formats = tuple(formats)

        probes = doc.get("probes", [])
        if not isinstance(probes, list):
            raise ConfigError("'probes' must be a list of times")
        self.probes = tuple(_num(t, f"probes[{i}]")
                            for i, t in enumerate(probes))
        for i, t in enumerate(probes):
            k = round(self.probes[i] / self.dt)
            if (abs(k * self.dt - self.probes[i]) > 1e-9 or k < 0
                    or k > _grid_steps(self.horizon, self.dt)):
                raise ConfigError(
                    f"'probes[{i}]' = {t} is not a node of the grid")

        # canonical form with defaults applied; its hash pins the outputs
        self.canonical = {
            "engine": self.engine,
            "model": model,
            "grid": {"horizon": self.horizon, "dt": self.dt},
            "ensemble": {"n": self.n, "reps": self.reps,
                         "master_seed": self.master_seed},
            "output": {"formats": list(self.formats)},
            "probes": list(self.probes),
        }
        blob = json.dumps(self.canonical, sort_keys=True,
                          separators=(",", ":"))
        self.sha256 = hashlib.sha256(blob.encode()).hexdigest()

    def grid(self):
        return uniform_grid(self.horizon, self.dt)

    def node(self, t):
        return int(round(t / self.dt))


def load_config(path, engine=None) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"not valid JSON: {e}") from None
    return ExperimentConfig(doc, engine=engine)


# ---------------------------------------------------------------------------
# artifact writers


_CSV_BLOCK_ROWS = 1000


def _write_csv(path, header, columns):
    """Integers as str(int), floats as repr(float): the shortest string that
    reads back to the same double. Rows are formatted in blocks, so that
    only one block of Python objects is alive at a time; in a block, bitwise
    equal columns share their strings, and a constant one is formatted once."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [c[lo : lo + _CSV_BLOCK_ROWS] for c in columns]
            bits = [c.view(f"u{c.itemsize}") for c in block]  # -0.0 is not 0.0 here
            cells = []
            for j, (c, b) in enumerate(zip(block, bits)):
                same = [i for i in range(j) if block[i].dtype == c.dtype and (bits[i] == b).all()]
                cells.append(cells[same[0]] if same else [repr(c[0].item())] * len(c)
                             if (b == b[0]).all() else list(map(repr, c.tolist())))
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def _jsonable(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, default=_jsonable, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# engines


def _engine_simulate(cfg, outdir, workers):
    if not isinstance(cfg.n, int):
        raise ConfigError(
            "'ensemble.n' must be an integer for the simulate engine")
    paths = simulate_ensemble(cfg.spec, cfg.n, cfg.reps, cfg.horizon, cfg.dt,
                              cfg.master_seed, workers=workers)
    arts = []
    if "csv" in cfg.formats:
        for r, p in enumerate(paths):
            name = f"sim_{r:04d}.csv"
            _write_csv(os.path.join(outdir, name),
                       ("t", "S", "E", "I", "R", "A", "L"),
                       (p.grid, p.S, p.E, p.I, p.R, p.A, p.L))
            arts.append(name)
    if cfg.reps >= 2 and "json" in cfg.formats:
        probes = [("I", t) for t in cfg.probes] or None
        stats = empirical_cov([fluid_scale(p) for p in paths], probes=probes)
        _write_json(os.path.join(outdir, "stats.json"), stats.as_dict())
        arts.append("stats.json")
    return {"artifacts": arts, "n": cfg.n, "reps": cfg.reps}


def _engine_fluid(cfg, outdir, workers):
    grid = cfg.grid()
    fl = solve_fluid(cfg.spec, grid)
    arts = []
    if "csv" in cfg.formats:
        _write_csv(os.path.join(outdir, "fluid.csv"),
                   ("t", "Sbar", "Ebar", "Ibar", "Rbar", "Abar", "Lbar"),
                   (grid, fl.S, fl.E, fl.I, fl.R, fl.A, fl.L))
        arts.append("fluid.csv")
    rep = {"artifacts": arts, "diagnostics": dict(fl.diagnostics)}
    if cfg.probes:
        rows = []
        for t in cfg.probes:
            k = cfg.node(t)
            rows.append({"t": t, "Sbar": float(fl.S[k]),
                         "Ebar": float(fl.E[k]), "Ibar": float(fl.I[k]),
                         "Rbar": float(fl.R[k])})
        rep["probes"] = rows
    return rep


def _engine_fclt(cfg, outdir, workers):
    if cfg.reps < 2:
        raise ConfigError(
            "'ensemble.reps' must be at least 2 for the fclt engine")
    grid = cfg.grid()
    fl = solve_fluid(cfg.spec, grid)
    cov = DriverCovariance(fl)
    rng = np.random.default_rng(cfg.master_seed)
    drivers = sample_drivers(cov, rng, paths=cfg.reps, ids=_forced_ids(cfg.spec.kind))
    fp = solve_fclt_path(drivers, fl)
    arts = []
    if "csv" in cfg.formats:
        # a compartment the kind lacks (E, and R for SIS) is zero on every path
        cols = [grid] + [getattr(fp, c + "hat").var(axis=0, ddof=1) if c in cfg.spec.kind
                         else np.zeros(len(grid)) for c in "SEIR"]
        _write_csv(os.path.join(outdir, "fclt.csv"),
                   ("t", "var_Shat", "var_Ehat", "var_Ihat", "var_Rhat"),
                   cols)
        arts.append("fclt.csv")
    rep = {"artifacts": arts, "paths": cfg.reps}
    if cfg.probes:
        idx = [cfg.node(t) for t in cfg.probes]
        x = fp.Ihat[:, idx]
        c = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
        rep["probes"] = list(cfg.probes)
        rep["cov_Ihat"] = c.tolist()
    return rep


def _engine_verify(cfg, outdir, workers):
    spec, grid = cfg.spec, cfg.grid()
    ode = solve_markovian_ode(spec, grid)  # refuses a model the ODE does not describe
    fl = solve_fluid(spec, grid)
    err = max(float(np.max(np.abs(getattr(fl, c) - getattr(ode, c)))) for c in "SEIR")
    passed = bool(err < VERIFY_TOL)
    rep = {"case": "renewal fluid vs Markovian ODE",
           "kind": spec.kind, "max_sup_error": err,
           "tolerance": VERIFY_TOL, "passed": passed}
    arts = []
    if "json" in cfg.formats:
        _write_json(os.path.join(outdir, "report.json"), rep)
        arts.append("report.json")
    return {"artifacts": arts, **rep}


def _engine_equilibrium(cfg, outdir, workers):
    report = verify_equilibrium_identities(cfg.spec, cfg.grid())
    arts = []
    if "json" in cfg.formats:
        _write_json(os.path.join(outdir, "equilibrium.json"), report)
        arts.append("equilibrium.json")
    return {"artifacts": arts, **report}


def _engine_rate(cfg, outdir, workers):
    if not isinstance(cfg.n, list):
        raise ConfigError("'ensemble.n' must be a list of population sizes "
                          "for the rate engine")
    out = convergence_rate(cfg.spec, cfg.n, cfg.reps, cfg.horizon, cfg.dt,
                           master_seed=cfg.master_seed, workers=workers)
    arts = []
    if "json" in cfg.formats:
        _write_json(os.path.join(outdir, "rate.json"), out)
        arts.append("rate.json")
    return {"artifacts": arts, **out}


_ENGINE_FUNCS = {
    "simulate": _engine_simulate,
    "fluid": _engine_fluid,
    "fclt": _engine_fclt,
    "verify": _engine_verify,
    "equilibrium": _engine_equilibrium,
    "rate": _engine_rate,
}


# ---------------------------------------------------------------------------
# run orchestration


def run(config_path, engine=None, force=False, threads=None) -> int:
    """Execute the engine selected by the config; return the exit code."""
    try:
        cfg = load_config(config_path, engine=engine)
        workers = _resolve_threads(threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = os.environ.get("EPILIM_OUTDIR") or cfg.directory
    if os.path.isdir(outdir) and os.listdir(outdir) and not force:
        print(f"output directory '{outdir}' is not empty; "
              "pass --force to reuse it", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(outdir, exist_ok=True)

    start = time.perf_counter()
    try:
        report = _ENGINE_FUNCS[cfg.engine](cfg, outdir, workers)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NotImplementedError as e:  # a RuntimeError, but a config asked for it
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL

    manifest = {
        "engine": cfg.engine,
        "config": cfg.canonical,
        "config_sha256": cfg.sha256,
        "master_seed": cfg.master_seed,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "epilim": __version__},
        "wall_time_s": time.perf_counter() - start,
        "artifacts": report.pop("artifacts"),
        "report": report,
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)

    if report.get("passed") is False:
        print(f"check failed: see {os.path.join(outdir, 'manifest.json')}",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _resolve_threads(threads):
    if threads is None:
        raw = os.environ.get("EPILIM_THREADS")
        if raw is None:
            return 1
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(
                f"EPILIM_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError("thread cap must be at least 1")
    return threads


# ---------------------------------------------------------------------------
# describe

_DESCRIPTIONS = {
    "SIS": """\
SIS: susceptible <-> infectious, reinfection allowed.

Mean-field limit (fractions of the population):
  Sbar(t) = 1 - Ibar(t)
  Ibar(t) = Ibar(0) Fc0(t) + int_0^t Fc(t-s) lam(s) Sbar(s) Ibar(s) ds

F is the infectious-period cdf (survival Fc); F0 is the residual law of
the initially infectious (survival Fc0).

Required laws:
  f  : infectious period
  f0 : residual infectious period for the initial pool; defaults to the
       stationary excess of f

Conventions: Sbar(t) + Ibar(t) = 1 at every time; the initial state is
(1 - i0, i0); counts in a population of n scale as n * fraction.""",
    "SIR": """\
SIR: susceptible -> infectious -> recovered.

Mean-field limit (fractions of the population):
  Sbar(t) = Sbar(0) - int_0^t lam(s) Sbar(s) Ibar(s) ds
  Ibar(t) = Ibar(0) Fc0(t) + int_0^t Fc(t-s) lam(s) Sbar(s) Ibar(s) ds
  Rbar(t) = Rbar(0) + Ibar(0) F0(t) + int_0^t F(t-s) lam(s) Sbar(s) Ibar(s) ds

F is the infectious-period cdf (survival Fc); F0 is the residual law of
the initially infectious.

Required laws:
  f  : infectious period
  f0 : residual infectious period for the initial pool; defaults to the
       stationary excess of f

Conventions: Sbar + Ibar + Rbar = 1; the initial state is (1 - i0, i0, 0).""",
    "SEIR": """\
SEIR: susceptible -> exposed -> infectious -> recovered.

h is the joint law of (exposure period, infectious period) with marginal
cdfs G and F.  Stage kernels built from h (and Phi0, Psi0 from the
residual law h0 of the initially exposed):
  Phi(t) = P(xi + eta <= t)         recovered by t
  Psi(t) = P(xi <= t < xi + eta)    exposed at 0, infectious at t

Mean-field limit (fractions of the population):
  Sbar(t) = Sbar(0) - int_0^t lam(s) Sbar(s) Ibar(s) ds
  Ebar(t) = Ebar(0) Gc0(t) + int_0^t Gc(t-s) lam(s) Sbar(s) Ibar(s) ds
  Ibar(t) = Ibar(0) Fc0(t) + Ebar(0) Psi0(t)
          + int_0^t Psi(t-s) lam(s) Sbar(s) Ibar(s) ds
  Rbar(t) = 1 - Sbar(t) - Ebar(t) - Ibar(t)

Required laws:
  h  : joint law of (exposure, infectious); independent product or
       bucketed conditionals
  h0 : joint residual law for the initially exposed; defaults to the
       stationary excess of the exposure marginal paired with the
       infectious marginal (needs h independent)
  f0 : residual infectious law for the initially infectious; defaults to
       the stationary excess of the infectious marginal

Conventions: the initial state is (1 - i0 - e0, e0, i0, 0).""",
    "SIRS": """\
SIRS: susceptible -> infectious -> recovered -> susceptible.

h is the joint law of (infectious period, immune period) with marginal
cdfs F and G.  Stage kernels built from h (and Phi0, Psi0 from the
residual law h0 of the initially infectious):
  Phi(t) = P(eta + chi <= t)        back in S by t
  Psi(t) = P(eta <= t < eta + chi)  infectious at 0, immune at t

Mean-field limit (fractions of the population):
  Ibar(t) = Ibar(0) Fc0(t) + int_0^t Fc(t-s) lam(s) Sbar(s) Ibar(s) ds
  Rbar(t) = Ibar(0) Psi0(t) + Rbar(0) Gc0(t)
          + int_0^t Psi(t-s) lam(s) Sbar(s) Ibar(s) ds
  Sbar(t) = 1 - Ibar(t) - Rbar(t)

Required laws:
  h  : joint law of (infectious, immune); independent product or
       bucketed conditionals
  h0 : joint residual law for the initially infectious; defaults to the
       stationary excess of the infectious marginal paired with the
       immune marginal (needs h independent)
  f0 : residual immunity law for the initially immune; defaults to the
       stationary excess of the immune marginal

Conventions: the initial state is (1 - i0 - r0, i0, r0).""",
}


def describe(kind) -> str:
    """Render the limit equations and law requirements for a model kind."""
    if kind not in _DESCRIPTIONS:
        raise ValueError(f"unknown kind {kind!r}")
    return _DESCRIPTIONS[kind]


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors, not numerical ones
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="epilim",
                     description="epidemic simulation and limit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for eng in ENGINES:
        p = sub.add_parser(eng, help=f"run the {eng} engine from a config")
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--force", action="store_true",
                       help="reuse a non-empty output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker cap for ensemble engines")
    p = sub.add_parser("describe",
                       help="print the limit equations for a model kind")
    p.add_argument("kind", help="one of SIS, SIR, SIRS, SEIR")

    args = parser.parse_args(argv)
    if args.command == "describe":
        try:
            print(describe(args.kind))
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        return EXIT_OK
    return run(args.config, engine=args.command, force=args.force,
               threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
