"""Spans recorded from outside the package by rebinding module names.

The package modules look their collaborators up as module globals at call
time (``epilim.cli`` calls ``solve_fluid`` through its own namespace), so
replacing such a name with a timing wrapper records a span around every
call without touching the package.  ``Tracer.installed`` rebinds the names
for the length of a ``with`` block and restores them afterwards; outside
it the package runs untouched.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
import tracemalloc


def path_events(p) -> int:
    """Exact number of events of one simulated run, from its first and last
    grid rows (the last row is the state at the horizon)."""
    a = int(p.A[-1] - p.A[0])
    entries_i = int(p.L[-1] - p.L[0])  # onsets; equal to A except for SEIR
    exits_i = entries_i - int(p.I[-1] - p.I[0])
    events = a + exits_i + (entries_i if p.kind == "SEIR" else 0)
    if p.kind == "SIRS":
        events += exits_i - int(p.R[-1] - p.R[0])  # immune -> susceptible
    return events


def _count_ensemble(args, kwargs, out):
    paths, logs = out if kwargs.get("keep_logs") else (out, None)
    events = (sum(len(lg) for lg in logs) if logs is not None
              else sum(path_events(p) for p in paths))
    return {"reps": len(paths), "events": events}


def _count_fluid(args, kwargs, out):
    d = out.diagnostics
    horizon = float(out.grid[-1])
    return {"nodes": int(round(horizon / d["dt"])) + 1,
            "halvings": int(d.get("halvings", 0)),
            "max_iterations": int(d.get("max_iterations", 0))}


def _count_sample(args, kwargs, out):
    paths = kwargs.get("paths", args[3] if len(args) > 3 else 1)
    return {"paths": int(paths)}


def _count_reconstruct(args, kwargs, out):
    return {"events": len(args[0])}


ENS, FINE, MANY = "ensemble", "fine_grid", "many_paths"

# (module, name, span name, counter, record tracemalloc peak, workloads
# meant to exercise it: each must record a span there)
TARGETS = (
    ("epilim.cli", "simulate_ensemble", "agent_sim.simulate_ensemble",
     _count_ensemble, False, {ENS}),
    ("epilim.harness", "simulate_ensemble", "agent_sim.simulate_ensemble",
     _count_ensemble, False, {ENS}),
    ("epilim.cli", "convergence_rate", "harness.convergence_rate",
     None, False, {ENS}),
    ("epilim.cli", "empirical_cov", "harness.empirical_cov",
     None, False, {ENS}),
    ("epilim.cli", "solve_fluid", "fluid.solve_fluid",
     _count_fluid, False, {FINE, MANY}),
    ("epilim.harness", "solve_fluid", "fluid.solve_fluid",
     _count_fluid, False, {ENS}),
    ("epilim.cli", "solve_markovian_ode", "fluid.solve_markovian_ode",
     None, False, {FINE}),
    ("epilim.cli", "verify_equilibrium_identities",
     "equilibria.verify_equilibrium_identities", None, False, {FINE}),
    ("epilim.cli", "DriverCovariance", "fclt.DriverCovariance",
     None, False, {FINE, MANY}),
    ("epilim.cli", "sample_drivers", "fclt.sample_drivers",
     _count_sample, True, {FINE, MANY}),
    ("epilim.cli", "solve_fclt_path", "fclt.solve_fclt_path",
     None, False, {FINE, MANY}),
    ("epilim.fluid", "tabulate_kernels", "distributions.tabulate_kernels",
     None, False, {FINE, MANY}),
    ("epilim.fclt", "tabulate_kernels", "distributions.tabulate_kernels",
     None, False, {MANY}),  # the fine_grid fclt step is SIS: no kernels
    ("epilim.fclt", "solve_linear_volterra", "fluid.solve_linear_volterra",
     None, False, {FINE, MANY}),
    # the benchmark's own calls in the drivers step
    ("steps", "simulate_ensemble", "agent_sim.simulate_ensemble",
     _count_ensemble, False, {ENS}),
    ("steps", "solve_fluid", "fluid.solve_fluid", _count_fluid, False, {ENS}),
    ("steps", "reconstruct_drivers", "harness.reconstruct_drivers",
     _count_reconstruct, False, {ENS}),
    ("steps", "driver_cov_matrix", "fclt.DriverCovariance",
     None, False, {ENS}),
)


def missing_targets(workload: str, seen: set) -> list[str]:
    """Rebound names meant to run on the workload that recorded no span."""
    return [f"{m}.{a}" for m, a, _, _, _, wls in TARGETS
            if workload in wls and f"{m}.{a}" not in seen]


class Tracer:
    """In-memory span recorder.

    Each span is a dict with its name, start, end, parent index (None for a
    root), step name and counts.  Spans nest strictly because the benchmark
    runs single-threaded with ``workers=1``.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.step = None

    @contextlib.contextmanager
    def span(self, name, via=None):
        rec = {"name": name, "via": via, "step": self.step, "counts": {},
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, via, counter, peak):
        def traced(*args, **kwargs):
            with self.span(name, via) as rec:
                if peak:
                    tracemalloc.start()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    if peak:
                        rec["counts"]["peak_bytes"] = \
                            tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            if counter is not None:
                rec["counts"].update(counter(args, kwargs, out))
            return out
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target name to a traced wrapper, then restore.

        A name the package no longer has is skipped; the coverage guard
        then reports it as missing.
        """
        saved = []
        try:
            for modname, attr, name, counter, peak, _ in TARGETS:
                mod = importlib.import_module(modname)
                via = f"{modname}.{attr}"
                if not hasattr(mod, attr):
                    continue
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, name, via, counter, peak))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


def layer_metrics(tracer: Tracer, records: list[dict]) -> dict:
    """Per-layer figures of one traced pass.

    ``records`` are the pass's step records; the bytes the CLI wrote and
    the verify error come from their output checks.  A time or rate of a
    layer with no span reads ``None``: it is missing, not zero.  Work
    counts of such a layer are zero.
    """
    spans, selfs = tracer.spans, tracer.self_times()
    infos = [r["info"] for r in records]

    def of(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def busy(name):
        idx = of(name)
        return float(sum(selfs[i] for i in idx)) if idx else None

    def count(name, field):  # work done: zero when the layer never ran
        return sum(spans[i]["counts"].get(field, 0) for i in of(name))

    def ratio(a, b):
        return a / b if a is not None and b else None

    m = {}
    m["agent_sim.busy_s"] = busy("agent_sim.simulate_ensemble")
    m["agent_sim.events"] = count("agent_sim.simulate_ensemble", "events")
    m["agent_sim.reps"] = count("agent_sim.simulate_ensemble", "reps")
    m["agent_sim.events_per_s"] = ratio(m["agent_sim.events"],
                                        m["agent_sim.busy_s"])
    m["harness.reconstruct_s"] = busy("harness.reconstruct_drivers")
    m["harness.reconstruct_events_per_s"] = ratio(
        count("harness.reconstruct_drivers", "events"),
        m["harness.reconstruct_s"])
    m["harness.convergence_rate_self_s"] = busy("harness.convergence_rate")
    m["harness.empirical_cov_s"] = busy("harness.empirical_cov")
    m["distributions.tabulate_kernels_s"] = busy(
        "distributions.tabulate_kernels")
    m["distributions.tabulate_kernels_calls"] = len(
        of("distributions.tabulate_kernels"))
    m["fluid.solve_s"] = busy("fluid.solve_fluid")
    m["fluid.nodes"] = count("fluid.solve_fluid", "nodes")
    m["fluid.nodes_per_s"] = ratio(m["fluid.nodes"], m["fluid.solve_s"])
    m["fluid.max_iterations"] = max(
        (spans[i]["counts"]["max_iterations"]
         for i in of("fluid.solve_fluid")), default=0)
    m["fluid.halvings"] = count("fluid.solve_fluid", "halvings")
    m["fluid.ode_s"] = busy("fluid.solve_markovian_ode")
    m["fluid.verify_sup_err"] = next(
        (i["verify_sup_err"] for i in infos if "verify_sup_err" in i), None)
    m["fluid.linear_volterra_s"] = busy("fluid.solve_linear_volterra")
    m["fclt.cov_build_s"] = busy("fclt.DriverCovariance")
    m["fclt.sample_s"] = busy("fclt.sample_drivers")
    m["fclt.paths"] = count("fclt.sample_drivers", "paths")
    m["fclt.sample_paths_per_s"] = ratio(m["fclt.paths"], m["fclt.sample_s"])
    peaks = [spans[i]["counts"]["peak_bytes"]
             for i in of("fclt.sample_drivers")]
    m["fclt.sample_peak_mb"] = max(peaks) / 2**20 if peaks else None
    m["fclt.solve_s"] = busy("fclt.solve_fclt_path")
    m["equilibria.verify_s"] = busy("equilibria.verify_equilibrium_identities")

    cli_roots = [i for i, s in enumerate(spans)
                 if s["parent"] is None and s["name"].startswith("cli.")]
    m["cli.self_s"] = (float(sum(selfs[i] for i in cli_roots))
                       if cli_roots else None)
    m["cli.bytes_written"] = sum(i.get("bytes_written", 0) for i in infos)

    # every step is one root span, so the self times of its spans add up
    # to its wall time; "accounted" is that sum over the step's wall time
    steps = {}
    for r in records:
        name, wall = r["name"], r["wall_s"]
        own = [i for i, s in enumerate(spans) if s["step"] == name]
        by_layer: dict = {}
        for i in own:
            layer = spans[i]["name"]
            by_layer[layer] = by_layer.get(layer, 0.0) + selfs[i]
        steps[name] = {"engine": r["engine"], "wall_s": wall,
                       "accounted": sum(by_layer.values()) / wall,
                       "self_s": by_layer}
    return {"metrics": m, "steps": steps, "spans": len(spans),
            "seen": sorted({s["via"] for s in spans if s["via"]})}


def median_metrics(passes: list[dict]) -> dict:
    """Per-metric median over traced passes; None stays None and counts
    stay whole numbers."""
    out = {}
    for k in passes[0]:
        vals = [p[k] for p in passes if p[k] is not None]
        if not vals:
            out[k] = None
        elif all(isinstance(v, int) for v in vals):
            out[k] = statistics.median_low(vals)
        else:
            out[k] = statistics.median(vals)
    return out
