"""One workload process: set up, run passes of the steps, check, report.

Usage: python3 worker.py PLAN.json [--setup-only]

Set-up ends when ``epilim.cli`` is imported and every config has passed
``load_config``; the worker then writes ``ready`` to stdout, which is how
run.py times set-up from outside.  With --setup-only it exits there.  The
benchmark's own modules import nothing heavy that epilim does not, so they
add no set-up time of their own.

Each pass runs every step once, with the same configs and seeds, so all
passes must write byte-identical CSVs.  Passes repeat until the next one
would end after the measuring time (at least two).  In a traced run the
passes alternate untraced and traced; the per-layer figures come from the
traced ones and the tracing overhead from the difference.
"""

import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np

from epilim import cli

import hostspeed
import spans
import steps

HARD_LIMIT_S = 140.0  # run.py must exit within 180 s of its launch


def machine_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    nproc = len(os.sched_getaffinity(0))
    blas_threads = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    workers = int(os.environ.get("EPILIM_THREADS", 1))
    return {"nproc": nproc, "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "blas": blas,
            "blas_threads": blas_threads, "workers": workers,
            "oversubscribed": blas_threads > nproc or workers > nproc}


def run_pass(plan, configs, index, tracer):
    """Run every step once; return per-step records.

    A host speed probe runs before the first step and after every step, so
    that each record holds the two probes that bracket its step.
    """
    records = []
    outroot = os.path.join(plan["outroot"], f"pass{index}")
    probe = hostspeed.probe()
    for st in plan["steps"]:
        name, engine = st["name"], st["engine"]
        cfg = configs[name]
        outdir = os.path.join(outroot, name)
        rec = {"name": name, "engine": engine, "error": None, "info": {},
               "hashes": {}}
        scope = contextlib.nullcontext()
        if tracer is not None:
            tracer.step = name
            scope = tracer.span("bench.drivers" if engine == "drivers"
                                else f"cli.{engine}")
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with scope:
                if engine == "drivers":
                    out = steps.run_drivers(cfg)
                else:
                    out = steps.run_cli(engine, st["config_path"], outdir)
        except Exception:  # a step that raises counts as failed
            rec["error"] = traceback.format_exc(limit=3)
        rec["wall_s"] = time.perf_counter() - start
        rec["cpu_s"] = time.process_time() - cpu
        rec["probe_s"] = [probe, hostspeed.probe()]
        probe = rec["probe_s"][1]
        records.append(rec)
        if rec["error"] is not None:
            continue
        try:
            if engine == "drivers":
                rec["info"] = steps.check_drivers(out)
            elif out != 0:
                raise steps.CheckFailed(f"exit code {out}")
            else:
                rec["info"], rec["hashes"] = steps.check_outputs(
                    engine, cfg, outdir, plan["reference"].get(name))
        except steps.CheckFailed as e:
            rec["error"] = f"check failed: {e}"
        except (OSError, ValueError, KeyError) as e:
            rec["error"] = f"unreadable output: {e!r}"
    shutil.rmtree(outroot, ignore_errors=True)
    return records


def run_passes(plan, configs):
    hostspeed.probe()  # the first call is slow: numpy and the heap warm up
    t0 = time.perf_counter()
    passes = []
    while True:
        index = len(passes)
        tracer = spans.Tracer() if plan["trace"] and index % 2 else None
        start = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            records = run_pass(plan, configs, index, tracer)
        p = {"traced": tracer is not None, "records": records,
             "wall_s": sum(r["wall_s"] for r in records),
             "cpu_s": sum(r["cpu_s"] for r in records),
             "duration_s": time.perf_counter() - start}
        if tracer is not None:
            p["layers"] = spans.layer_metrics(tracer, records)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        typical = float(np.median([q["duration_s"] for q in passes]))
        if len(passes) >= 2 and (elapsed + typical > plan["seconds"]
                                 or elapsed + 2 * typical > HARD_LIMIT_S):
            break

    # a CSV that differs from the first pass fails that step
    first = {r["name"]: r["hashes"] for r in passes[0]["records"]}
    for p in passes[1:]:
        for r in p["records"]:
            ref = first[r["name"]]
            if r["error"] is None and ref and r["hashes"] != ref:
                r["error"] = "CSV bytes differ from the first pass"
    return passes


def main():
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    configs = {s["name"]: cli.load_config(s["config_path"])
               for s in plan["steps"]}
    print("ready", flush=True)
    if "--setup-only" in sys.argv:
        return
    sys.stdout = sys.stderr  # run.py only reads the ready line
    result = {"passes": run_passes(plan, configs), "machine": machine_facts(),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
