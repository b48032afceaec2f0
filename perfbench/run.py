"""epilim benchmark: run one workload through the CLI engines and report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads are defined in workloads.py.  The workload runs in a fresh worker
process (worker.py) with PYTHONPATH=src, the CLI default of one worker and
one BLAS thread.  With --trace 0 the last stdout line carries the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it carries the
per-layer metrics.  The lines before it print every figure by name and
unit, including those that exist on one workload only.  The full record of
a run is written to .perfbench/results/.

The host's speed swings by up to about 2x over minutes, so the timings
that BENCHMARK.json bounds are scaled to a quiet host with the speed index
of hostspeed.py.  ``wall_quiet_s`` is the sum over steps of each step's
median scaled time over the run's passes.  ``setup_s`` is the median of
SETUP_RUNS set-ups, each scaled by the launch probes that bracket it.  The
unscaled ``wall_s`` and ``setup_raw_s`` are printed beside them, with the
median index of the run's steps as ``host_index``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
from spans import missing_targets, median_metrics  # noqa: E402
from workloads import SENSITIVITY, WORKLOADS, build_steps  # noqa: E402

SETUP_RUNS = 5  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s

# end-to-end step metrics: summed wall time of the steps of one engine
STEP_METRICS = {"simulate": "simulate_s", "rate": "rate_s",
                "drivers": "drivers_s", "fluid": "fluid_s",
                "verify": "verify_s", "fclt": "fclt_s"}

# units of the printed figures, by name suffix; the rest are counts
UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_frac", "ratio"),
         ("_err", "abs"), ("bytes_written", "bytes"), ("_index", "ratio"))


def _unit(name):
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("EPILIM_THREADS", None)  # the CLI default: one worker
    env.pop("EPILIM_OUTDIR", None)
    return env


def _launch(plan_path, env, setup_only, deadline):
    """Run a worker to completion; return its set-up seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        _fail("worker failed during set-up")
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail("worker did not finish in time")
    proc.stdout.close()
    if proc.returncode != 0:
        _fail(f"worker exited with code {proc.returncode}")
    return setup


def run_workload(workload, seed, seconds, trace, bench):
    deadline = time.perf_counter() + DEADLINE_S
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    base = os.path.abspath(".perfbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "configs"))
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    try:
        steps = build_steps(workload, seed, os.path.join(work, "out"))
        for st in steps:
            st["config_path"] = os.path.join(work, "configs",
                                             st["name"] + ".json")
            with open(st["config_path"], "w") as fh:
                json.dump(st.pop("config"), fh, indent=1)
        plan = {"steps": steps, "seconds": seconds, "trace": trace,
                "outroot": os.path.join(work, "out"),
                "result": os.path.join(work, "result.json"),
                "reference": reference}
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        env = _child_env()
        # set-up only, each launch bracketed by launch probes; then the
        # full run
        setups = []
        if not trace:
            probe = hostspeed.launch_probe(env)
            for _ in range(SETUP_RUNS):
                took = _launch(plan_path, env, True, deadline)
                setups.append((took, probe, hostspeed.launch_probe(env)))
                probe = setups[-1][2]
        _launch(plan_path, env, False, deadline)
        with open(plan["result"]) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = summarize(workload, result, setups, trace, bench)
    report.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  setups_s=setups, machine=result["machine"])
    out = os.path.join(base, "results",
                       f"{workload}-seed{seed}-trace{trace}.json")
    with open(out, "w") as fh:
        json.dump({"report": report, "passes": result["passes"]}, fh,
                  indent=1)
    return report


def _quiet(passes, beta, engine=None):
    """Sum over steps (of one engine, or all) of each step's median wall
    time over the passes, every time scaled to the quiet host."""
    return sum(
        statistics.median(
            hostspeed.scaled(r["wall_s"], hostspeed.index(*r["probe_s"]),
                             beta)
            for p in passes for r in p["records"] if r["name"] == name)
        for name in {r["name"]: None for r in passes[0]["records"]
                     if engine in (None, r["engine"])})


def summarize(workload, result, setups, trace, bench):
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    records = [r for p in passes for r in p["records"]]
    failed = [r for r in records if r["error"] is not None]
    beta = SENSITIVITY[workload]
    figures = {
        "wall_quiet_s": _quiet(plain, beta),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "host_index": statistics.median(
            hostspeed.index(*r["probe_s"]) for p in plain
            for r in p["records"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": len(failed) / len(records),
    }
    if setups:
        figures["setup_s"] = statistics.median(
            hostspeed.scaled(t, hostspeed.index(a, b, hostspeed.LAUNCH_REF_S),
                             1.0) for t, a, b in setups)
        figures["setup_raw_s"] = statistics.median(t for t, _, _ in setups)
    for engine, metric in STEP_METRICS.items():
        if any(r["engine"] == engine for r in plain[0]["records"]):
            figures[metric] = _quiet(plain, beta, engine)
    counts = {r["name"]: dict(r["info"], engine=r["engine"],
                              wall_s=r["wall_s"], cpu_s=r["cpu_s"])
              for r in plain[0]["records"]}
    report = {"passes": len(passes), "attempted": len(records),
              "failed": len(failed),
              "errors": [f"{r['name']}: {r['error']}" for r in failed],
              "end_to_end": figures, "counts": counts}
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = median_metrics([p["layers"]["metrics"] for p in traced])
        seen = set().union(*(p["layers"]["seen"] for p in traced))
        missing = missing_targets(workload, seen)
        layers["trace.wall_s"] = statistics.median(p["wall_s"]
                                                   for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - figures["wall_s"]
        layers["trace.spans"] = statistics.median(p["layers"]["spans"]
                                                  for p in traced)
        layers["trace.missing_layers"] = len(missing)
        report.update(per_layer=layers, missing=missing,
                      steps=traced[0]["layers"]["steps"])
    wanted = bench["per_layer" if trace else "end_to_end"]
    values = report["per_layer"] if trace else figures
    report["metrics"] = {m["name"]: {"value": values.get(m["name"]),
                                     "unit": m["unit"]} for m in wanted}
    report["correct"] = not failed
    return report


def print_report(rep):
    m = rep["machine"]
    print(f"# {rep['workload']} seed={rep['seed']} trace={rep['trace']} "
          f"passes={rep['passes']} attempted={rep['attempted']} "
          f"failed={rep['failed']}")
    print(f"# machine nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas={m['blas']!r} blas_threads={m['blas_threads']} "
          f"workers={m['workers']}")
    if m["oversubscribed"]:
        print("# WARNING: worker or BLAS thread count exceeds nproc")
    for name, c in rep["counts"].items():
        extra = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else
                         f"{k}={v}" for k, v in c.items()
                         if k not in ("engine", "wall_s", "bytes_written"))
        print(f"step {name:<24} {c['engine']:<11} {c['wall_s']:9.4f} s  "
              f"{extra}")
    for err in rep["errors"]:
        print(f"# FAILED {err}")
    for name, v in rep["end_to_end"].items():
        print(f"metric {name:<20} {v:.6g} {_unit(name)}")
    if rep["trace"]:
        for name, st in rep["steps"].items():
            ranked = sorted(st["self_s"].items(), key=lambda kv: -kv[1])
            parts = " ".join(f"{k}={v:.4f}" for k, v in ranked)
            print(f"trace {name:<24} wall={st['wall_s']:.4f} s "
                  f"accounted={st['accounted']:.4f} self_s: {parts}")
        for name, v in rep["per_layer"].items():
            shown = "not run" if v is None else f"{v:.6g} {_unit(name)}"
            print(f"layer {name:<36} {shown}")
        for target in rep["missing"]:
            print(f"# MISSING no span from {target}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time; default: run_seconds of "
                         "BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "epilim", "cli.py")):
        _fail("run from the root of an epilim checkout (src/epilim missing)")
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for w in names:
        if len(names) > 1:  # each workload in a fresh process
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   check=True).stdout.splitlines()
            print("\n".join(lines[:-1]))
            rep = json.loads(lines[-1])
            rep["workload"] = w
        else:
            rep = run_workload(w, args.seed, args.seconds, args.trace, bench)
            print_report(rep)
        reports.append(rep)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics}))


if __name__ == "__main__":
    main()
