"""Run the benchmark in alternating pairs from two trees and write a
BENCH_*.json record of the runs, their medians and quartiles.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --seeds 23011-23020 \
        --out BENCH_23.json --claim fine_grid.wall_quiet_s \
        --trace fine_grid --trace-seeds 23021-23025 --parent-rev SHA

Each tree is a checkout (a copy is enough; no git is needed). Every seed
runs the benchmark command of the change tree's BENCHMARK.json with
``--workload all --seed SEED --trace 0`` once in each tree, the parent
first on odd seeds. Each tree's ``__pycache__`` directories are removed
before every run, so that neither side starts from compiled modules that
the other lacks. With ``--trace`` the named workload also runs traced
(``--trace 1``) on the trace seeds, alternating the same way, and its
per-layer figures and per-step self times are recorded as printed (raw
seconds, not scaled to a quiet host). The record is rewritten after every
run. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _clear_caches(tree):
    for root, dirs, _ in os.walk(tree):
        if ".git" in dirs:
            dirs.remove(".git")
        if "__pycache__" in dirs:
            dirs.remove("__pycache__")
            shutil.rmtree(os.path.join(root, "__pycache__"))


def _run(tree, command, workload, seed, trace):
    _clear_caches(tree)
    cmd = command + ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _host(lines):
    line = next(x for x in lines if x.startswith("# machine "))
    f = dict(kv.split("=", 1) for kv in line[len("# machine "):].split(" ") if "=" in kv)
    cpu = line.split("cpu=", 1)[1].split("' ", 1)[0].strip("'")
    return (f"{f['nproc']} vCPU {cpu}, Python {f['python']}, numpy {f['numpy']}, "
            f"scipy {f['scipy']}, {f['blas_threads']} BLAS thread(s), "
            f"{f['workers']} CLI worker(s)")


def _traced_figures(lines):
    """Every printed layer figure, and each step's self times as
    self_s.STEP.SPAN."""
    out = {}
    for line in lines:
        parts = line.split()
        if line.startswith("layer ") and parts[2] != "not":
            out[parts[1]] = float(parts[2])
        elif line.startswith("trace ") and "self_s:" in parts:
            for kv in parts[parts.index("self_s:") + 1:]:
                span, value = kv.split("=")
                out[f"self_s.{parts[1]}.{span}"] = float(value)
    return out


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}


def summarize(runs, metrics):
    """{workload: {metric: parent and change quartiles, the pairs where the
    change is lower, the median's relative move, the parent's relative
    spread}} over the seeds that both sides ran."""
    seeds = [s for s in runs["parent"] if s in runs["change"]]
    out = {}
    for name in metrics:
        a = [runs["parent"][s][name] for s in seeds]
        b = [runs["change"][s][name] for s in seeds]
        pa, pb = _quartiles(a), _quartiles(b)
        workload, metric = name.split(".", 1)
        out.setdefault(workload, {})[metric] = {
            "parent": pa, "change": pb,
            "change_lower_in": sum(y < x for x, y in zip(a, b)),
            "median_rel": round(pb["median"] / pa["median"] - 1.0, 4),
            "parent_iqr_rel": round((pa["q3"] - pa["q1"]) / pa["median"], 4),
        }
    return out


def _sides(seed):
    return ("parent", "change") if seed % 2 else ("change", "parent")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", required=True, help="FIRST-LAST, one pair per seed")
    ap.add_argument("--out", required=True)
    ap.add_argument("--claim", help="WORKLOAD.METRIC that the change claims to improve")
    ap.add_argument("--trace", help="a workload to run traced as well")
    ap.add_argument("--trace-seeds", default="", help="FIRST-LAST for the traced runs")
    ap.add_argument("--parent-rev", help="the parent's commit, for the record")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    command = bench["command"]
    seeds = _seeds(args.seeds)
    metrics = [f"{w['name']}.{m['name']}" for w in bench["workloads"] for m in bench["end_to_end"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.claim and args.claim not in metrics:
        ap.error(f"--claim must be one of {', '.join(metrics)}")
    runs = {"parent": {}, "change": {}}
    record = {
        "description": "Paired benchmark runs, parent commit -> this change: medians "
                       "and quartiles per workload and end-to-end metric",
        "parent": args.parent_rev,
        "command": " ".join(command + ["--workload", "all", "--seed", "SEED", "--trace", "0"]),
        "host": None,
        "pairs": 0,
        "seeds": seeds,
        "order": "alternating: the parent ran first on odd seeds; each side ran from a "
                 "copy of its tree with its __pycache__ removed before every run",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {},
    }
    if args.claim:
        workload, metric = args.claim.split(".", 1)
        record["claim"] = {"workload": workload, "metric": metric,
                           "direction": better[metric]}

    def write():
        done = [s for s in seeds if s in runs["parent"] and s in runs["change"]]
        record["pairs"] = len(done)
        for key in ("failed", "attempted"):
            record[key] = {side: sum(r[key] for r in runs[side].values()) for side in runs}
        record["correct"] = {side: sum(r["correct"] for r in runs[side].values())
                             for side in runs}
        if len(done) >= 2:
            record["workloads"] = summarize(runs, metrics)
        record.pop("runs", None)  # last, after the summaries and the traced runs
        record["runs"] = {side: {str(s): r for s, r in runs[side].items()} for side in runs}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")

    for seed in seeds:
        for side in _sides(seed):
            res, lines = _run(trees[side], command, "all", seed, 0)
            record["host"] = record["host"] or _host(lines)
            runs[side][seed] = dict({k: round(v["value"], 4) for k, v in res["metrics"].items()},
                                    failed=res["failed"], attempted=res["attempted"],
                                    correct=res["correct"])
            print(f"{side} seed {seed}: " + " ".join(
                f"{m}={runs[side][seed][m]}" for m in metrics if m.endswith("wall_quiet_s")),
                file=sys.stderr)
            write()
    if args.trace:
        traced = []
        record["trace"] = {
            "command": " ".join(command + ["--workload", args.trace, "--seed", "SEED",
                                           "--trace", "1"]) + f", seeds {args.trace_seeds} "
                       "alternating (parent first on odd seeds)",
            "note": "traced figures are raw seconds, not scaled to a quiet host; "
                    "self_s.STEP.SPAN is the self time of SPAN in STEP",
            f"{args.trace}_medians": {},
            "runs": traced,
        }
        for seed in _seeds(args.trace_seeds):
            for side in _sides(seed):
                _, lines = _run(trees[side], command, args.trace, seed, 1)
                traced.append(dict(side=side, seed=seed, workload=args.trace,
                                   **_traced_figures(lines)))
                medians = {}
                for s in runs:
                    rows = [r for r in traced if r["side"] == s]
                    keys = [k for k in rows[0] if k not in ("side", "seed", "workload")
                            and all(k in r for r in rows)] if rows else []
                    medians[s] = {k: round(statistics.median(r[k] for r in rows), 5)
                                  for k in keys}
                record["trace"][f"{args.trace}_medians"] = medians
                write()
    write()


if __name__ == "__main__":
    main()
