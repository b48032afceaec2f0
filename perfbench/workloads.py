"""Workload definitions: the steps of each workload, built from a seed.

Every step is a JSON config for one ``epilim`` engine, except ``drivers``,
which the benchmark runs itself on the public API because no engine
reconstructs drivers from event logs.  The seed only sets the
``master_seed`` of each step; the model, grid and ensemble sizes are fixed,
so that reference values and work counts do not depend on it.

Why these three workloads:

* ``ensemble``: the event loop (``agent_sim``) and event-log reconstruction
  (``harness``) dominate; fluid solves are few and coarse, and nothing is
  sampled from the fluctuation limit.  A change to the limit solvers should
  leave it unchanged.
* ``fine_grid``: a few fluid solves on long, fine grids, where the O(N^2)
  history sums, kernel tabulation and per-grid set-up dominate.  Its one
  ``fclt`` step has few paths, so per-path speed bought with set-up shows
  as a loss here.
* ``many_paths``: ``fclt`` on short grids with many paths, where driver
  sampling (per-path cost) dominates and fluid solves are below 1%.
"""

from __future__ import annotations

import random


def _d(family, *params):
    return {"family": family, "params": list(params)}


LOGN = _d("LogNormal", -0.125, 0.5)
GAMMA22 = _d("Gamma", 2.0, 2.0)
EXP1 = _d("Exponential", 1.0)
UNI13 = _d("Uniform", 1.0, 3.0)
UNI0515 = _d("Uniform", 0.5, 1.5)

# (name, engine, model, grid, ensemble sizes, probes)
_STEPS = {
    "ensemble": [
        ("simulate_sir", "simulate",
         {"kind": "SIR", "lam": 1.5, "i0": 0.05, "f": LOGN},
         (8.0, 0.05), {"n": 20_000, "reps": 10}, [2.0, 4.0]),
        ("simulate_seir", "simulate",
         {"kind": "SEIR", "i0": 0.02, "e0": 0.02,
          "lam": {"times": [0.0, 3.0, 6.0], "values": [2.0, 0.8, 1.5]},
          "h": {"g": GAMMA22, "f": UNI0515}},
         (10.0, 0.05), {"n": 20_000, "reps": 5}, [5.0]),
        ("simulate_sirs", "simulate",
         {"kind": "SIRS", "lam": 1.5, "i0": 0.05, "r0": 0.1,
          "h": {"g": EXP1, "f": UNI13}},
         (20.0, 0.1), {"n": 10_000, "reps": 3}, [10.0]),
        ("rate_sir", "rate",
         {"kind": "SIR", "lam": 1.5, "i0": 0.05, "f": GAMMA22},
         (5.0, 0.05), {"n": [200, 2000, 20_000], "reps": 20}, []),
        ("drivers_sir", "drivers",
         {"kind": "SIR", "lam": 1.5, "i0": 0.05, "f": EXP1},
         (2.0, 0.05), {"n": 10_000, "reps": 100}, [0.5, 1.0, 2.0]),
    ],
    "fine_grid": [
        ("fluid_sirs", "fluid",
         {"kind": "SIRS", "lam": 1.5, "i0": 0.01,
          "h": {"g": _d("Gamma", 3.0, 3.0), "f": UNI13}},
         (300.0, 0.01), {}, [100.0, 300.0]),
        ("fluid_seir", "fluid",
         {"kind": "SEIR", "lam": 1.6, "i0": 0.01, "e0": 0.02,
          "h": {"g": GAMMA22, "bucket_centers": [0.5, 1.0, 2.0],
                "bucket_dists": [LOGN, _d("Weibull", 2.0, 1.0), GAMMA22]},
          "h0": {"g": {"equilibrium_of": GAMMA22},
                 "f": _d("Weibull", 2.0, 1.0)},
          "f0": {"equilibrium_of": _d("Weibull", 2.0, 1.0)}},
         (40.0, 0.002), {}, [20.0]),
        ("fluid_sis_deterministic", "fluid",
         {"kind": "SIS", "lam": 2.0, "i0": 0.05,
          "f": _d("Deterministic", 1.0)},
         (20.0, 0.001), {}, [10.0]),
        ("verify_seir", "verify",
         {"kind": "SEIR", "lam": 1.5, "i0": 0.05, "e0": 0.05,
          "h": {"g": EXP1, "f": EXP1}},
         (15.0, 0.001), {}, []),
        ("equilibrium_sirs", "equilibrium",
         {"kind": "SIRS", "lam": 2.0, "i0": 0.05,
          "h": {"g": GAMMA22, "f": UNI13}},
         (20.0, 0.01), {}, []),
        ("fclt_sis", "fclt",
         {"kind": "SIS", "lam": 2.0, "i0": 0.3, "f": GAMMA22},
         (5.0, 0.005), {"reps": 16}, []),
    ],
    "many_paths": [
        ("fclt_sir", "fclt",
         {"kind": "SIR", "lam": 1.5, "i0": 0.05, "f": LOGN},
         (8.0, 0.05), {"reps": 2000}, [4.0]),
        ("fclt_seir", "fclt",
         {"kind": "SEIR", "lam": 1.5, "i0": 0.05, "e0": 0.05,
          "h": {"g": UNI0515, "f": LOGN}},
         (6.0, 0.1), {"reps": 150}, []),
        ("fclt_sirs", "fclt",
         {"kind": "SIRS", "lam": 1.5, "i0": 0.05, "r0": 0.1,
          "h": {"g": EXP1, "f": UNI13}},
         (6.0, 0.1), {"reps": 150}, []),
    ],
}

WORKLOADS = tuple(_STEPS)

# How strongly each workload's step times follow the host speed index
# (hostspeed.py): the exponent that gave the smallest run-to-run spread over
# 20 runs of each workload on a loaded 2-vCPU host, where the index ranged
# from 1.2 to 2.  The event loop is interpreter-bound and slows a little
# more than the probe; driver sampling spends most of its time inside numpy
# and slows about half as much.  (The least-squares slopes of log step time
# on log index, 1.0, 0.6 and 0.4, are biased low by the probe's own noise.)
SENSITIVITY = {"ensemble": 1.2, "fine_grid": 0.7, "many_paths": 0.5}


def build_steps(workload: str, seed: int, outroot: str) -> list[dict]:
    """The workload's steps with configs whose seeds derive from ``seed``.

    Returns a list of ``{"name", "engine", "config"}``; ``config`` is the
    JSON document the engine reads (``drivers`` uses the same layout).
    """
    if workload not in _STEPS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    steps = []
    for name, engine, model, (horizon, dt), ens, probes in _STEPS[workload]:
        doc = {
            "engine": "simulate" if engine == "drivers" else engine,
            "model": model,
            "grid": {"horizon": horizon, "dt": dt},
            "output": {"directory": f"{outroot}/{name}"},
        }
        if ens:  # every seeded engine has an ensemble section
            doc["ensemble"] = dict(ens, master_seed=rng.randrange(2**31))
        if probes:
            doc["probes"] = probes
        steps.append({"name": name, "engine": engine, "config": doc})
    return steps
