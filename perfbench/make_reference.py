"""Regenerate reference.json: fclt variances from high-path runs.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/make_reference.py

Each fclt step of every workload is run once through ``epilim fclt`` with
the step's own config but many more paths and a fixed seed.  The variance
of each compartment with a nonzero limit variance is stored at two probe
nodes, mid-horizon and the horizon; the benchmark checks its own fclt
outputs against them with an F-test (steps.variance_pull).  The check does
not depend on the sampler's random stream, so the reference stays valid
when the sampler changes.  Takes a few minutes on one core.
"""

import json
import os
import sys
import tempfile

import numpy as np

from epilim import cli

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS, build_steps  # noqa: E402

REF_PATHS = {"fclt_sis": 2000, "fclt_sir": 20000, "fclt_seir": 6000,
             "fclt_sirs": 6000}
REF_SEED = 20240601
COLUMNS = {"SIS": ["var_Ihat"], "SIR": ["var_Shat", "var_Ihat", "var_Rhat"],
           "SEIR": ["var_Shat", "var_Ehat", "var_Ihat", "var_Rhat"],
           "SIRS": ["var_Shat", "var_Ihat", "var_Rhat"]}


def main():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for w in WORKLOADS:
            for st in build_steps(w, 0, tmp):
                if st["engine"] != "fclt":
                    continue
                doc = st["config"]
                doc["ensemble"] = {"reps": REF_PATHS[st["name"]],
                                   "master_seed": REF_SEED}
                path = os.path.join(tmp, st["name"] + ".json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                if cli.main(["fclt", path]) != 0:
                    sys.exit(f"fclt failed for {st['name']}")
                csv = os.path.join(doc["output"]["directory"], "fclt.csv")
                with open(csv) as fh:
                    header = fh.readline().strip().split(",")
                a = np.loadtxt(csv, delimiter=",", skiprows=1)
                last = len(a) - 1
                nodes = [last // 2, last]
                kind = doc["model"]["kind"]
                out[st["name"]] = {
                    "paths": REF_PATHS[st["name"]], "seed": REF_SEED,
                    "nodes": nodes, "t": [float(a[k, 0]) for k in nodes],
                    "var": {c: [float(a[k, header.index(c)]) for k in nodes]
                            for c in COLUMNS[kind]}}
                print(st["name"], out[st["name"]]["var"], flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
