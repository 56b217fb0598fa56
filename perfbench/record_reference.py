"""Record the correctness gate's reference values at the reference seed.

    python3 perfbench/record_reference.py

Runs every workload once at each size at `workloads.REFERENCE_SEED` and
writes `reference.json`: the sha256 of each match-derived CSV, the
replicator's mean shares and each benchmark's `mu_star`.  Record only from
code whose seeded outputs are known to be right; a change that moves a
digest is a behaviour change.
"""

import json
import os
import sys

from run import REFERENCE, ROOT, WORK, Runner, import_laff

TOLERANCE = {
    # replicator shares are printed with 10 significant digits
    "population_share": 1e-7,
    # relative value iteration stops at a span of 1e-8
    "mu_star": 1e-6,
}


def main():
    os.chdir(ROOT)
    import_laff()
    import workloads
    doc = {"seed": workloads.REFERENCE_SEED, "tolerance": TOLERANCE, "workloads": {}}
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES[name]:
            plan = workloads.build_inputs(name, workloads.REFERENCE_SEED, size,
                                          WORK / name)
            runner = Runner(plan, None)
            runner.iteration()
            if runner.failed:
                sys.exit(f"{name}/{size}: {runner.problems}")
            doc["workloads"].setdefault(name, {})[size] = \
                [runner.records[i] for i in range(len(plan.commands))]
            print(f"recorded {name}/{size}")
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
