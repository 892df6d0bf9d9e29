"""Record reference.json: basis-independent invariants of a fixed (seed, op) subset.

Run from the root of a checkout; the gate of every later run compares the same
ops against this file at the stated tolerance:

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

import gate
import run
import specgen

SEED = 7
INDICES = {"evolve_dense": (0, 1), "structure_quiver": (0, 1),
           "small_specs": tuple(specgen.SMALL_SCHEDULE.index(s)  # first op of each shape
                                for s in dict.fromkeys(specgen.SMALL_SCHEDULE))}
TOLERANCE = 1e-9  # relative, with an absolute floor of the same size


def main() -> int:
    root = Path.cwd()
    env = run.worker_env()
    doc = {"seed": SEED, "tolerance": TOLERANCE,
           "machine": run.machine_facts(root, env), "workloads": {}}
    for workload, indices in INDICES.items():
        runner = run.OpRunner(root, workload)
        entries = []
        try:
            worker = None
            for index in indices:
                op = specgen.generate(workload, SEED, index)
                calls, expect = runner.prepare(op)
                if worker is None:
                    worker = run.Worker(root, env, calls)
                    reply = worker.setup_reply
                else:
                    reply = worker.request({"op": index, "calls": calls, "trace": False})
                problems = runner.check(op, calls, expect, reply)
                if problems:
                    print(f"{workload} op {index}: {problems}", file=sys.stderr)
                    return 1
                entries.append({"index": index, "invariants": gate.invariants(op, runner.out)})
            worker.quit()
        finally:
            runner.close()
        doc["workloads"][workload] = entries
    (run.HERE / "reference.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
