"""Record the loss-trace references the fit workloads are checked against.

    python3 perfbench/record_references.py

Run from the root of a source checkout.  Every pool entry of every fit
workload is trained once and the sampled loss trace is written to
``perfbench/references.json``.  Recording is for a commit whose traces
are trusted; a change that alters a trace on purpose must say so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    os.environ["OPENBLAS_NUM_THREADS"] = run.BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = run.BLAS_THREADS
    sys.path.insert(0, str(root / "src"))
    import workloads
    from machine import machine_record

    work_dir = root / ".bench_build" / "perfbench" / f"record-{os.getpid()}"
    doc = {
        "pool": workloads.POOL,
        "seed_rule": "workload seed s uses pool entry s % pool",
        "held_out_seed": 13,
        "machine": machine_record(root, root / "src"),
    }
    for name in ("fit-q4", "fit-classical", "fit-serial6"):
        doc[name] = {}
        for k in range(workloads.POOL):
            workload = workloads.WORKLOADS[name](k, work_dir, None)
            summary = workload.check(workload.call())
            doc[name][str(k)] = workloads.sampled(summary["loss_trace"])
            print(name, k, doc[name][str(k)][-1], flush=True)
    workloads.REFERENCES.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
