#!/usr/bin/env python3
"""Record the reference values that bench/run.py checks outputs against.

    python3 bench/make_reference.py

For each sweep workload it runs the workload's config on ``REFERENCE_SEEDS``
fixed seeds and stores, per CSV row, the mean over seeds of ``rate_fb_mean``
and ``rate_zf_mean`` and their seed-to-seed standard deviation.  That spread
holds the Monte Carlo error and, for the ``fixed`` policy, the variation from
one fixed codebook to the next, so a new random-stream version that keeps the
laws passes the check.  For validate it stores the report names.  Takes
several minutes.
"""

from __future__ import annotations

import json
import statistics
import sys

import run
from tracer import Tracer

REFERENCE_SEEDS_FROM = 900_000
REFERENCE_SEEDS = 32


def main() -> int:
    cli = run.load_effchan()
    reference = {}
    with run.work_dir("reference") as work:
        for name, workload in run.WORKLOADS.items():
            config = work / f"{name}.cfg"
            config.write_text(workload.config_text())
            seeds = range(REFERENCE_SEEDS_FROM, REFERENCE_SEEDS_FROM + REFERENCE_SEEDS)
            if workload.command == "validate":
                seeds = seeds[:1]
            outputs = []
            for seed in seeds:
                call = run.run_call(cli, workload, config, seed, work / f"{name}-{seed}",
                                    Tracer("effchan", run.FAILURE_TARGETS))
                if call.code != 0:
                    print(f"{name} seed {seed}: exit {call.code}\n{call.stderr}", file=sys.stderr)
                    return 1
                outputs.append(call.out_dir)
                print(f"{name} seed {seed}: {call.wall_s:.1f}s", file=sys.stderr)
            if workload.command == "validate":
                payload = json.loads((outputs[0] / "validation.json").read_text())
                reference[name] = {"reports": [r["name"] for r in payload["reports"]]}
                continue
            tables = [run.read_csv(out / "sweep.csv") for out in outputs]
            rows = []
            for i, row in enumerate(tables[0][1]):
                entry = {"n_rx": int(row["n_rx"]), "bits": int(row["bits"])}
                for key in ("rate_fb_mean", "rate_zf_mean"):
                    values = [float(table[1][i][key]) for table in tables]
                    entry[key] = statistics.fmean(values)
                    entry[key + "_sd"] = statistics.stdev(values)
                rows.append(entry)
            reference[name] = {"header": tables[0][0], "seeds": len(seeds), "rows": rows}
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
