"""Run the benchmark over several seeds and summarise it in one file.

Run from the repository root, for example:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_new.json

Each run is a separate ``perfbench/run.py`` process, one at a time,
with the workloads and run length of ``BENCHMARK.json``.  For every
workload and end-to-end metric the summary holds each seed's value,
the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (interquartile distance over the median), then one traced run
on the first seed for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "seeds": args.seeds,
        "seconds": seconds,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values, failed, attempted = {}, 0, 0
        for seed in _seeds(args.seeds):
            code, record, result = run_once(workload, seed, seconds, 0)
            ok = ok and code == 0 and result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        entry = {"fail_ratio": failed / attempted, "item_mix": record["items_per_class"],
                 "reducible_share": record["reducible_share"], "metrics": {}}
        for name, vals in values.items():
            entry["metrics"][name] = summarise(vals)
            s = entry["metrics"][name]
            print(f"  {workload:13s} {name:13s} median {s['median']:.4f} spread {s['spread']:.4f}"
                  f" (bound {bounds[name]})", flush=True)
        code, record, result = run_once(workload, _seeds(args.seeds)[0], seconds, 1)
        ok = ok and code == 0 and result["correct"]
        entry["traced"] = {"seed": record["seed"], "spans": record["spans"],
                           "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
        summary["workloads"][workload] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
