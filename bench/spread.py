"""Run the benchmark on several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload scaled --runs 10 --first-seed 1
    python3 bench/spread.py --workload corpus --runs 10 --trace 1 --out FILE

Each run is a fresh `bench/run.py` process with its own seed and the
`run_seconds` of BENCHMARK.json.  For every metric it prints the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`) and
the spread (Q3 - Q1) / median, next to the bound BENCHMARK.json fixes.
With --out it merges the summary into a JSON file keyed by workload and
trace mode, which is how bench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="merge the summary into this JSON file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    metas = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results.append(json.loads(lines[-1]))
        metas.append(json.loads(lines[-2])["meta"])
        values = {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}
        probe = round(metas[-1]["host_probe_ms"]["median"], 3)
        print(f"seed {seed}: {json.dumps(values)} probe_ms {probe}", flush=True)

    summary = {
        "runs": args.runs,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "seconds": seconds,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
        "meta": metas[0],
    }
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, first in results[0]["metrics"].items():
        s = summarise([r["metrics"][name]["value"] for r in results])
        s["unit"] = first["unit"]
        summary["metrics"][name] = s
        bound = bounds.get(name)
        flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
        print(f"{name:28} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
              f"{s['spread']:8.4f} {bound if bound is not None else '':>6}{flag}")
    if args.trace:
        shares = {k: statistics.median(m["layer_share"].get(k, 0.0) for m in metas)
                  for k in metas[0]["layer_share"]}
        summary["layer_share_median"] = shares
        print("layer share (median):", json.dumps({k: round(v, 3) for k, v in shares.items()}))
    print(f"attempted {summary['attempted']} failed {summary['failed']}")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("workloads", {})[f"{args.workload}.trace{args.trace}"] = summary
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
