#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

For every workload and end-to-end metric this prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json. With
``--out`` the summary is written as JSON (the committed baselines under
``perfbench/results/``).

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/BENCH_x.json
    python3 perfbench/spread.py --workloads stream_faulted --seeds 1-5
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--label", default="", help="free text stored in --out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    seeds = seed_list(args.seeds)

    summary = {"label": args.label, "seeds": seeds, "seconds": seconds,
               "trace": args.trace, "workloads": {}}
    for w in workloads:
        runs = []
        for s in seeds:
            r = run_once(bench["command"], w, s, seconds, args.trace)
            if not r["correct"]:
                raise SystemExit(f"{w} seed {s}: incorrect result")
            runs.append(r)
            print(f"  {w} seed {s}: " + ", ".join(
                f"{d['name']}={r['metrics'][d['name']]['value']:.6g}"
                for d in defs[:6]), flush=True)
        table = {}
        print(f"{w}:")
        for d in defs:
            values = [r["metrics"][d["name"]]["value"] for r in runs]
            st = summarise(values) if len(values) >= 2 else {"median": values[0]}
            st["unit"] = d["unit"]
            table[d["name"]] = st
            bound = d.get("bound")
            flag = ""
            if bound is not None and "spread" in st:
                flag = "ok" if st["spread"] < bound / 3 else (
                    "WIDE" if st["spread"] > bound else "over bound/3")
            print(f"  {d['name']:<34} median {st['median']:<14.6g} "
                  f"q1 {st.get('q1', 0):<14.6g} q3 {st.get('q3', 0):<14.6g} "
                  f"spread {st.get('spread', 0):<8.4f} bound {bound} {flag}")
        summary["workloads"][w] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": table,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
