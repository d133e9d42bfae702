#!/usr/bin/env python3
"""Steadiness and host-noise report for the benchmark.

Runs one workload several times, each with another seed, and prints for
every metric its median, quartiles and quartile spread as a share of the
median. End-to-end metrics whose spread exceeds a tenth, or a third of
the bound BENCHMARK.json gives them, are flagged. Each run's host record
(load average, CPU steal, GOMAXPROCS, Go version) is listed so that an
outlier can be explained. Run it from the repository root:

    python3 perfbench/steady.py --workload paper-suite --runs 10
    python3 perfbench/steady.py --workload msd-jobs --runs 5 --trace 1
    python3 perfbench/steady.py --workload ci-grid --out a.json
    python3 perfbench/steady.py --workload ci-grid --against a.json

--out saves the raw values; --against compares this set's medians with a
saved set's, the way a regression check compares two commits.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    host = {}
    for line in p.stderr.splitlines():
        if line.startswith("perfbench: host "):
            host = json.loads(line[len("perfbench: host "):])
    return res, host


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run; run i uses seed0+i")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="save the raw values as JSON")
    ap.add_argument("--against", help="compare medians with values saved by --out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values, units, hosts = {}, {}, []
    for i in range(args.runs):
        res, host = run_once(args.workload, args.seed0 + i, seconds, args.trace)
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {args.seed0 + i}: incorrect result {res}")
        hosts.append(host)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{args.runs} seed {args.seed0 + i}: ops {res['attempted']}, "
              f"load {host.get('loadavg', ['?'])[0]}, steal {host.get('steal_frac', 0):.4f}, "
              f"wall {host.get('wall_s', 0):.1f}s, GOMAXPROCS {host.get('gomaxprocs')}, {host.get('go')}",
              flush=True)

    prior = {}
    if args.against:
        with open(args.against) as f:
            prior = json.load(f)["values"]
    print(f"\n{'metric':34} {'unit':12} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in sorted(values):
        med, q1, q3, s = spread(values[name])
        flag = ""
        if name in bounds:
            if s > 0.1:
                flag += " SPREAD>0.1"
            if s > bounds[name] / 3:
                flag += f" over a third of bound {bounds[name]}"
        if name in prior:
            pm = statistics.median(prior[name])
            flag += f" vs {pm:.6g} ({(med - pm) / pm:+.1%})" if pm else ""
        print(f"{name:34} {units[name]:12} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.1%}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "values": values, "hosts": hosts}, f, indent=1)


if __name__ == "__main__":
    main()
