#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/spread.py --workload hashtable_hifreq --seeds 1-10 \
        [--seconds 25] [--summary out.json]

It runs the end-to-end form (--trace 0) once per seed. For every
metric it prints the median over the seeds and the spread:
the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. --summary writes the same
figures, with every value, as JSON (the format of the committed
baselines under perfbench/baseline/). Runs are sequential; one run
failing stops the sweep with its exit status.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--summary", help="write the per-metric summary here")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    series, units = {}, {}
    seeds = parse_seeds(args.seeds)
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        report = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        for name, m in report["metrics"].items():
            series.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={report['correct']}", file=sys.stderr)

    summary = {}
    print(f"{'metric':<36} {'median':>16} {'IQR/median':>11} {'bound':>6}")
    for name, values in series.items():
        med, rel = spread(values)
        summary[name] = {"unit": units[name], "median": med,
                         "iqr_over_median": rel, "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None or rel <= bound / 3 else "  <- above bound/3"
        print(f"{name:<36} {med:>16.6g} {rel:>11.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    if args.summary:
        Path(args.summary).write_text(json.dumps(
            {"workload": args.workload, "seeds": seeds,
             "seconds": seconds, "metrics": summary}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
