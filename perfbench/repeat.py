"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads paper-figs grover-20q game2-10q \\
        --seeds 1-10 --out perfbench/results/seed.json

For every end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  Run it from the root of
a qdating checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", help="write every run's result and the summary here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= done.returncode == 0 and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median}
            bound = bounds.get(name)
            print(f"  {workload} {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {summary[name]['spread']:.4f}"
                  + (f" (bound {bound}, a third is {bound / 3:.4f})" if bound else ""),
                  flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
