"""qdating benchmark: one workload, one run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload paper-figs --seed 1 --seconds 30 --trace 0

Run it from the root of a qdating checkout; it imports ``src/qdating``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The program is single-threaded numpy; one BLAS thread removes scheduler
# noise without changing what it computes.
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 15
SETUP_KERNEL = "interpreter"
DEADLINE_S = 170.0
PROBE = "import time, qdating.cli; qdating.cli.build_parser(); print(time.monotonic())"


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(os.path.join(".git", "HEAD"))
    if head and head.startswith("ref: "):
        return _read(os.path.join(".git", *head[5:].split("/")))
    return head


def cpu_caches() -> dict[str, str]:
    caches = {}
    root = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(root)) if os.path.isdir(root) else []:
        level = _read(os.path.join(root, index, "level"))
        kind = _read(os.path.join(root, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(root, index, "size"))
    return caches


def fingerprint(seed: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        **cpu_caches(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads_inherited": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_threads_pinned": 1,
    }


def setup_seconds(env: dict) -> tuple[list[float], list[float]]:
    """Fresh interpreter to ``qdating.cli`` imported and its parser built.

    One unmeasured probe first, so byte-code compiled on a fresh checkout
    is not counted.  Returns the raw probe times and the same times scaled
    by the interpreter kernel timed around each probe (see reference.py).
    """
    sampler, spans = reference.Sampler(SETUP_KERNEL), []
    for probe in range(SETUP_PROBES + 1):
        sampler.sample()
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        if probe:
            spans.append((start, float(done.stdout.split()[-1])))
    sampler.sample()
    return ([end - start for start, end in spans],
            [sampler.scaled(start, end) for start, end in spans])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "qdating", "cli.py")):
        print("perfbench: src/qdating not found; run from a qdating checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    env.update({var: "1" for var in BLAS_VARS})
    env_info = fingerprint(args.seed)
    try:
        raw_setup, setup = ([], []) if args.trace else setup_seconds(env)
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: importing qdating.cli failed:\n{exc.stderr}", file=sys.stderr)
        return 1

    budget = DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--budget", str(budget - 10.0)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker passed the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
        return 1
    if done.returncode != 0 or not done.stdout.strip():
        print(f"perfbench: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])
    env_info["numpy"] = res["numpy"]

    walls = res["walls"]
    q1, raw_wall, q3 = quartiles(walls)
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} untraced passes, "
          f"raw wall median {raw_wall:.4f} q1 {q1:.4f} q3 {q3:.4f}")
    if not args.trace:
        kernel = res["reference"]
        q1, wall, q3 = quartiles(res["scaled_walls"])
        q1_ref, ref, q3_ref = quartiles(res["kernel_s"])
        print(f"{kernel} kernel: {len(res['kernel_s'])} samples, median {ref:.5f} "
              f"q1 {q1_ref:.5f} q3 {q3_ref:.5f} (nominal {reference.NOMINAL_S[kernel]}); "
              f"scaled wall_s median {wall:.4f} q1 {q1:.4f} q3 {q3:.4f}")
    print(f"Monte Carlo checks: max |z| {res['max_abs_z']:.2f}, worst deviation "
          f"{res['worst_bound_share']:.2f} of its bound; |z| of D/T summed over a "
          f"sweep grid {res['grid_sum_z']:.2f} (not checked: cells share draws)")
    for error in res["errors"]:
        print(f"FAILED {error}")

    if args.trace:
        print(f"traced passes: {len(res['traced_walls'])}, wall_s "
              f"{[round(w, 4) for w in res['traced_walls']]}")
        if res["missing_patch_points"]:
            print(f"patch points not found: {res['missing_patch_points']}")
        units = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        q1, setup_s, q3 = quartiles(setup)
        print(f"setup_s raw median {statistics.median(raw_setup):.4f}; scaled median "
              f"{setup_s:.4f} q1 {q1:.4f} q3 {q3:.4f} over {len(setup)} probes")
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "turns_per_s": {"value": res["turns_per_pass"] / wall, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "success_rate": {
                "value": 1.0 - res["failed"] / res["attempted"], "unit": "ratio"
            },
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print("env " + json.dumps(env_info))
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
