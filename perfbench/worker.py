"""Runs one workload in a fresh interpreter and prints its results as JSON.

Started by ``run.py`` with ``src`` on PYTHONPATH.  One caller drives
``qdating.cli.main(argv)`` in a closed loop: each call waits for the one
before.  After a warm-up, whole passes repeat until ``--seconds`` have
passed; only the CLI calls are timed, and every call's output is checked
after its timer stops.  Untraced passes are also timed at a fixed CPU
speed: the workload's reference kernel is sampled before and after every
pass and every half second inside it (see reference.py).  With
``--trace 1`` traced and untraced passes alternate, starting and ending
traced, so two traced passes can be compared count for count and the
untraced ones give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import reference
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Workload

OUT_ROOT = ".perfbench"
MAX_ERRORS = 5


def call(cli, argv: list[str]) -> tuple[int, str, str, tuple[float, float]]:
    """One timed ``cli.main`` call; a traceback counts as exit code 1.

    Returns the exit code, stdout, stderr and the call's (start, end) on
    the ``time.monotonic`` clock.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.monotonic()
        try:
            code = cli.main(argv)
        except Exception:
            code = 1
            traceback.print_exc()
        end = time.monotonic()
    return code, out.getvalue(), err.getvalue(), (start, end)


class Passes:
    """Runs whole passes of a workload and keeps the failure tally."""

    def __init__(self, cli, workload: Workload):
        self.cli, self.workload = cli, workload
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first_digests: list[str] | None = None
        self.spans: list[tuple[float, float]] = []  # the last pass's calls

    def run(self) -> float:
        """One pass; returns the summed wall time of its CLI calls."""
        wall, digests, self.spans = 0.0, [], []
        for step in self.workload.steps:
            code, stdout, stderr, span = call(self.cli, step.argv)
            wall += span[1] - span[0]
            self.spans.append(span)
            self.attempted += 1
            if code != 0:
                problems = [f"exit {code}: {stderr.strip()}"]
            else:
                try:
                    problems = step.check(stdout)
                except (OSError, ValueError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            digest = hashlib.sha256(stdout.encode())
            for path in step.outputs:
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
            digests.append(digest.hexdigest())
            if self.first_digests and digests[-1] != self.first_digests[len(digests) - 1]:
                problems.append("output differs from an earlier pass with the same inputs")
            if problems:
                self.failed += 1
                self.errors += [f"{step.argv[0]}: {p}" for p in problems]
        if self.first_digests is None:
            self.first_digests = digests
        return wall


def plain_loop(passes: Passes, kernel: str, seconds: float, budget: float) -> dict:
    """Untraced passes, their CLI calls timed raw and at the kernel's speed."""
    sampler = reference.Sampler(kernel)
    start, spans, last = time.monotonic(), [], 0.0
    sampler.sample()
    sampler.start_timer()
    try:
        while not spans or (
            time.monotonic() - start < seconds
            and time.monotonic() - start + last < budget
        ):
            last = passes.run()
            spans.append(passes.spans)
            sampler.sample()
    finally:
        sampler.stop_timer()
    return {
        "walls": [sum(sampler.raw(*call) for call in calls) for calls in spans],
        "scaled_walls": [sum(sampler.scaled(*call) for call in calls) for calls in spans],
        "kernel_s": [seconds for _, _, seconds in sampler.samples],
    }


def traced_loop(passes: Passes, modules: dict, seconds: float, budget: float,
                spans_path: str) -> dict:
    start, walls, traced = time.monotonic(), [], []
    while True:
        if len(traced) <= len(walls):
            tracer = Tracer()
            with tracer.installed(modules):
                traced.append((passes.run(), tracer))
        else:
            walls.append(passes.run())
        elapsed = time.monotonic() - start
        last = traced[-1][0]
        if len(traced) >= 2 and walls and len(traced) > len(walls) and (
            elapsed >= seconds or elapsed + 2 * last > budget
        ):
            break

    first = traced[0][1]
    for _, tracer in traced[1:]:
        if tracer.exact_counts() != first.exact_counts():
            passes.errors.append(
                f"traced counts differ between passes: {first.exact_counts()} "
                f"vs {tracer.exact_counts()}"
            )
            passes.failed += 1
    for wall, tracer in traced:
        self_sum = sum(tracer.self_times().values())
        if abs(self_sum - wall) > 0.05 * wall:
            passes.errors.append(f"self times sum to {self_sum} s, cli.main took {wall} s")
            passes.failed += 1

    # Counts repeat exactly (checked above); times are medians over passes.
    per_pass = [tracer.metrics() for _, tracer in traced]
    layers = {
        metric: statistics.median(m[metric] for m in per_pass) if unit == "s"
        else per_pass[0][metric]
        for metric, unit in LAYER_METRICS
    }
    layers["trace.overhead_s"] = (
        statistics.median(w for w, _ in traced) - statistics.median(walls)
    )
    with open(spans_path, "w") as fh:
        fh.write("# [pass, name, start_s, end_s, parent_index]\n")
        for index, (_, tracer) in enumerate(traced):
            tracer.write_spans(fh, index)
    return {
        "walls": walls,
        "traced_walls": [w for w, _ in traced],
        "layers": layers,
        "missing_patch_points": first.missing,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--budget", type=float, required=True)
    args = parser.parse_args()

    import numpy
    from qdating import cli, experiment, game, statevector, strategies

    src = os.path.realpath("src")
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"qdating imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    out = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
    os.makedirs(out)
    try:
        workload = WORKLOADS[args.workload](args.seed, out)
        for argv in workload.warmup:
            call(cli, argv)
        # Peak memory is read after one warm-up round, which holds a pass's
        # largest arrays, and before the reference kernel first runs, so
        # the kernel's arrays (16 MiB ones for ``sweep``) never count as
        # the program's.  One round is what one CLI process uses; repeated
        # rounds in one process can add allocator memory that the first
        # does not (0 or 7.5 MiB on grover-20q, depending on when it ran).
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference.measure(workload.reference)
        passes = Passes(cli, workload)
        if args.trace:
            modules = {"cli": cli, "experiment": experiment, "game": game,
                       "statevector": statevector, "strategies": strategies}
            spans = os.path.join(OUT_ROOT, f"spans-{args.workload}.jsonl")
            result = traced_loop(passes, modules, args.seconds, args.budget, spans)
        else:
            result = plain_loop(passes, workload.reference, args.seconds, args.budget)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    result.update(
        attempted=passes.attempted,
        failed=passes.failed,
        errors=passes.errors[:MAX_ERRORS],
        turns_per_pass=workload.turns_per_pass,
        reference=workload.reference,
        max_abs_z=workload.match_check.max_abs_z,
        worst_bound_share=workload.match_check.worst_share,
        grid_sum_z=workload.match_check.grid_sum_z,
        peak_rss_mb=peak_rss_mb,
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
