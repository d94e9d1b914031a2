"""The three benchmark workloads and the checks on their outputs.

A workload is one pass of ``qdating`` CLI calls, built from the benchmark
seed alone.  Every pass of a run replays the same inputs, so its outputs
must repeat byte for byte; every call's output is also checked against
the paper's closed forms, which this file computes itself:

* Grover find probability after k iterates:  sin^2((2k+1) * asin(1/sqrt(N)))
* classic memoryless find chance, k guesses: 1 - (1 - P_c/N)^k
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

TRACE_HEADER = "iteration,p_target,p_other_each,amp_target"
SWEEP_HEADER = "p_c,p_q,d_over_t,d_over_t_expected,trials"
BOUNDARY_HEADER = "p_q,p_c_zero"

# A correct engine with any RNG stream fails a run's Monte Carlo checks
# with probability below this (union bound over the tests of one pass).
RUN_FALSE_ALARM = 1e-3


def grover_probability(N: int, iterations: int) -> float:
    theta = math.asin(1.0 / math.sqrt(N))
    return math.sin((2 * iterations + 1) * theta) ** 2


def classic_find(N: int, attempts: int, p_c: float) -> float:
    return 1.0 - (1.0 - p_c / N) ** attempts


class MatchCheck:
    """Bernstein bound on Monte Carlo deviations, tracked as z-scores.

    Per turn, X = Q - C has mean q - c and variance q(1-q) + c(1-c), with
    |X - mean| <= 2.  For a sum of such turns, Bernstein's inequality gives
    the deviation that a correct engine exceeds with a chosen probability.
    Unlike a fixed normal z bound, it stays valid for the skewed cells
    (q or c near 0), whose binomial tails are heavier than a normal's.
    Where the variance is 0 the outcome is deterministic and must be exact.
    """

    def __init__(self, tests_per_pass: int):
        self.log_term = math.log(2.0 * tests_per_pass / RUN_FALSE_ALARM)
        self.max_abs_z = 0.0
        self.worst_share = 0.0  # largest |deviation| as a share of its bound
        self.grid_sum_z = 0.0  # diagnostic only, see check_sweep

    def error(self, measured: float, q: float, c: float, trials: int) -> str | None:
        """One match's D/T against q - c; None when it is within the bound."""
        deviation = abs(measured - (q - c)) * trials
        variance = trials * (q * (1.0 - q) + c * (1.0 - c))
        if variance == 0.0:
            if deviation < 1e-6:
                return None
            return f"D/T {measured} != {q - c} where the standard error is 0"
        L = self.log_term
        bound = 2.0 * L / 3.0 + math.sqrt((2.0 * L / 3.0) ** 2 + 2.0 * L * variance)
        z = deviation / math.sqrt(variance)
        self.max_abs_z = max(self.max_abs_z, z)
        self.worst_share = max(self.worst_share, deviation / bound)
        if deviation > bound:
            z_bound = bound / math.sqrt(variance)
            return f"D/T {measured} vs expected {q - c:.6g}: |z| = {z:.2f} > {z_bound:.2f}"
        return None


def _lines(path: str) -> list[str]:
    with open(path, newline="") as fh:
        return fh.read().split("\n")


def _near(text: str, value: float, tol: float) -> bool:
    try:
        return abs(float(text) - value) <= tol
    except ValueError:
        return False


def check_trace(path: str, n_qubits: int, iterations: int) -> list[str]:
    """Each fig3 row against the closed form, to 1e-10."""
    lines = _lines(path)
    if lines[0] != TRACE_HEADER or lines[-1] != "" or len(lines) != iterations + 3:
        return [f"{path}: expected header and {iterations + 1} rows"]
    N = 2**n_qubits
    errors = []
    for k, line in enumerate(lines[1:-1]):
        row = line.split(",")
        p = grover_probability(N, k)
        if len(row) != 4 or row[0] != str(k):
            errors.append(f"{path} row {k}: malformed {line!r}")
        elif not _near(row[1], p, 1e-10) or not _near(row[2], (1.0 - p) / (N - 1), 1e-10):
            errors.append(f"{path} row {k}: {line!r} != p_target {p:.12g}")
    return errors


def sweep_expected(variant: int, n_qubits: int, grid: int):
    """(p_c, p_q, q, c) per cell in row-major order, q and c per turn.

    Sweeps run with the CLI's default of one Grover iterate.
    """
    N = 2**n_qubits
    attempts = 1 if variant == 1 else N // 2
    p_g = grover_probability(N, 1)
    for i in range(grid):
        for j in range(grid):
            p_c, p_q = i / (grid - 1), j / (grid - 1)
            yield p_c, p_q, p_g * p_q, classic_find(N, attempts, p_c)


def check_sweep(
    path: str, variant: int, n_qubits: int, grid: int, trials: int, mc: MatchCheck
) -> list[str]:
    """Grid points, analytic column and every cell's measured D/T."""
    lines = _lines(path)
    if lines[0] != SWEEP_HEADER or lines[-1] != "" or len(lines) != grid * grid + 2:
        return [f"{path}: expected header and {grid * grid} rows"]
    errors = []
    deviation = variance = 0.0
    cells = sweep_expected(variant, n_qubits, grid)
    for line, (p_c, p_q, q, c) in zip(lines[1:-1], cells):
        row = line.split(",")
        where = f"{path} cell p_c={p_c:g} p_q={p_q:g}"
        if (
            len(row) != 5
            or not _near(row[0], p_c, 1e-12)
            or not _near(row[1], p_q, 1e-12)
            or row[4] != str(trials)
        ):
            errors.append(f"{where}: malformed {line!r}")
        elif not _near(row[3], q - c, 1e-10):
            errors.append(f"{where}: d_over_t_expected {row[3]} != {q - c:.12g}")
        elif not _near(row[2], round(float(row[2]) * trials) / trials, 1e-12):
            errors.append(f"{where}: D/T {row[2]} is not a count over {trials}")
        else:
            problem = mc.error(float(row[2]), q, c, trials)
            if problem:
                errors.append(f"{where}: {problem}")
            deviation += (float(row[2]) - (q - c)) * trials
            variance += trials * (q * (1.0 - q) + c * (1.0 - c))
    # A bias too small to show in one cell would show in the z of the sum
    # over the grid, if cells were independent.  They are not: the Philox
    # counters of cells (i, j) and (i, j + 1) differ by one block, so a
    # row's cells share almost all their draws.  Each cell's distribution is
    # still right, so the sum is reported, not checked.
    if variance > 0.0:
        mc.grid_sum_z = max(mc.grid_sum_z, abs(deviation) / math.sqrt(variance))
    return errors


def check_boundary(path: str, variant: int, n_qubits: int, grid: int) -> list[str]:
    """Zero contour of the analytic surface, interpolated as fig5 defines it."""
    cells = list(sweep_expected(variant, n_qubits, grid))
    expected = []
    for j in range(1, grid):
        column = [cells[i * grid + j] for i in range(grid)]
        for (a, p_q, qa, ca), (b, _, qb, cb) in zip(column, column[1:]):
            d_a, d_b = qa - ca, qb - cb
            if d_a == 0.0:
                expected.append((p_q, a))
                break
            if (d_a > 0.0) != (d_b > 0.0):
                expected.append((p_q, a + (b - a) * d_a / (d_a - d_b)))
                break
    lines = _lines(path)
    if lines[0] != BOUNDARY_HEADER or lines[-1] != "" or len(lines) != len(expected) + 2:
        return [f"{path}: expected header and {len(expected)} contour points"]
    errors = []
    for line, (p_q, p_c) in zip(lines[1:-1], expected):
        row = line.split(",")
        if len(row) != 2 or not _near(row[0], p_q, 1e-12) or not _near(row[1], p_c, 1e-9):
            errors.append(f"{path}: {line!r} != {p_q:.12g},{p_c:.12g}")
    return errors


@dataclass
class Step:
    """One CLI call; ``check`` gets its stdout and returns what is wrong."""

    argv: list[str]
    outputs: list[str]
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    steps: list[Step]
    warmup: list[list[str]]  # untimed; holds a pass's largest arrays
    turns_per_pass: int
    match_check: MatchCheck
    reference: str  # the reference.py kernel its pass times are scaled by
    snapshots: dict[str, bytes] = field(default_factory=dict)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def paper_figs(seed: int, out: str) -> Workload:
    """The A9 pipeline: fig3 trace, fig4/fig5 sweeps with the contour, reruns."""
    rnd = random.Random(seed)
    target, seed4, seed5 = rnd.randrange(2**10), rnd.getrandbits(63), rnd.getrandbits(63)
    fig3, fig4, fig5, contour = (
        os.path.join(out, name)
        for name in ("fig3.csv", "fig4.csv", "fig5.csv", "fig5_boundary.csv")
    )
    grid, trials = 21, 1000
    mc = MatchCheck(tests_per_pass=2 * grid * grid)
    wl = Workload(
        [], [], turns_per_pass=4 * grid * grid * trials, match_check=mc,
        reference="interpreter",
    )

    def keep(paths: list[str], errors: list[str]) -> list[str]:
        for path in paths:
            wl.snapshots[path] = _read(path)
        return errors

    def same_as_kept(paths: list[str]) -> list[str]:
        return [
            f"rerun changed {p}" for p in paths if _read(p) != wl.snapshots.pop(p, None)
        ]

    def sweep(variant: int, csv: str, sweep_seed: int, extra: list[str]) -> list[str]:
        return [
            "sweep", "--variant", str(variant), "--qubits", "3", "--grid", str(grid),
            "--trials", str(trials), "--seed", str(sweep_seed), "--out", csv, *extra,
        ]

    outs3, outs4 = [fig3, fig3 + ".manifest"], [fig4, fig4 + ".manifest"]
    outs5 = [fig5, fig5 + ".manifest", contour]
    wl.steps = [
        Step(
            ["trace", "--qubits", "10", "--target", str(target), "--iterations", "30",
             "--out", fig3],
            outs3,
            lambda _: keep(outs3, check_trace(fig3, 10, 30)),
        ),
        Step(
            sweep(1, fig4, seed4, []),
            outs4,
            lambda _: keep(outs4, check_sweep(fig4, 1, 3, grid, trials, mc)),
        ),
        Step(
            sweep(2, fig5, seed5, ["--boundary-out", contour]),
            outs5,
            lambda _: keep(
                outs5,
                check_sweep(fig5, 2, 3, grid, trials, mc)
                + check_boundary(contour, 2, 3, grid),
            ),
        ),
    ] + [
        Step(["rerun", "--manifest", o[1]], o, lambda _, o=o: same_as_kept(o))
        for o in (outs3, outs4, outs5)
    ]
    wl.warmup = [step.argv for step in wl.steps]
    return wl


def grover_20q(seed: int, out: str) -> Workload:
    """One game-1 match at N = 2^20 with the optimal 804 iterates."""
    rnd = random.Random(seed)
    target = rnd.randrange(2**20)
    p_c, p_q = rnd.randrange(1, 20) / 20, rnd.randrange(1, 20) / 20
    game_seed = rnd.getrandbits(63)
    N, iterations, trials = 2**20, 804, 100_000
    mc = MatchCheck(tests_per_pass=1)

    def argv(k: int, t: int) -> list[str]:
        return [
            "game", "--variant", "1", "--qubits", "20", "--grover-iterations", str(k),
            "--trials", str(t), "--pc", repr(p_c), "--pq", repr(p_q),
            "--seed", str(game_seed), "--target", str(target),
        ]

    def check(stdout: str) -> list[str]:
        row = stdout.strip().split(",")
        if (
            len(row) != 9
            or row[:2] != ["1", str(N)]
            or not _near(row[2], p_c, 1e-12)
            or not _near(row[3], p_q, 1e-12)
            or row[4] != str(trials)
            or row[8] != str(game_seed)
        ):
            return [f"game row {stdout.strip()!r} does not echo its inputs"]
        c_wins, q_wins = int(row[5]), int(row[6])
        if not _near(row[7], (q_wins - c_wins) / trials, 1e-12):
            return [f"game row {stdout.strip()!r}: D/T is not (Q - C)/T"]
        q = grover_probability(N, iterations) * p_q
        problem = mc.error(float(row[7]), q, classic_find(N, 1, p_c), trials)
        return [f"game row: {problem}"] if problem else []

    return Workload(
        [Step(argv(iterations, trials), [], check)],
        warmup=[argv(8, trials)],
        turns_per_pass=trials,
        match_check=mc,
        reference="sweep",
    )


def game2_10q(seed: int, out: str) -> Workload:
    """A game-2 sweep at N = 1024: 441 cells of 1000 x 512 classic guesses."""
    sweep_seed = random.Random(seed).getrandbits(63)
    csv = os.path.join(out, "game2.csv")
    grid, trials = 21, 1000
    mc = MatchCheck(tests_per_pass=grid * grid)

    def argv(g: int) -> list[str]:
        return [
            "sweep", "--variant", "2", "--qubits", "10", "--grid", str(g),
            "--trials", str(trials), "--seed", str(sweep_seed), "--out", csv,
        ]

    return Workload(
        [Step(argv(grid), [csv, csv + ".manifest"],
              lambda _: check_sweep(csv, 2, 10, grid, trials, mc))],
        warmup=[argv(2)],
        turns_per_pass=grid * grid * trials,
        match_check=mc,
        reference="rng",
    )


WORKLOADS = {"paper-figs": paper_figs, "grover-20q": grover_20q, "game2-10q": game2_10q}
