"""Reproduction harnesses: amplitude traces and (P_c, P_q) sweep surfaces.

C's rate depends on P_c alone and Q's on P_q alone, so a sweep computes
one C column and one Q row; each grid row is then one binomial call on
the row's own Philox stream, so rows are independent of each other.  A
sweep builds one Philox and sets its counter to each row's stream in
turn.  Its ``SweepTable`` holds C's column, Q's row and the measured
D/T, its one G x G array; a cell's expected D/T is Q's rate minus C's,
worked out where it is used.

Only what draws or builds an array imports numpy, inside the function:
``SweepSpec.grid``, ``row_streams``, ``run_sweep`` and ``sign_boundary``.
``amplitude_trace`` and the CSV emitters need only the numpy-free
``qdating.kernel``, so ``trace`` never loads it.

Outputs are plot-ready CSV text only, returned as strings; ``qdating.cli``
writes every file.  Every float is printed with 12 significant digits and
rows end with a bare newline, so a rerun with the same inputs is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ConfigurationError
from .game import GameConfig, GameStats, WomanProfile, classic_rate, quantum_rate
from .kernel import (
    OracleSpec,
    closed_form_probability,
    final_amplitudes,
    grover_amplitudes,
)

if TYPE_CHECKING:
    import numpy as np


def format_float(x: float) -> str:
    """12-significant-digit decimal rendering used by all CSV emitters."""
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class TracePoint:
    """State of the search after ``iteration`` Grover iterates."""

    iteration: int
    p_target: float
    p_other_each: float
    amp_target: float


# Largest grid side.  ``run_sweep`` holds one G x G float array, so a side
# of 1001 (10**6 cells) is 8 MB of table, and the CSV text of ``sweep_csv``
# (about 38 bytes a cell) is what bounds a sweep's memory.
MAX_GRID_POINTS = 1001


@dataclass(frozen=True)
class SweepSpec:
    """``config`` played at every cell of a grid over (P_c outer, P_q inner)."""

    config: GameConfig
    grid_points: int = 21

    def __post_init__(self) -> None:
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            raise ConfigurationError(
                f"grid_points must be in [2, {MAX_GRID_POINTS}], "
                f"got {self.grid_points}"
            )

    def grid(self) -> np.ndarray:
        import numpy as np

        return np.linspace(0.0, 1.0, self.grid_points)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """What a sweep computes: C's column, Q's row and the measured surface.

    Cell (i, j) is P_c = grid[i], P_q = grid[j].  Its expected D/T
    (``expected_dt``) is ``q_rate[j] - c_rate[i]``, and its measured D/T is
    ``measured[i, j]``.
    """

    grid: np.ndarray
    c_rate: np.ndarray  # C's per-turn rate at each P_c
    q_rate: np.ndarray  # Q's per-turn rate at each P_q, closed-form p_G
    measured: np.ndarray  # G x G measured D/T
    trials: int

    # The cell count.  Only tests and ``perfbench/tracing.py`` call it: the
    # tracer counts a sweep's cells as ``len()`` of ``run_sweep``'s result.
    def __len__(self) -> int:
        return self.measured.size


def amplitude_trace(
    n_qubits: int, target: int, max_iterations: int
) -> list[TracePoint]:
    """Exact probability/amplitude evolution for k = 0 .. max_iterations."""
    OracleSpec(target=target, n_qubits=n_qubits)  # checks --target's range
    has_others = n_qubits > 0
    return [
        TracePoint(
            iteration=k,
            p_target=a_t * a_t,
            p_other_each=a_r * a_r if has_others else 0.0,
            amp_target=a_t,
        )
        for k, (a_t, a_r) in enumerate(grover_amplitudes(n_qubits, max_iterations))
    ]


# Tag of the engine, written into every manifest.  Bump it whenever any
# output byte changes, so ``rerun`` refuses manifests it no longer reproduces.
ENGINE = "philox-row-1"


def row_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """Sweep rows' counter-based streams, all drawn from one Philox.

    Row i's stream is ``Philox(key=seed, counter=i << 192)``: the row sits
    in the high counter word and draws advance the low ones, so no two
    rows' streams overlap.  The returned ``row_rng(i)`` sets the one
    generator's counter to ``i << 192`` and empties its buffer, which costs
    far less than building a new Philox.  So row i draws the same numbers
    whichever rows were drawn before it, and rows can be drawn in any
    order.  Every call returns the same generator, so a row's draws end
    before the next row is asked for.
    """
    import numpy as np

    bit_generator = np.random.Philox(key=seed)
    rng = np.random.Generator(bit_generator)
    start = bit_generator.state  # counter 0, nothing buffered
    counter = start["state"]["counter"]

    def row_rng(i: int) -> np.random.Generator:
        counter[3] = i
        bit_generator.state = start
        return rng

    return row_rng


def run_sweep(spec: SweepSpec) -> SweepTable:
    """One match per grid cell, drawn a row at a time.

    C's rate is computed once per P_c and Q's once per P_q, with Q's find
    probability the kernel's a_t**2 for the draws and the closed form for
    the table's ``q_rate``, as in ``run_match`` and ``expected_dt``.  One
    Philox serves the sweep: row i's 2 x G binomial draw (C's then Q's
    successes) comes from ``row_rng(i)`` of ``row_streams(seed)``, the
    generator with its counter set to ``i << 192``.  The target is always
    index 0, which every register holds.
    """
    import numpy as np

    cfg = spec.config
    grid = spec.grid()
    c = [classic_rate(cfg, p_c) for p_c in grid.tolist()]
    a_t, _ = final_amplitudes(cfg.n_qubits, cfg.quantum_iterations)
    p_closed = closed_form_probability(cfg.N, cfg.quantum_iterations)
    measured = np.empty((grid.size, grid.size))
    rates = np.empty((2, grid.size))
    rates[1] = quantum_rate(a_t * a_t, grid)
    row_rng = row_streams(cfg.seed)
    for i, c_i in enumerate(c):
        rates[0] = c_i
        c_successes, q_successes = row_rng(i).binomial(cfg.trials, rates)
        measured[i] = (q_successes - c_successes) / cfg.trials
    q_rate = quantum_rate(p_closed, grid)
    return SweepTable(grid, np.array(c), q_rate, measured, cfg.trials)


def sign_boundary(table: SweepTable) -> list[tuple[float, float]]:
    """D/T = 0 contour of the expected surface, one point per P_q column.

    For each grid P_q > 0, linearly interpolates P_c at the first sign
    change of column j of the expected surface ``q_rate[j] - c_rate[i]``,
    scanning P_c upward; columns with no sign change contribute nothing.
    """
    import numpy as np

    grid = table.grid.tolist()
    d = table.q_rate - table.c_rate[:, None]
    crossing = (d[:-1] == 0.0) | ((d[:-1] > 0.0) != (d[1:] > 0.0))
    boundary = []
    for j in np.flatnonzero(crossing.any(axis=0)).tolist():
        if grid[j] <= 0.0:
            continue
        i = int(crossing[:, j].argmax())
        a, b = grid[i], grid[i + 1]
        d_a, d_b = float(d[i, j]), float(d[i + 1, j])
        zero = a if d_a == 0.0 else a + (b - a) * d_a / (d_a - d_b)
        boundary.append((grid[j], zero))
    return boundary


# -- CSV emitters ------------------------------------------------------------

TRACE_HEADER = "iteration,p_target,p_other_each,amp_target"
SWEEP_HEADER = "p_c,p_q,d_over_t,d_over_t_expected,trials"
BOUNDARY_HEADER = "p_q,p_c_zero"


def trace_csv(points: list[TracePoint]) -> str:
    lines = [TRACE_HEADER]
    for p in points:
        lines.append(
            f"{p.iteration},{format_float(p.p_target)},"
            f"{format_float(p.p_other_each)},{format_float(p.amp_target)}"
        )
    return "\n".join(lines) + "\n"


def sweep_csv(table: SweepTable) -> str:
    """One line per cell, row-major; a row's lines are joined as they are made."""
    axis = [format_float(x) for x in table.grid]
    q_rate = table.q_rate.tolist()
    chunks = [SWEEP_HEADER + "\n"]
    for p_c, c, measured in zip(axis, table.c_rate.tolist(), table.measured):
        # The cell values in ``format_float``'s format.
        chunks.append("".join(
            f"{p_c},{p_q},{m:.12g},{q - c:.12g},{table.trials}\n"
            for p_q, q, m in zip(axis, q_rate, measured.tolist())
        ))
    return "".join(chunks)


def boundary_csv(points: list[tuple[float, float]]) -> str:
    lines = [BOUNDARY_HEADER]
    for p_q, p_c_zero in points:
        lines.append(f"{format_float(p_q)},{format_float(p_c_zero)}")
    return "\n".join(lines) + "\n"


def stats_csv_row(cfg: GameConfig, woman: WomanProfile, stats: GameStats) -> str:
    """Flat CSV row: variant,N,Pc,Pq,T,c_success,q_success,d_over_t,seed."""
    return ",".join(
        [
            str(int(cfg.variant)),
            str(cfg.N),
            format_float(woman.p_accept_classic),
            format_float(woman.p_accept_quantum),
            str(stats.trials),
            str(stats.c_successes),
            str(stats.q_successes),
            format_float(stats.d_over_t),
            str(cfg.seed),
        ]
    )
