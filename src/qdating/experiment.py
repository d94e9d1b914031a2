"""Reproduction harnesses: amplitude traces and (P_c, P_q) sweep surfaces.

Outputs are plot-ready CSV only.  Every float is printed with 12
significant digits and rows end with a bare newline, so a rerun with the
same inputs is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridShapeError
from .game import GameConfig, GameStats, WomanProfile, expected_dt, run_match
from .statevector import OracleSpec, grover_amplitudes


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


# Largest grid side.  ``run_sweep`` keeps every row in memory, so a side of
# 1001 (10**6 cells) bounds both its time and its memory.
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
        return np.linspace(0.0, 1.0, self.grid_points)


@dataclass(frozen=True)
class SweepRow:
    p_c: float
    p_q: float
    d_over_t_measured: float
    d_over_t_expected: float
    trials: int


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
ENGINE = "philox-cell-5"


def cell_rng(seed: int, i: int, j: int) -> np.random.Generator:
    """Counter-based per-cell stream: cell (i, j) selects the Philox counter.

    The cell sits in the two high counter words and draws advance the two
    low ones, so no two cells' streams overlap.  Streams are independent of
    evaluation order, so cells can be computed concurrently without
    perturbing results.
    """
    return np.random.Generator(
        np.random.Philox(key=seed % 2**128, counter=(i << 192) | (j << 128))
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One match per grid cell, rows in row-major (P_c outer) order."""
    cfg = spec.config
    grid = spec.grid()
    rows = []
    for i, p_c in enumerate(grid):
        for j, p_q in enumerate(grid):
            woman = WomanProfile(
                target=0, p_accept_classic=float(p_c), p_accept_quantum=float(p_q)
            )
            stats = run_match(cfg, woman, rng=cell_rng(cfg.seed, i, j))
            rows.append(
                SweepRow(
                    p_c=float(p_c),
                    p_q=float(p_q),
                    d_over_t_measured=stats.d_over_t,
                    d_over_t_expected=expected_dt(cfg, woman),
                    trials=cfg.trials,
                )
            )
    return rows


def _grid_axes(rows: list[SweepRow]) -> tuple[list[float], list[float]]:
    p_cs = sorted({row.p_c for row in rows})
    p_qs = sorted({row.p_q for row in rows})
    if len(rows) != len(p_cs) * len(p_qs):
        raise GridShapeError(
            f"{len(rows)} rows do not form a {len(p_cs)}x{len(p_qs)} grid"
        )
    expected_order = [(pc, pq) for pc in p_cs for pq in p_qs]
    if [(r.p_c, r.p_q) for r in rows] != expected_order:
        raise GridShapeError("rows are not in row-major (p_c outer) grid order")
    return p_cs, p_qs


def sign_boundary(rows: list[SweepRow]) -> list[tuple[float, float]]:
    """D/T = 0 contour of the expected surface, one point per P_q column.

    For each grid P_q > 0, linearly interpolates P_c at the first sign
    change of ``d_over_t_expected`` scanning P_c upward; columns with no
    sign change contribute nothing.
    """
    p_cs, p_qs = _grid_axes(rows)
    by_cell = {(r.p_c, r.p_q): r.d_over_t_expected for r in rows}
    boundary = []
    for p_q in p_qs:
        if p_q <= 0.0:
            continue
        column = [by_cell[(p_c, p_q)] for p_c in p_cs]
        for a, b, d_a, d_b in zip(p_cs, p_cs[1:], column, column[1:]):
            if d_a == 0.0:
                boundary.append((p_q, a))
                break
            if (d_a > 0.0) != (d_b > 0.0):
                zero = a + (b - a) * d_a / (d_a - d_b)
                boundary.append((p_q, zero))
                break
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


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            f"{format_float(r.p_c)},{format_float(r.p_q)},"
            f"{format_float(r.d_over_t_measured)},"
            f"{format_float(r.d_over_t_expected)},{r.trials}"
        )
    return "\n".join(lines) + "\n"


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


def write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)
