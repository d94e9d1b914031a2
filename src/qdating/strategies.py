"""Scalar reference proposers: the quantum searcher and two classic ones.

Nothing in the engine calls them.  The tests play turns with them, one
proposal at a time, as the reference that ``game.turn_rates`` and
``run_match`` are judged against; ``ClassicStrategy``, which picks C's
search, lives in ``qdating.game``.

The quantum proposer re-prepares a fresh uniform state on every call and
collapses it after the amplification steps; nothing carries over between
attempts.  The classic proposers either guess uniformly with replacement
(memoryless) or walk the register without replacement within one turn
(sweep, the brute-force style search).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SweepExhaustedError
from .kernel import OracleSpec
from .statevector import measure, run_grover


@dataclass
class SweepState:
    """Indices already proposed in the current turn; reset every turn."""

    visited: set[int] = field(default_factory=set)

    def reset(self) -> None:
        self.visited.clear()


def quantum_propose(
    n_qubits: int,
    oracle: OracleSpec,
    iterations: int,
    rng: np.random.Generator,
) -> int:
    """Amplify from a fresh uniform state, then collapse to one index."""
    return measure(run_grover(n_qubits, oracle, iterations), rng)


def classic_memoryless_propose(N: int, rng: np.random.Generator) -> int:
    """Uniform guess in [0, N); no state between calls."""
    return int(rng.integers(0, N))


def classic_sweep_propose(N: int, sweep: SweepState, rng: np.random.Generator) -> int:
    """Uniform guess among indices not yet visited this turn."""
    remaining = [i for i in range(N) if i not in sweep.visited]
    if not remaining:
        raise SweepExhaustedError(f"all {N} indices already visited this turn")
    choice = remaining[int(rng.integers(0, len(remaining)))]
    sweep.visited.add(choice)
    return choice
