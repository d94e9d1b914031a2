"""Turn protocols and the D/T comparison statistic.

Two protocols are played between a classic proposer C and a quantum
proposer Q, both courting the same woman.  C moves first in both:

* game 1 — one attempt each per turn;
* game 2 — C gets N/2 attempts per turn, Q still one.

A proposal only succeeds if it hits the woman's index and she then accepts,
with per-proposal probabilities ``p_accept_classic`` / ``p_accept_quantum``.
Success flags are counted independently per turn (both players may succeed
in the same turn), and the headline statistic over T turns is
``d_over_t = (Q successes - C successes) / T``.

Every draw comes from ``row_streams``, which imports numpy; the
configuration types, the rates and ``expected_dt`` need only the
numpy-free ``qdating.kernel``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ConfigurationError
from .kernel import (
    OracleSpec,
    check_iterations,
    check_register,
    closed_form_probability,
    final_amplitudes,
)

if TYPE_CHECKING:
    import numpy as np


class GameVariant(enum.IntEnum):
    GAME1 = 1
    GAME2 = 2


class ClassicStrategy(enum.Enum):
    """C's search: uniform with replacement, or without it within a turn."""

    MEMORYLESS = "memoryless"
    SWEEP = "sweep"


@dataclass(frozen=True)
class WomanProfile:
    """The courted woman: her index and per-player acceptance odds."""

    target: int
    p_accept_classic: float
    p_accept_quantum: float

    def __post_init__(self) -> None:
        for name, flag in (("p_accept_classic", "pc"), ("p_accept_quantum", "pq")):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"{name} ({flag}) must be in [0, 1], got {p}"
                )


@dataclass(frozen=True)
class GameConfig:
    """One match configuration.

    C's attempts per turn follow from the variant and the register, so
    ``classic_attempts_per_turn`` is read, never set.
    """

    n_qubits: int
    variant: GameVariant
    trials: int = 1000
    quantum_iterations: int = 1
    classic_strategy: ClassicStrategy = ClassicStrategy.MEMORYLESS
    seed: int = 0

    def __post_init__(self) -> None:
        check_register(self.n_qubits)
        if self.variant == GameVariant.GAME2 and self.n_qubits < 1:
            raise ConfigurationError(
                f"game 2 gives C N/2 attempts a turn, so it needs n_qubits >= 1, "
                f"got {self.n_qubits}"
            )
        if not 0 <= self.seed < 2**128:  # the key that Philox takes
            raise ConfigurationError(f"seed must be in [0, 2**128), got {self.seed}")
        if not 1 <= self.trials < 2**63:  # the n that numpy's binomial takes
            raise ConfigurationError(f"trials must be in [1, 2**63), got {self.trials}")
        check_iterations(self.n_qubits, self.quantum_iterations)

    @property
    def N(self) -> int:
        return 2**self.n_qubits

    # ``perfbench/tracing.py`` reads this and ``trials`` from ``run_match``'s
    # first argument, ``cfg``, to count the turns and attempts of a match.
    @property
    def classic_attempts_per_turn(self) -> int:
        """C's attempts per turn: 1 in game 1, N/2 in game 2."""
        return 1 if self.variant == GameVariant.GAME1 else self.N // 2


# The tag of every draw's stream, in every manifest.  Bump it when a manifest's
# bytes or the pinned ``game`` row change: ``rerun`` refuses any other tag.
ENGINE = "philox-row-1"


def row_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """The counter-based streams of every draw, all from one Philox.

    Row i's stream is ``Philox(key=seed, counter=i << 192)``: a sweep's
    row i draws from it, and a match from row 0.  The row sits in the high
    counter word and draws advance the low ones, so no two rows' streams
    overlap.  The returned ``row_rng(i)`` sets the one generator's counter
    to ``i << 192`` and empties its buffer, which costs far less than
    building a new Philox.  So row i draws the same numbers whichever rows
    were drawn before it, in any order.  Every call returns the same
    generator, so a row's draws end before the next row is asked for.
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


@dataclass(frozen=True)
class GameStats:
    q_successes: int
    c_successes: int
    trials: int

    @property
    def d_over_t(self) -> float:
        return (self.q_successes - self.c_successes) / self.trials


def classic_rate(cfg: GameConfig, p_c: float) -> float:
    """C's per-turn success rate at acceptance ``p_c``.

    Every hit of C's k attempts gets its own acceptance draw, so
    ``1 - (1 - P_c/N)**k`` (memoryless); without replacement at most one
    hits, so ``(k/N) * P_c`` (sweep).
    """
    k = cfg.classic_attempts_per_turn
    if cfg.classic_strategy == ClassicStrategy.SWEEP:
        return (k / cfg.N) * p_c
    return 1.0 - (1.0 - p_c / cfg.N) ** k


def quantum_rate(p_find: float, p_q: float | np.ndarray) -> float | np.ndarray:
    """Q's per-turn success rate ``p_find * P_q``, element-wise in arrays."""
    return p_find * p_q


def turn_rates(
    cfg: GameConfig, woman: WomanProfile, p_find: float
) -> tuple[float, float]:
    """Per-turn success rates ``(q, c)`` of one match; checks the woman's target."""
    OracleSpec(target=woman.target, n_qubits=cfg.n_qubits)  # the target rule
    return (
        quantum_rate(p_find, woman.p_accept_quantum),
        classic_rate(cfg, woman.p_accept_classic),
    )


def run_match(
    cfg: GameConfig, woman: WomanProfile, rng: np.random.Generator | None = None
) -> GameStats:
    """Play ``cfg.trials`` independent turns and tally both players.

    Turns are independent, so each player's tally is one binomial draw of T
    turns at its ``turn_rates``.  Q's find probability is the Grover
    kernel's a_t**2, not the closed form, so ``expected_dt`` still judges
    it.  Memory and cost do not grow with T or N; results are a pure
    function of (config, profile, rng stream), by default row 0 of
    ``row_streams(cfg.seed)``.
    """
    a_t, _ = final_amplitudes(cfg.n_qubits, cfg.quantum_iterations)
    q, c = turn_rates(cfg, woman, a_t * a_t)  # checks the target before any draw
    if rng is None:
        rng = row_streams(cfg.seed)(0)
    c_successes, q_successes = rng.binomial(cfg.trials, [c, q])
    return GameStats(
        q_successes=int(q_successes), c_successes=int(c_successes), trials=cfg.trials
    )


def expected_dt(cfg: GameConfig, woman: WomanProfile) -> float:
    """Analytic expectation of d_over_t; the Monte Carlo engine's oracle.

    ``q - c`` of ``turn_rates`` with the closed-form find probability after
    the configured iterates.
    """
    p_g = closed_form_probability(cfg.N, cfg.quantum_iterations)
    q, c = turn_rates(cfg, woman, p_g)
    return q - c

