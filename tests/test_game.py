import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from qdating import (
    ClassicStrategy,
    ConfigurationError,
    GameConfig,
    GameStats,
    GameVariant,
    OracleSpec,
    SizeError,
    SweepState,
    WomanProfile,
    classic_memoryless_propose,
    classic_sweep_propose,
    expected_dt,
    quantum_propose,
    run_match,
)
from qdating.experiment import stats_csv_row
from qdating.game import row_streams, turn_rates
from qdating.kernel import final_amplitudes


def mc_tolerance(trials: int) -> float:
    # Conservative binomial bound: var of the per-turn difference <= 1/2.
    return 4 * math.sqrt(0.5 / trials)


@dataclass(frozen=True)
class TurnOutcome:
    c_success: bool
    q_success: bool


def play_turn(
    cfg: GameConfig, woman: WomanProfile, rng: np.random.Generator
) -> TurnOutcome:
    """Scalar reference turn: C's attempts first, then Q's single shot.

    Plays every proposal with the scalar proposers.  A rejection does not
    end C's turn; every proposal that hits the target triggers an
    independent acceptance draw.
    """
    oracle = OracleSpec(target=woman.target, n_qubits=cfg.n_qubits)
    c_success = False
    sweep = SweepState() if cfg.classic_strategy == ClassicStrategy.SWEEP else None
    for _ in range(cfg.classic_attempts_per_turn):
        if sweep is not None:
            idx = classic_sweep_propose(cfg.N, sweep, rng)
        else:
            idx = classic_memoryless_propose(cfg.N, rng)
        if idx == woman.target and rng.random() < woman.p_accept_classic:
            c_success = True

    q_idx = quantum_propose(cfg.n_qubits, oracle, cfg.quantum_iterations, rng)
    q_success = q_idx == woman.target and rng.random() < woman.p_accept_quantum
    return TurnOutcome(c_success=c_success, q_success=q_success)


class TestConfig:
    def test_defaults_per_variant(self):
        assert GameConfig(3, GameVariant.GAME1).classic_attempts_per_turn == 1
        assert GameConfig(3, GameVariant.GAME2).classic_attempts_per_turn == 4

    def test_attempts_follow_replace(self):
        # The attempts are derived, so a replaced variant or register
        # cannot carry the old count over.
        cfg = GameConfig(3, GameVariant.GAME2)
        assert replace(cfg, variant=GameVariant.GAME1).classic_attempts_per_turn == 1
        assert replace(cfg, n_qubits=5).classic_attempts_per_turn == 16

    def test_game2_single_woman_rejected(self):
        with pytest.raises(ConfigurationError, match="game 2 .* n_qubits >= 1"):
            GameConfig(0, GameVariant.GAME2)

    def test_sweep_cannot_exceed_register(self):
        # C's attempts (at most N/2) are not a parameter, so no config asks
        # the sweep for more attempts than there are indices.
        with pytest.raises(TypeError):
            GameConfig(
                2,
                GameVariant.GAME2,
                classic_attempts_per_turn=5,
                classic_strategy=ClassicStrategy.SWEEP,
            )

    @pytest.mark.parametrize("n_qubits", [-1, 21])
    def test_negative_register_rejected(self, n_qubits):
        with pytest.raises(SizeError):
            GameConfig(n_qubits, GameVariant.GAME1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            GameConfig(3, GameVariant.GAME1, seed=-1)

    def test_seed_past_philox_key_rejected(self):
        # Philox keys are 128 bits; a wider seed would alias a smaller one.
        GameConfig(3, GameVariant.GAME1, seed=2**128 - 1)
        with pytest.raises(ConfigurationError):
            GameConfig(3, GameVariant.GAME1, seed=2**128)

    @pytest.mark.parametrize("iterations", [-1, 29])
    def test_iterations_outside_bound_rejected(self, iterations):
        # 10*sqrt(8) = 28.3: refused at construction, before any cell runs.
        with pytest.raises(ConfigurationError):
            GameConfig(3, GameVariant.GAME1, quantum_iterations=iterations)

    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            WomanProfile(0, 1.2, 0.5)
        with pytest.raises(ConfigurationError):
            WomanProfile(0, 0.5, -0.1)


class TestPlayTurn:
    def test_single_woman_certain(self):
        cfg = GameConfig(0, GameVariant.GAME1)
        woman = WomanProfile(0, 1.0, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            outcome = play_turn(cfg, woman, rng)
            assert outcome.c_success and outcome.q_success

    def test_classic_never_accepted(self):
        cfg = GameConfig(3, GameVariant.GAME1)
        woman = WomanProfile(2, 0.0, 0.6)
        rng = np.random.default_rng(1)
        outcomes = [play_turn(cfg, woman, rng) for _ in range(20_000)]
        assert not any(o.c_success for o in outcomes)
        q_rate = np.mean([o.q_success for o in outcomes])
        assert q_rate == pytest.approx(25 / 32 * 0.6, abs=0.015)

    def test_game2_classic_rate(self):
        cfg = GameConfig(3, GameVariant.GAME2)
        woman = WomanProfile(5, 1.0, 0.0)
        rng = np.random.default_rng(2)
        c_rate = np.mean([play_turn(cfg, woman, rng).c_success for _ in range(20_000)])
        assert c_rate == pytest.approx(1 - (7 / 8) ** 4, abs=0.015)

    def test_target_out_of_range(self):
        cfg = GameConfig(1, GameVariant.GAME1)
        with pytest.raises(ConfigurationError):
            play_turn(cfg, WomanProfile(5, 0.5, 0.5), np.random.default_rng(0))


class TestExpectedDt:
    def test_game1_classic_only_corner(self):
        cfg = GameConfig(3, GameVariant.GAME1)
        assert expected_dt(cfg, WomanProfile(0, 1.0, 0.0)) == pytest.approx(-0.125)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.8, 1.0])
    def test_game1_positive_on_diagonal(self, p):
        cfg = GameConfig(3, GameVariant.GAME1)
        assert expected_dt(cfg, WomanProfile(0, p, p)) > 0

    def test_game2_memoryless_value(self):
        cfg = GameConfig(3, GameVariant.GAME2)
        woman = WomanProfile(0, 0.4, 0.2)
        expected = 25 / 32 * 0.2 - (1 - (1 - 0.4 / 8) ** 4)
        assert expected_dt(cfg, woman) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.02924375, abs=1e-10)

    def test_game2_sweep_value(self):
        cfg = GameConfig(
            3, GameVariant.GAME2, classic_strategy=ClassicStrategy.SWEEP
        )
        woman = WomanProfile(0, 0.6, 0.3)
        assert expected_dt(cfg, woman) == pytest.approx(
            25 / 32 * 0.3 - 0.6 / 2, abs=1e-15
        )


class _NoDraws:
    """An rng stand-in that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the register was checked")


class TestRunMatch:
    def test_oversized_register_fails_before_drawing(self):
        # 21 qubits is past MAX_QUBITS; the register is checked before any
        # draw or state vector.
        with pytest.raises(SizeError):
            cfg = GameConfig(21, GameVariant.GAME2, trials=1000)
            run_match(cfg, WomanProfile(0, 0.5, 0.5), rng=_NoDraws())

    def test_target_fails_before_drawing(self):
        cfg = GameConfig(3, GameVariant.GAME2, trials=1000)
        with pytest.raises(ConfigurationError, match="target 8 out of range"):
            run_match(cfg, WomanProfile(8, 0.5, 0.5), rng=_NoDraws())

    def test_single_woman_threshold(self):
        cfg = GameConfig(0, GameVariant.GAME1, trials=200_000, seed=11)
        woman = WomanProfile(0, 0.8, 0.3)
        stats = run_match(cfg, woman)
        assert stats.d_over_t == pytest.approx(0.3 - 0.8, abs=mc_tolerance(cfg.trials))

    def test_nobody_succeeds(self):
        cfg = GameConfig(3, GameVariant.GAME1, trials=1000, seed=0)
        stats = run_match(cfg, WomanProfile(0, 0.0, 0.0))
        assert stats.d_over_t == 0.0
        assert stats.c_successes == stats.q_successes == 0

    def test_game1_full_acceptance(self):
        cfg = GameConfig(3, GameVariant.GAME1, trials=200_000, seed=5)
        stats = run_match(cfg, WomanProfile(3, 1.0, 1.0))
        assert stats.d_over_t == pytest.approx(
            25 / 32 - 1 / 8, abs=mc_tolerance(cfg.trials)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2**128 - 1])
    def test_draws_from_row_0_of_the_seeds_streams(self, seed):
        cfg = GameConfig(3, GameVariant.GAME2, trials=1000, seed=seed)
        woman = WomanProfile(1, 0.4, 0.6)
        a_t, _ = final_amplitudes(cfg.n_qubits, cfg.quantum_iterations)
        q, c = turn_rates(cfg, woman, a_t * a_t)
        c_successes, q_successes = row_streams(seed)(0).binomial(cfg.trials, [c, q])
        assert run_match(cfg, woman) == GameStats(
            q_successes=int(q_successes), c_successes=int(c_successes), trials=cfg.trials
        )

    def test_deterministic_bit_for_bit(self):
        cfg = GameConfig(3, GameVariant.GAME2, trials=5000, seed=99)
        woman = WomanProfile(1, 0.7, 0.2)
        assert run_match(cfg, woman) == run_match(cfg, woman)

    def test_seed_changes_stream(self):
        cfg = GameConfig(3, GameVariant.GAME1, trials=5000, seed=1)
        woman = WomanProfile(1, 0.7, 0.2)
        assert run_match(cfg, woman) != run_match(replace(cfg, seed=2), woman)

    @pytest.mark.parametrize(
        "variant,strategy",
        [
            (GameVariant.GAME1, ClassicStrategy.MEMORYLESS),
            (GameVariant.GAME2, ClassicStrategy.MEMORYLESS),
            (GameVariant.GAME2, ClassicStrategy.SWEEP),
        ],
    )
    def test_monte_carlo_matches_analytic_on_grid(self, variant, strategy):
        trials = 200_000
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for i, p_c in enumerate(grid):
            for j, p_q in enumerate(grid):
                cfg = GameConfig(
                    3,
                    variant,
                    trials=trials,
                    classic_strategy=strategy,
                    seed=1000 + 25 * i + j,
                )
                woman = WomanProfile(2, p_c, p_q)
                stats = run_match(cfg, woman)
                assert stats.d_over_t == pytest.approx(
                    expected_dt(cfg, woman), abs=mc_tolerance(trials)
                ), (variant, strategy, p_c, p_q)

    def test_game2_with_one_attempt_matches_game1(self):
        # At N = 2 game 2 gives C N/2 = 1 attempt, as game 1 does, so the
        # same seed plays the same match.
        woman = WomanProfile(1, 0.6, 0.4)
        for strategy in ClassicStrategy:
            cfg2 = GameConfig(
                1, GameVariant.GAME2, trials=100_000, classic_strategy=strategy, seed=3
            )
            cfg1 = replace(cfg2, variant=GameVariant.GAME1)
            assert cfg1.classic_attempts_per_turn == cfg2.classic_attempts_per_turn == 1
            assert run_match(cfg2, woman) == run_match(cfg1, woman), strategy
            assert expected_dt(cfg2, woman) == expected_dt(cfg1, woman), strategy

    @pytest.mark.parametrize(
        "variant,strategy",
        [
            (GameVariant.GAME1, ClassicStrategy.MEMORYLESS),
            (GameVariant.GAME2, ClassicStrategy.MEMORYLESS),
            (GameVariant.GAME2, ClassicStrategy.SWEEP),
        ],
    )
    def test_agrees_with_turn_by_turn_play(self, variant, strategy):
        trials = 20_000
        cfg = GameConfig(3, variant, trials=trials, classic_strategy=strategy, seed=17)
        woman = WomanProfile(6, 0.8, 0.3)
        rng = np.random.default_rng(17)
        outcomes = [play_turn(cfg, woman, rng) for _ in range(trials)]
        looped = GameStats(
            q_successes=sum(o.q_success for o in outcomes),
            c_successes=sum(o.c_success for o in outcomes),
            trials=trials,
        )
        vectorized = run_match(cfg, woman)
        assert abs(looped.d_over_t - vectorized.d_over_t) < 2 * mc_tolerance(trials)

    def test_largest_register_draws_per_turn_not_per_proposal(self):
        # Game 2 at 20 qubits makes 2^19 classic proposals per turn; the
        # engine draws per turn and builds no state vector, so memory is O(T).
        cfg = GameConfig(20, GameVariant.GAME2, trials=1000, seed=1)
        tracemalloc.start()
        try:
            stats = run_match(cfg, WomanProfile(0, 0.5, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.trials == 1000
        assert 0 <= stats.c_successes <= 1000
        assert peak < 128 * 2**20

    def test_memory_does_not_grow_with_trials(self):
        # One turn array of 10^12 entries would need terabytes.
        cfg = GameConfig(20, GameVariant.GAME2, trials=10**12, seed=1)
        tracemalloc.start()
        try:
            stats = run_match(cfg, WomanProfile(0, 0.5, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < stats.c_successes < 10**12
        assert 0 < stats.q_successes < 10**12
        assert peak < 2**20

    @pytest.mark.parametrize("trials", [0, 2**63])
    def test_trials_outside_binomial_range_rejected(self, trials):
        with pytest.raises(ConfigurationError):
            GameConfig(3, GameVariant.GAME1, trials=trials)


class TestStats:
    def test_d_over_t_derived(self):
        stats = GameStats(q_successes=300, c_successes=100, trials=1000)
        assert stats.d_over_t == pytest.approx(0.2)

    def test_d_over_t_not_an_argument(self):
        # A given d_over_t could disagree with the counts; it is never taken.
        with pytest.raises(TypeError):
            GameStats(q_successes=300, c_successes=100, trials=1000, d_over_t=5)

    def test_csv_row(self):
        cfg = GameConfig(3, GameVariant.GAME2, trials=1000, seed=7)
        woman = WomanProfile(0, 0.25, 0.5)
        stats = GameStats(q_successes=400, c_successes=150, trials=1000)
        row = stats_csv_row(cfg, woman, stats)
        assert row == "2,8,0.25,0.5,1000,150,400,0.25,7"
