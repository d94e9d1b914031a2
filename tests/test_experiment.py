import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qdating import (
    ClassicStrategy,
    ConfigurationError,
    GameConfig,
    GameVariant,
    SweepSpec,
    SweepTable,
    WomanProfile,
    amplitude_trace,
    closed_form_probability,
    expected_dt,
    run_sweep,
    sign_boundary,
)
from qdating.experiment import (
    MAX_GRID_POINTS,
    boundary_csv,
    format_float,
    row_streams,
    sweep_csv,
    trace_csv,
)
from qdating.game import turn_rates
from qdating.kernel import final_amplitudes


class TestAmplitudeTrace:
    def test_n1024_peak_at_25(self):
        points = amplitude_trace(10, 33, 30)
        assert points[25].p_target >= 0.999
        assert max(points, key=lambda p: p.p_target).iteration == 25

    def test_n8_first_two_points(self):
        points = amplitude_trace(3, 4, 1)
        assert [p.p_target for p in points] == pytest.approx([0.125, 25 / 32])

    def test_single_qubit_constant(self):
        points = amplitude_trace(1, 0, 2)
        assert [p.p_target for p in points] == pytest.approx([0.5, 0.5, 0.5])

    def test_probability_conservation(self):
        for point in amplitude_trace(5, 9, 20):
            total = point.p_target + 31 * point.p_other_each
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_closed_form_everywhere(self):
        points = amplitude_trace(6, 17, 40)
        for point in points:
            assert point.p_target == pytest.approx(
                closed_form_probability(64, point.iteration), abs=1e-10
            )

    def test_amplitude_column_is_signed_root(self):
        for point in amplitude_trace(4, 2, 10):
            assert point.amp_target**2 == pytest.approx(point.p_target, abs=1e-12)

    def test_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            amplitude_trace(2, 1, 100)


def fresh_row_rng(seed, i):
    """Row i's stream by its definition, from a Philox of its own."""
    return np.random.Generator(np.random.Philox(key=seed, counter=i << 192))


class TestRowRng:
    def test_streams_differ_by_row_and_seed(self):
        a = row_streams(1)(0).random(4)
        assert not np.allclose(a, row_streams(1)(1).random(4))
        assert not np.allclose(a, row_streams(2)(0).random(4))

    def test_neighbouring_rows_share_no_draws(self):
        row_rng = row_streams(5)

        def draws(i):
            return set(row_rng(i).integers(0, 2**63, size=1024).tolist())

        row = draws(2)
        assert not row & draws(1)
        assert not row & draws(3)

    def test_stream_is_reproducible(self):
        row_rng = row_streams(9)
        first = row_rng(3).random(8)
        np.testing.assert_array_equal(row_rng(3).random(8), first)
        np.testing.assert_array_equal(fresh_row_rng(9, 3).random(8), first)

    def test_reset_discards_what_the_last_row_buffered(self):
        # 64-bit words come four to a Philox block, and 32-bit draws half
        # a word at a time; an odd count of each leaves both buffers full.
        row_rng = row_streams(2**128 - 1)
        for i in (4, 0, 7, 4, 1000):
            rng = row_rng(i)
            np.testing.assert_array_equal(
                rng.integers(0, 2**32, size=3, dtype=np.uint32),
                fresh_row_rng(2**128 - 1, i).integers(0, 2**32, size=3, dtype=np.uint32),
            )
            rng.random(5)
            assert rng.bit_generator.state["has_uint32"] == 1
            assert rng.bit_generator.state["buffer_pos"] < 4


class TestSweepSpec:
    def test_grid_bounds(self):
        cfg = GameConfig(3, GameVariant.GAME1)
        assert SweepSpec(cfg, MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
        assert len(SweepSpec(cfg, 2).grid()) == 2
        for grid_points in (1, MAX_GRID_POINTS + 1):
            with pytest.raises(ConfigurationError, match="grid_points"):
                SweepSpec(cfg, grid_points)


def cells(table):
    """(i, j, P_c, P_q) of every cell of a sweep table, row-major."""
    grid = table.grid.tolist()
    return [(i, j, p_c, p_q) for i, p_c in enumerate(grid) for j, p_q in enumerate(grid)]


def expected_surface(table):
    """The G x G expected D/T: cell (i, j) is ``q_rate[j] - c_rate[i]``."""
    return table.q_rate - table.c_rate[:, None]


def exact_contour(cfg, p_q):
    """P_c where q = c, so the expected D/T is 0, in closed form."""
    p_g = closed_form_probability(cfg.N, cfg.quantum_iterations)
    k = cfg.classic_attempts_per_turn
    if cfg.classic_strategy == ClassicStrategy.SWEEP or k == 1:
        return cfg.N * p_g * p_q / k
    return cfg.N * (1.0 - (1.0 - p_g * p_q) ** (1.0 / k))


class TestRunSweep:
    def test_row_major_order_and_count(self):
        spec = SweepSpec(GameConfig(2, GameVariant.GAME1, trials=50), grid_points=5)
        table = run_sweep(spec)
        assert len(table) == 25
        assert table.measured.shape == (5, 5)
        assert table.c_rate.shape == table.q_rate.shape == (5,)
        np.testing.assert_array_equal(table.grid, np.linspace(0, 1, 5))
        lines = sweep_csv(table).splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [
            [format_float(pc), format_float(pq)] for _, _, pc, pq in cells(table)
        ]

    def test_expected_column_game1(self):
        spec = SweepSpec(GameConfig(3, GameVariant.GAME1, trials=10), grid_points=21)
        table = run_sweep(spec)
        surface = expected_surface(table)
        for i, j, p_c, p_q in cells(table):
            expected = 25 / 32 * p_q - p_c / 8
            assert surface[i, j] == pytest.approx(expected, abs=1e-12)

    def test_game2_negative_when_classic_heavily_preferred(self):
        spec = SweepSpec(GameConfig(3, GameVariant.GAME2, trials=10), grid_points=21)
        table = run_sweep(spec)
        surface = expected_surface(table)
        for i, j, p_c, p_q in cells(table):
            if p_c >= 2.5 * p_q + 0.1:
                assert surface[i, j] < 0

    def test_byte_identical_reproduction(self):
        spec = SweepSpec(GameConfig(3, GameVariant.GAME2, trials=200, seed=5), grid_points=6)
        assert sweep_csv(run_sweep(spec)) == sweep_csv(run_sweep(spec))

    def test_measured_tracks_expected(self):
        trials = 20_000
        spec = SweepSpec(
            GameConfig(3, GameVariant.GAME1, trials=trials, seed=2), grid_points=4
        )
        table = run_sweep(spec)
        tol = 4 * math.sqrt(0.5 / trials)
        assert np.all(np.abs(table.measured - expected_surface(table)) < tol)

    @pytest.mark.parametrize(
        "n_qubits, trials, grid_points",
        [
            pytest.param(1, 30, 3, id="1"),
            pytest.param(3, 30, 3, id="3"),
            # n p > 30 draws by BTPE, which takes a varying number of words
            # per cell.
            pytest.param(3, 100_000, 5, id="btpe"),
        ],
    )
    def test_plays_the_config_as_given(self, n_qubits, trials, grid_points):
        # Every field off its default, so a sweep that rebuilt the config
        # from some of them would change a column.  At n_qubits = 1 C makes
        # k = 1 attempt and the sweep and memoryless rates are both P_c/N;
        # at n_qubits = 3, k = 4 tells them apart.
        cfg = GameConfig(
            n_qubits,
            GameVariant.GAME2,
            trials=trials,
            quantum_iterations=2,
            classic_strategy=ClassicStrategy.SWEEP,
            seed=11,
        )
        spec = SweepSpec(cfg, grid_points)
        table = run_sweep(spec)
        assert table.trials == cfg.trials
        a_t, _ = final_amplitudes(cfg.n_qubits, cfg.quantum_iterations)
        grid = table.grid.tolist()
        surface = expected_surface(table)
        ends_mid_block = []
        for i, p_c in enumerate(grid):
            women = [WomanProfile(0, p_c, p_q) for p_q in grid]
            q, c = np.array([turn_rates(cfg, w, a_t * a_t) for w in women]).T
            rng = fresh_row_rng(cfg.seed, i)
            c_wins, q_wins = rng.binomial(cfg.trials, [c, q])
            ends_mid_block.append(rng.bit_generator.state["buffer_pos"] < 4)
            np.testing.assert_array_equal(
                table.measured[i], (q_wins - c_wins) / cfg.trials
            )
            assert surface[i].tolist() == [expected_dt(cfg, w) for w in women]
        # So the sweep's reset before the next row must discard buffered words.
        assert any(ends_mid_block)
        # No generator state carries over from one sweep to the next.
        run_sweep(SweepSpec(replace(cfg, seed=12), grid_points))
        np.testing.assert_array_equal(run_sweep(spec).measured, table.measured)

    @pytest.mark.parametrize("variant", [GameVariant.GAME1, GameVariant.GAME2])
    def test_grid_sum_z(self, variant):
        # Rows draw from disjoint streams, so the grid sum of (measured -
        # expected) * T has variance sum T (q(1-q) + c(1-c)); a bias too
        # small to see in one cell shows in its z.  The fig4 / fig5 configs.
        p_g = closed_form_probability(8, 1)
        for seed in range(5):
            cfg = GameConfig(3, variant, trials=1000, seed=seed)
            table = run_sweep(SweepSpec(cfg, grid_points=21))
            variance = 0.0
            for _, _, p_c, p_q in cells(table):
                q, c = turn_rates(cfg, WomanProfile(0, p_c, p_q), p_g)
                variance += cfg.trials * (q * (1 - q) + c * (1 - c))
            deviation = (table.measured - expected_surface(table)).sum() * cfg.trials
            assert abs(deviation) / math.sqrt(variance) < 4.5, seed

    def test_memory_at_the_grid_cap(self):
        # One G x G float array (8 MB at G = 1001) and O(G) per row.
        spec = SweepSpec(GameConfig(3, GameVariant.GAME2, trials=10), MAX_GRID_POINTS)
        tracemalloc.start()
        try:
            table = run_sweep(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == MAX_GRID_POINTS**2
        assert peak < 12 * 2**20


class TestSignBoundary:
    def test_game1_linear_boundary(self):
        spec = SweepSpec(GameConfig(3, GameVariant.GAME1, trials=10), grid_points=21)
        boundary = dict(sign_boundary(run_sweep(spec)))
        for p_q, p_c_zero in boundary.items():
            # Expected surface is linear in p_c, so interpolation is exact.
            assert p_c_zero == pytest.approx(6.25 * p_q, abs=1e-9)
        assert all(6.25 * p_q <= 1.0 + 1e-9 for p_q in boundary)

    def test_game2_memoryless_boundary_point(self):
        spec = SweepSpec(GameConfig(3, GameVariant.GAME2, trials=10), grid_points=21)
        boundary = dict(sign_boundary(run_sweep(spec)))
        p_q = min(boundary, key=lambda v: abs(v - 0.3))
        assert p_q == pytest.approx(0.3, abs=1e-12)
        # Independent check: interpolate the analytic surface on the same
        # grid column by hand.
        def surface(p_c):
            return 25 / 32 * p_q - (1 - (1 - p_c / 8) ** 4)

        lo, hi = 0.50, 0.55
        expected = lo + (hi - lo) * surface(lo) / (surface(lo) - surface(hi))
        assert boundary[p_q] == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.5168, abs=1e-3)
        # True root (exact algebra: (1 - p/8)^4 = 49/64) is within one cell.
        root = 8 * (1 - math.sqrt(7 / 8))
        assert abs(boundary[p_q] - root) < 0.05

    @pytest.mark.parametrize("grid_points", [21, 101])
    @pytest.mark.parametrize(
        "variant, strategy, n_qubits",
        [
            (variant, strategy.value, n_qubits)
            for variant in (1, 2)
            for strategy in ClassicStrategy
            # Game 2 needs a second woman.  With one, both players find her
            # every turn, so d = P_q - P_c vanishes on the diagonal: exactly,
            # as floats, for the sweep strategy and at most memoryless cells.
            for n_qubits in ((0, 2, 3, 5) if variant == 1 else (2, 3, 5))
        ],
    )
    def test_matches_exact_contour(self, variant, strategy, n_qubits, grid_points):
        cfg = GameConfig(
            n_qubits,
            GameVariant(variant),
            trials=10,
            classic_strategy=ClassicStrategy(strategy),
        )
        table = run_sweep(SweepSpec(cfg, grid_points))
        boundary = dict(sign_boundary(table))
        linear = strategy == "sweep" or variant == 1
        tol = 1e-9 if linear else 1.0 / (grid_points - 1)
        for p_q, p_c_zero in boundary.items():
            assert abs(p_c_zero - exact_contour(cfg, p_q)) < tol, p_q
        # A column has a point exactly when its contour lies inside [0, 1].
        for p_q in table.grid[1:].tolist():
            if exact_contour(cfg, p_q) < 1.0 - 1e-9:
                assert p_q in boundary
            elif exact_contour(cfg, p_q) > 1.0 + 1e-9:
                assert p_q not in boundary

    def test_constant_sign_gives_empty_boundary(self):
        grid = np.linspace(0.0, 1.0, 3)
        table = SweepTable(grid, np.zeros(3), np.full(3, 0.1), np.full((3, 3), 0.1), 10)
        assert sign_boundary(table) == []


class TestCsvFormat:
    def test_float_rendering(self):
        assert format_float(0.78125) == "0.78125"
        assert format_float(1 / 3) == "0.333333333333"
        assert format_float(-0.125) == "-0.125"

    def test_trace_csv_layout(self):
        text = trace_csv(amplitude_trace(3, 4, 1))
        lines = text.splitlines()
        assert lines[0] == "iteration,p_target,p_other_each,amp_target"
        assert lines[1].startswith("0,0.125,0.125,")
        assert text.endswith("\n")

    def test_sweep_csv_rows(self):
        spec = SweepSpec(GameConfig(2, GameVariant.GAME2, trials=7, seed=3), grid_points=3)
        table = run_sweep(spec)
        surface = expected_surface(table)
        assert sweep_csv(table).splitlines()[1:] == [
            f"{format_float(p_c)},{format_float(p_q)},"
            f"{format_float(table.measured[i, j])},"
            f"{format_float(surface[i, j])},7"
            for i, j, p_c, p_q in cells(table)
        ]

    def test_sweep_csv_header(self):
        spec = SweepSpec(GameConfig(2, GameVariant.GAME1, trials=10), grid_points=2)
        text = sweep_csv(run_sweep(spec))
        assert text.splitlines()[0] == "p_c,p_q,d_over_t,d_over_t_expected,trials"

    def test_boundary_csv(self):
        assert boundary_csv([(0.1, 0.625)]) == "p_q,p_c_zero\n0.1,0.625\n"


class TestSweepStrategyVariant:
    def test_sweep_strategy_expected_column(self):
        spec = SweepSpec(
            GameConfig(
                3, GameVariant.GAME2, trials=10, classic_strategy=ClassicStrategy.SWEEP
            ),
            grid_points=5,
        )
        table = run_sweep(spec)
        surface = expected_surface(table)
        for i, j, p_c, p_q in cells(table):
            assert surface[i, j] == pytest.approx(
                25 / 32 * p_q - p_c / 2, abs=1e-12
            )
