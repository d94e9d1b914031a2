import math

import numpy as np
import pytest

from qdating import (
    ClassicStrategy,
    ConfigurationError,
    GameConfig,
    GameVariant,
    GridShapeError,
    SweepRow,
    SweepSpec,
    WomanProfile,
    amplitude_trace,
    closed_form_probability,
    expected_dt,
    run_match,
    run_sweep,
    sign_boundary,
)
from qdating.experiment import (
    MAX_GRID_POINTS,
    boundary_csv,
    cell_rng,
    format_float,
    sweep_csv,
    trace_csv,
)


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


class TestCellRng:
    def test_streams_differ_by_cell(self):
        a = cell_rng(1, 0, 0).random(4)
        b = cell_rng(1, 0, 1).random(4)
        c = cell_rng(1, 1, 0).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_neighbouring_cells_share_no_draws(self):
        def draws(i, j):
            return set(cell_rng(5, i, j).integers(0, 2**63, size=1024).tolist())

        cell = draws(2, 3)
        assert not cell & draws(2, 4)
        assert not cell & draws(3, 3)

    def test_stream_is_reproducible(self):
        np.testing.assert_array_equal(
            cell_rng(9, 3, 7).random(8), cell_rng(9, 3, 7).random(8)
        )


class TestSweepSpec:
    def test_grid_bounds(self):
        cfg = GameConfig(3, GameVariant.GAME1)
        assert SweepSpec(cfg, MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
        assert len(SweepSpec(cfg, 2).grid()) == 2
        for grid_points in (1, MAX_GRID_POINTS + 1):
            with pytest.raises(ConfigurationError, match="grid_points"):
                SweepSpec(cfg, grid_points)


class TestRunSweep:
    def test_row_major_order_and_count(self):
        spec = SweepSpec(GameConfig(2, GameVariant.GAME1, trials=50), grid_points=5)
        rows = run_sweep(spec)
        assert len(rows) == 25
        grid = list(np.linspace(0, 1, 5))
        assert [(r.p_c, r.p_q) for r in rows] == [
            (pc, pq) for pc in grid for pq in grid
        ]

    def test_expected_column_game1(self):
        spec = SweepSpec(GameConfig(3, GameVariant.GAME1, trials=10), grid_points=21)
        for row in run_sweep(spec):
            expected = 25 / 32 * row.p_q - row.p_c / 8
            assert row.d_over_t_expected == pytest.approx(expected, abs=1e-12)

    def test_game2_negative_when_classic_heavily_preferred(self):
        spec = SweepSpec(GameConfig(3, GameVariant.GAME2, trials=10), grid_points=21)
        for row in run_sweep(spec):
            if row.p_c >= 2.5 * row.p_q + 0.1:
                assert row.d_over_t_expected < 0

    def test_byte_identical_reproduction(self):
        spec = SweepSpec(GameConfig(3, GameVariant.GAME2, trials=200, seed=5), grid_points=6)
        assert sweep_csv(run_sweep(spec)) == sweep_csv(run_sweep(spec))

    def test_measured_tracks_expected(self):
        trials = 20_000
        spec = SweepSpec(
            GameConfig(3, GameVariant.GAME1, trials=trials, seed=2), grid_points=4
        )
        tol = 4 * math.sqrt(0.5 / trials)
        for row in run_sweep(spec):
            assert abs(row.d_over_t_measured - row.d_over_t_expected) < tol

    @pytest.mark.parametrize("n_qubits", [1, 3])
    def test_plays_the_config_as_given(self, n_qubits):
        # Every field off its default, so a sweep that rebuilt the config
        # from some of them would change a column.  At n_qubits = 1 C makes
        # k = 1 attempt and the sweep and memoryless rates are both P_c/N;
        # at n_qubits = 3, k = 4 tells them apart.
        cfg = GameConfig(
            n_qubits,
            GameVariant.GAME2,
            trials=30,
            quantum_iterations=2,
            classic_strategy=ClassicStrategy.SWEEP,
            seed=11,
        )
        rows = run_sweep(SweepSpec(cfg, grid_points=3))
        grid = np.linspace(0, 1, 3)
        cells = [(i, j) for i in range(3) for j in range(3)]
        for (i, j), row in zip(cells, rows, strict=True):
            woman = WomanProfile(0, float(grid[i]), float(grid[j]))
            assert row.d_over_t_expected == expected_dt(cfg, woman)
            stats = run_match(cfg, woman, rng=cell_rng(cfg.seed, i, j))
            assert row.d_over_t_measured == stats.d_over_t
            assert row.trials == cfg.trials


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

    def test_constant_sign_gives_empty_boundary(self):
        rows = [
            SweepRow(pc, pq, 0.1, 0.1, 10)
            for pc in (0.0, 0.5, 1.0)
            for pq in (0.0, 0.5, 1.0)
        ]
        assert sign_boundary(rows) == []

    def test_non_grid_input_rejected(self):
        spec = SweepSpec(GameConfig(2, GameVariant.GAME1, trials=10), grid_points=4)
        rows = run_sweep(spec)[:-1]
        with pytest.raises(GridShapeError):
            sign_boundary(rows)


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
        for row in run_sweep(spec):
            assert row.d_over_t_expected == pytest.approx(
                25 / 32 * row.p_q - row.p_c / 2, abs=1e-12
            )
