"""End-to-end acceptance gate.

Each test checks one headline guarantee at its stated tolerance and prints
a single pass/fail line (visible with ``pytest -s``).
"""

import math
import time

import numpy as np
import pytest

from qdating import (
    ClassicStrategy,
    GameConfig,
    GameVariant,
    OracleSpec,
    SweepSpec,
    SweepState,
    WomanProfile,
    amplitude_trace,
    classic_sweep_propose,
    closed_form_probability,
    expected_dt,
    grover_iterate,
    measure,
    optimal_iterations,
    run_grover,
    run_grover_dense,
    run_match,
    run_sweep,
    sign_boundary,
    success_probability,
    uniform_superposition,
)
from qdating.cli import main, read_manifest


def report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


def check(name: str, ok: bool, detail: str = "") -> None:
    report(name, ok)
    assert ok, f"{name} failed {detail}"


MC_TOL_100K = 4 * math.sqrt(0.5 / 100_000)
MC_TOL_200K = 4 * math.sqrt(0.5 / 200_000)


def test_a1_closed_form_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n_qubits in range(1, 11):
        N = 2**n_qubits
        oracle = OracleSpec(N - 1, n_qubits)
        state = uniform_superposition(n_qubits)
        for k in range(41):
            if k > 0:
                state = grover_iterate(state, oracle)
            diff = abs(
                success_probability(state, N - 1) - closed_form_probability(N, k)
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    check(
        "A1 simulated vs closed-form probability",
        worst <= 1e-10 and elapsed < 5.0,
        f"(worst diff {worst:.3g}, {elapsed:.2f}s)",
    )


def test_a2_single_iterate_probability_n8():
    state = run_grover(3, OracleSpec(6, 3), 1)
    exact_ok = (
        abs(success_probability(state, 6) - 0.78125) <= 1e-12
        and abs(closed_form_probability(8, 1) - 0.78125) <= 1e-12
    )
    rng = np.random.default_rng(2024)
    hits = sum(measure(state, rng) == 6 for _ in range(100_000))
    freq = hits / 100_000
    check(
        "A2 N=8 one-iterate probability 0.78125",
        exact_ok and abs(freq - 0.78125) <= 0.005,
        f"(sampled {freq})",
    )


def test_a3_n1024_certainty_at_25():
    start = time.perf_counter()
    k_opt = optimal_iterations(1024)
    points = amplitude_trace(10, 512, 25)
    elapsed = time.perf_counter() - start
    check(
        "A3 N=1024 certainty after 25 iterates",
        k_opt == 25 and points[25].p_target >= 0.999 and elapsed < 1.0,
        f"(k_opt {k_opt}, p {points[25].p_target}, {elapsed:.2f}s)",
    )


def test_a4_dense_matrix_oracle():
    ok = True
    for n_qubits in range(1, 5):
        rng = np.random.default_rng(n_qubits)
        for target in rng.integers(0, 2**n_qubits, size=3):
            oracle = OracleSpec(int(target), n_qubits)
            for k in range(7):
                fast = run_grover(n_qubits, oracle, k).amplitudes
                dense = run_grover_dense(n_qubits, oracle, k).amplitudes
                ok &= bool(np.max(np.abs(fast - dense)) <= 1e-12)
    check("A4 dense-matrix pipeline matches fast path", ok)


def test_a5_single_woman_threshold():
    start = time.perf_counter()
    worst = 0.0
    trials = 200_000
    for i, p_c in enumerate((0.0, 0.5, 1.0)):
        for j, p_q in enumerate((0.0, 0.5, 1.0)):
            cfg = GameConfig(0, GameVariant.GAME1, trials=trials, seed=50 + 3 * i + j)
            stats = run_match(cfg, WomanProfile(0, p_c, p_q))
            worst = max(worst, abs(stats.d_over_t - (p_q - p_c)))
    elapsed = time.perf_counter() - start
    check(
        "A5 N=1 threshold d/t = P_q - P_c",
        worst <= MC_TOL_200K and elapsed < 30.0,
        f"(worst dev {worst:.4f}, {elapsed:.1f}s)",
    )


def test_a6_game1_sign_structure():
    corner = expected_dt(
        GameConfig(3, GameVariant.GAME1), WomanProfile(0, 1.0, 0.0)
    )
    check("A6a game-1 corner (P_c=1, P_q=0) favors classic", corner < 0.0)

    rng = np.random.default_rng(6)
    worst = 0.0
    for seed, (p_c, p_q) in enumerate(zip(rng.random(10), rng.random(10))):
        cfg = GameConfig(3, GameVariant.GAME1, trials=100_000, seed=600 + seed)
        woman = WomanProfile(0, float(p_c), float(p_q))
        stats = run_match(cfg, woman)
        worst = max(worst, abs(stats.d_over_t - expected_dt(cfg, woman)))
    check(
        "A6b game-1 Monte Carlo matches analytic on spot cells",
        worst <= MC_TOL_100K,
        f"(worst dev {worst:.4f})",
    )


def test_a6_game1_nonnegative_region():
    grid = np.linspace(0.0, 1.0, 21)
    violations = []
    for p_c in grid:
        for p_q in grid:
            if p_c <= 0.9:
                value = expected_dt(
                    GameConfig(3, GameVariant.GAME1),
                    WomanProfile(0, float(p_c), float(p_q)),
                )
                if value < 0.0:
                    violations.append((round(float(p_c), 2), round(float(p_q), 2), value))
    check(
        "A6c game-1 expected d/t nonnegative for all cells with P_c <= 0.9",
        not violations,
        f"({len(violations)} negative cells, e.g. {violations[:3]})",
    )


def test_a7_game2_boundary():
    spec = SweepSpec(GameConfig(3, GameVariant.GAME2, trials=10, seed=7), grid_points=21)
    boundary = sign_boundary(run_sweep(spec))
    ratios_ok = all(
        1.5 <= p_c_zero / p_q <= 2.6
        for p_q, p_c_zero in boundary
        if 0.1 - 1e-9 <= p_q <= 0.5 + 1e-9
    )
    in_window = [p for p in boundary if 0.1 - 1e-9 <= p[0] <= 0.5 + 1e-9]
    check(
        "A7a game-2 zero contour inside P_c/P_q in [1.5, 2.6]",
        ratios_ok and len(in_window) == 9,
    )

    worst = 0.0
    cells = 0
    for p_q, p_c_zero in boundary:
        if not 0.1 - 1e-9 <= p_q <= 0.5 + 1e-9 or cells >= 10:
            continue
        for p_c in (max(0.0, p_c_zero - 0.05), min(1.0, p_c_zero + 0.05)):
            cfg = GameConfig(3, GameVariant.GAME2, trials=100_000, seed=700 + cells)
            woman = WomanProfile(0, p_c, p_q)
            stats = run_match(cfg, woman)
            worst = max(worst, abs(stats.d_over_t - expected_dt(cfg, woman)))
            cells += 1
    check(
        "A7b game-2 Monte Carlo matches analytic straddling the contour",
        cells == 10 and worst <= MC_TOL_100K,
        f"(worst dev {worst:.4f} over {cells} cells)",
    )


def test_a8_brute_force_half_coverage():
    rng = np.random.default_rng(8)
    turns = 100_000
    hits = 0
    for _ in range(turns):
        sweep = SweepState()
        if any(classic_sweep_propose(8, sweep, rng) == 3 for _ in range(4)):
            hits += 1
    freq = hits / turns
    check(
        "A8 sweep turn covers target half the time",
        abs(freq - 0.5) <= 0.005,
        f"(freq {freq})",
    )


def test_a9_manifest_determinism_and_pipeline_runtime(tmp_path):
    start = time.perf_counter()
    fig3 = tmp_path / "fig3.csv"
    fig4 = tmp_path / "fig4.csv"
    fig5 = tmp_path / "fig5.csv"
    bnd = tmp_path / "boundary.csv"
    assert main(["trace", "--qubits", "10", "--target", "7",
                 "--iterations", "30", "--out", str(fig3)]) == 0
    assert main(["sweep", "--variant", "1", "--qubits", "3", "--grid", "21",
                 "--trials", "1000", "--seed", "41", "--out", str(fig4)]) == 0
    assert main(["sweep", "--variant", "2", "--qubits", "3", "--grid", "21",
                 "--trials", "1000", "--seed", "42", "--out", str(fig5),
                 "--boundary-out", str(bnd)]) == 0
    originals = {p: p.read_bytes() for p in (fig3, fig4, fig5, bnd)}
    for out in (fig3, fig4, fig5):
        manifest = str(out) + ".manifest"
        assert read_manifest(manifest)["out"] == str(out)
        out.unlink()
        assert main(["rerun", "--manifest", manifest]) == 0
    elapsed = time.perf_counter() - start
    identical = all(p.read_bytes() == data for p, data in originals.items())
    check(
        "A9 manifests regenerate outputs byte-identically",
        identical and elapsed < 120.0,
        f"({elapsed:.1f}s)",
    )
