import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdating import (
    ConfigurationError,
    DimensionError,
    FeatureTable,
    FeatureNotFoundError,
    GameConfig,
    GameVariant,
    MalformedTableError,
    OracleSpec,
    QuantumState,
    SizeError,
    StateError,
    WomanProfile,
    amplitude_trace,
    apply_diffusion,
    apply_oracle,
    build_oracle,
    closed_form_probability,
    grover_iterate,
    measure,
    optimal_iterations,
    run_grover,
    run_grover_dense,
    run_match,
    success_probability,
    uniform_superposition,
)
from qdating.kernel import (
    MAX_QUBITS,
    final_amplitudes,
    grover_amplitudes,
    iteration_bound,
)
from qdating.statevector import basis_state

TABLE1 = FeatureTable({0: "a", 1: "b", 2: "c", 3: "d"})


class TestUniformSuperposition:
    def test_one_qubit(self):
        state = uniform_superposition(1)
        np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_three_qubits(self):
        state = uniform_superposition(3)
        assert state.dimension == 8
        np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(8)] * 8)

    def test_ten_qubits(self):
        state = uniform_superposition(10)
        np.testing.assert_allclose(state.amplitudes, [1 / 32] * 1024)

    def test_out_of_range(self):
        with pytest.raises(SizeError):
            uniform_superposition(21)
        with pytest.raises(SizeError):
            uniform_superposition(-1)

    @pytest.mark.parametrize("n_qubits", [-1, 21, 2000])
    def test_basis_state_out_of_range(self, n_qubits):
        # Refused before 2**n_qubits amplitudes are allocated.
        with pytest.raises(SizeError):
            basis_state(n_qubits, 0)

    def test_single_entry_register(self):
        # n_qubits=0 models the one-woman market.
        state = uniform_superposition(0)
        np.testing.assert_allclose(state.amplitudes, [1.0])


class TestFeatureTable:
    def test_build_oracle_table1(self):
        assert build_oracle(TABLE1, "d").target == 3

    def test_single_row(self):
        assert build_oracle(FeatureTable({0: "x"}), "x").target == 0

    def test_eight_rows(self):
        table = FeatureTable({i: f"f{i}" for i in range(8)})
        oracle = build_oracle(table, "f5")
        assert oracle.target == 5
        assert oracle.n_qubits == 3

    def test_feature_absent(self):
        with pytest.raises(FeatureNotFoundError):
            build_oracle(TABLE1, "z")

    def test_duplicate_feature(self):
        with pytest.raises(MalformedTableError):
            FeatureTable({0: "a", 1: "a"})

    def test_gapped_indices(self):
        with pytest.raises(MalformedTableError):
            FeatureTable({0: "a", 2: "b"})

    def test_non_power_of_two(self):
        table = FeatureTable({0: "a", 1: "b", 2: "c"})
        with pytest.raises(MalformedTableError):
            build_oracle(table, "a")

    def test_from_csv(self, tmp_path):
        path = tmp_path / "women.csv"
        path.write_text("index,feature\n0,a\n1,b\n2,c\n3,d\n")
        table = FeatureTable.from_csv(path)
        assert build_oracle(table, "d").target == 3

    def test_from_csv_requires_header(self, tmp_path):
        path = tmp_path / "women.csv"
        path.write_text("0,a\n1,b\n")
        with pytest.raises(MalformedTableError):
            FeatureTable.from_csv(path)

    def test_from_csv_rejects_non_integer_index(self, tmp_path):
        path = tmp_path / "women.csv"
        path.write_text("index,feature\n0,a\none,b\n")
        with pytest.raises(MalformedTableError):
            FeatureTable.from_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [("", "empty"), ("0,a,x\n1,b\n", "malformed row"),
         ("0,a\n0,b\n", "duplicate index")],
        ids=["header-only", "three-columns", "repeated-index"],
    )
    def test_from_csv_rejects(self, tmp_path, rows, message):
        path = tmp_path / "women.csv"
        path.write_text("index,feature\n" + rows)
        with pytest.raises(MalformedTableError, match=message):
            FeatureTable.from_csv(path)

    def test_from_csv_skips_blank_rows(self, tmp_path):
        path = tmp_path / "women.csv"
        path.write_text("index,feature\n0,a\n\n1,b\n\n")
        assert FeatureTable.from_csv(path).entries == {0: "a", 1: "b"}


class TestOracle:
    def test_uniform_n4(self):
        state = apply_oracle(uniform_superposition(2), OracleSpec(2, 2))
        np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, -0.5, 0.5])

    def test_basis_state(self):
        state = apply_oracle(basis_state(3, 5), OracleSpec(5, 3))
        assert state.amplitudes[5] == -1.0

    def test_uniform_n8(self):
        state = apply_oracle(uniform_superposition(3), OracleSpec(3, 3))
        expected = np.full(8, 1 / math.sqrt(8))
        expected[3] *= -1
        np.testing.assert_allclose(state.amplitudes, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_oracle(uniform_superposition(2), OracleSpec(1, 3))

    def test_target_out_of_range(self):
        with pytest.raises(ConfigurationError):
            OracleSpec(4, 2)


class TestDiffusion:
    def test_zero_mean_flips_signs(self):
        r = 1 / math.sqrt(2)
        state = apply_diffusion(QuantumState(1, [r, -r]))
        np.testing.assert_allclose(state.amplitudes, [-r, r], atol=1e-15)

    def test_uniform_fixed_point(self):
        state = uniform_superposition(3)
        np.testing.assert_allclose(
            apply_diffusion(state).amplitudes, state.amplitudes, atol=1e-15
        )

    def test_n4_reaches_certainty(self):
        state = apply_diffusion(QuantumState(2, [0.5, 0.5, -0.5, 0.5]))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-15)


class TestGroverIterate:
    def test_n4_one_shot(self):
        state = grover_iterate(uniform_superposition(2), OracleSpec(2, 2))
        assert success_probability(state, 2) == pytest.approx(1.0, abs=1e-12)

    def test_n8_one_iterate(self):
        state = grover_iterate(uniform_superposition(3), OracleSpec(6, 3))
        assert success_probability(state, 6) == pytest.approx(25 / 32, abs=1e-12)

    def test_n1024_one_iterate_amplitude(self):
        state = grover_iterate(uniform_superposition(10), OracleSpec(17, 10))
        expected_amp = math.sin(3 * math.asin(1 / 32))
        assert abs(state.amplitudes[17]) == pytest.approx(expected_amp, abs=1e-12)
        assert expected_amp == pytest.approx(0.09366, abs=5e-5)

    def test_matches_composition(self):
        state = uniform_superposition(3)
        oracle = OracleSpec(1, 3)
        np.testing.assert_allclose(
            grover_iterate(state, oracle).amplitudes,
            apply_diffusion(apply_oracle(state, oracle)).amplitudes,
        )


class TestRunGrover:
    def test_zero_iterations(self):
        state = run_grover(3, OracleSpec(5, 3), 0)
        assert success_probability(state, 5) == pytest.approx(1 / 8)

    def test_certainty_at_25(self):
        state = run_grover(10, OracleSpec(123, 10), 25)
        assert success_probability(state, 123) >= 0.999

    def test_n4_one_iteration(self):
        state = run_grover(2, OracleSpec(1, 2), 1)
        assert success_probability(state, 1) == pytest.approx(1.0, abs=1e-12)

    def test_iteration_bound(self):
        with pytest.raises(ConfigurationError):
            run_grover(2, OracleSpec(1, 2), 21)

    def test_negative_iterations(self):
        with pytest.raises(ConfigurationError):
            run_grover(2, OracleSpec(1, 2), -1)


class TestSuccessProbability:
    def test_uniform(self):
        assert success_probability(uniform_superposition(3), 4) == pytest.approx(0.125)

    def test_post_iterate(self):
        state = grover_iterate(uniform_superposition(3), OracleSpec(0, 3))
        assert success_probability(state, 0) == pytest.approx(25 / 32, abs=1e-12)

    def test_basis(self):
        assert success_probability(basis_state(2, 3), 3) == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(ConfigurationError):
            success_probability(uniform_superposition(2), 4)


class TestMeasure:
    def test_basis_state_deterministic(self):
        rng = np.random.default_rng(0)
        state = basis_state(3, 5)
        assert all(measure(state, rng) == 5 for _ in range(50))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(42)
        state = uniform_superposition(3)
        counts = np.bincount([measure(state, rng) for _ in range(80_000)], minlength=8)
        np.testing.assert_allclose(counts / 80_000, 0.125, atol=0.005)

    def test_post_iterate_frequency(self):
        rng = np.random.default_rng(7)
        state = grover_iterate(uniform_superposition(3), OracleSpec(2, 3))
        hits = sum(measure(state, rng) == 2 for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(25 / 32, abs=0.005)

    def test_unnormalized_state_rejected(self):
        state = QuantumState(1, [1.0, 1.0])
        with pytest.raises(StateError):
            measure(state, np.random.default_rng(0))

    def test_norm_tolerance(self):
        # NORM_TOLERANCE is 1e-6: a drift of 1e-4 is refused, one of 1e-9 is not.
        def state(norm):
            return QuantumState(1, [norm / math.sqrt(2)] * 2)

        assert state(1 + 1e-4).norm() == pytest.approx(1 + 1e-4, abs=1e-12)
        with pytest.raises(StateError):
            measure(state(1 + 1e-4), np.random.default_rng(0))
        assert measure(state(1 + 1e-9), np.random.default_rng(0)) in (0, 1)

    def test_does_not_mutate(self):
        state = uniform_superposition(2)
        before = state.amplitudes.copy()
        measure(state, np.random.default_rng(0))
        np.testing.assert_array_equal(state.amplitudes, before)


class TestClosedForm:
    def test_n8_one_iterate(self):
        assert closed_form_probability(8, 1) == pytest.approx(25 / 32, abs=1e-12)

    def test_n4_one_iterate(self):
        assert closed_form_probability(4, 1) == pytest.approx(1.0, abs=1e-12)

    def test_n1024_at_25(self):
        p = closed_form_probability(1024, 25)
        assert p == pytest.approx(math.sin(51 * math.asin(1 / 32)) ** 2, abs=1e-15)
        assert p > 0.9994

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            closed_form_probability(6, 1)

    @pytest.mark.parametrize("iterations", [-1, 2**52, 10**400])
    def test_rejects_iterations_past_exact_floats(self, iterations):
        # 2k+1 past 2^53 is no longer an exact float; 10**400 overflowed.
        with pytest.raises(ConfigurationError):
            closed_form_probability(8, iterations)

    def test_largest_exact_iterations(self):
        assert 0.0 <= closed_form_probability(8, 2**52 - 1) <= 1.0


class TestOptimalIterations:
    def test_n1024(self):
        assert optimal_iterations(1024) == 25

    def test_n4(self):
        assert optimal_iterations(4) == 1

    def test_n2_tie_goes_low(self):
        # Every k gives 1/2 at N=2; the scan settles on the smallest.
        assert optimal_iterations(2) == 0

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_matches_exhaustive_scan(self, n_qubits):
        N = 2**n_qubits
        theta = math.asin(1 / math.sqrt(N))
        k_max = math.ceil(math.pi / (4 * theta))
        probs = [math.sin((2 * k + 1) * theta) ** 2 for k in range(k_max + 1)]
        best = max(probs)
        scan = min(k for k, p in enumerate(probs) if p >= best - 1e-12)
        assert optimal_iterations(N) == scan


class TestInvariants:
    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_normalization_over_sequences(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        state = uniform_superposition(n_qubits)
        oracle = OracleSpec(int(rng.integers(2**n_qubits)), n_qubits)
        for _ in range(30):
            op = rng.integers(3)
            if op == 0:
                state = apply_oracle(state, oracle)
            elif op == 1:
                state = apply_diffusion(state)
            else:
                state = grover_iterate(state, oracle)
            assert abs(state.norm() ** 2 - 1.0) < 1e-9

    @given(
        n_qubits=st.integers(1, 5),
        raw=st.lists(st.floats(-1, 1), min_size=32, max_size=32),
        target=st.integers(0, 31),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_involution(self, n_qubits, raw, target):
        N = 2**n_qubits
        amps = np.array(raw[:N]) + 0.5
        amps = amps / np.linalg.norm(amps)
        state = QuantumState(n_qubits, amps)
        oracle = OracleSpec(target % N, n_qubits)
        twice = apply_oracle(apply_oracle(state, oracle), oracle)
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    @given(
        n_qubits=st.integers(1, 5),
        raw=st.lists(st.floats(-1, 1), min_size=32, max_size=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_diffusion_involution(self, n_qubits, raw):
        N = 2**n_qubits
        amps = np.array(raw[:N]) + 0.5
        amps = amps / np.linalg.norm(amps)
        state = QuantumState(n_qubits, amps)
        twice = apply_diffusion(apply_diffusion(state))
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_closed_form_agreement(self):
        for n_qubits in range(1, 11):
            N = 2**n_qubits
            rng = np.random.default_rng(n_qubits)
            if N <= 16:
                targets = range(N)
            else:
                targets = rng.choice(N, size=3, replace=False)
            for target in targets:
                oracle = OracleSpec(int(target), n_qubits)
                state = uniform_superposition(n_qubits)
                for k in range(41):
                    if k > 0:
                        state = grover_iterate(state, oracle)
                    assert success_probability(state, int(target)) == pytest.approx(
                        closed_form_probability(N, k), abs=1e-10
                    )

    @pytest.mark.parametrize("n_qubits", range(0, 5))
    def test_dense_matrix_equivalence(self, n_qubits):
        rng = np.random.default_rng(100 + n_qubits)
        for target in rng.integers(0, 2**n_qubits, size=3):
            oracle = OracleSpec(int(target), n_qubits)
            for k in range(7):
                fast = run_grover(n_qubits, oracle, k)
                dense = run_grover_dense(n_qubits, oracle, k)
                np.testing.assert_allclose(
                    fast.amplitudes, dense.amplitudes, atol=1e-12
                )

    def test_dense_pipeline_capped_at_four_qubits(self):
        with pytest.raises(SizeError, match="dense pipeline"):
            run_grover_dense(5, OracleSpec(0, 5), 1)

    @pytest.mark.parametrize("n_qubits", [2, 3, 5])
    def test_non_target_symmetry(self, n_qubits):
        oracle = OracleSpec(1, n_qubits)
        state = uniform_superposition(n_qubits)
        for _ in range(10):
            state = grover_iterate(state, oracle)
            others = np.delete(state.amplitudes, 1)
            assert np.ptp(others.real) < 1e-12
            assert np.abs(others.imag).max() < 1e-12

    def test_amplitudes_length_fixed(self):
        with pytest.raises(DimensionError):
            QuantumState(2, [1.0, 0.0])


class TestGroverKernel:
    def test_agrees_with_closed_form_over_whole_register(self):
        for n_qubits in range(MAX_QUBITS + 1):
            N = 2**n_qubits
            pairs = grover_amplitudes(n_qubits, iteration_bound(n_qubits))
            for k, (a_t, _) in enumerate(pairs):
                assert abs(a_t * a_t - closed_form_probability(N, k)) < 1e-10, (
                    n_qubits, k,
                )
                # run_match draws a binomial at this rate, which needs p <= 1.
                assert a_t * a_t <= 1.0, (n_qubits, k)

    @pytest.mark.parametrize("n_qubits", range(13))
    def test_run_grover_matches_literal_iterates(self, n_qubits):
        rng = np.random.default_rng(200 + n_qubits)
        for target in rng.integers(0, 2**n_qubits, size=2):
            oracle = OracleSpec(int(target), n_qubits)
            state = uniform_superposition(n_qubits)
            for k in range(min(60, iteration_bound(n_qubits)) + 1):
                if k > 0:
                    state = grover_iterate(state, oracle)
                np.testing.assert_allclose(
                    run_grover(n_qubits, oracle, k).amplitudes,
                    state.amplitudes,
                    rtol=0,
                    atol=1e-12,
                )

    @pytest.mark.parametrize(
        "n_qubits, iterations", [(0, 3), (1, 1), (3, 1), (3, 2), (10, 25), (20, 804)]
    )
    def test_run_match_uses_run_grover_probability(self, n_qubits, iterations):
        # With P_q = 1, Q's per-turn rate is p_G itself, drawn as the second
        # rate of run_match's one binomial call.
        target = 2**n_qubits - 1
        oracle = OracleSpec(target, n_qubits)
        p = success_probability(run_grover(n_qubits, oracle, iterations), target)

        class RecordingRng:
            def binomial(self, n, rates):
                self.rates = rates
                return [0, 0]

        cfg = GameConfig(
            n_qubits, GameVariant.GAME1, trials=2, quantum_iterations=iterations
        )
        rng = RecordingRng()
        run_match(cfg, WomanProfile(target, 0.0, 1.0), rng=rng)
        assert rng.rates[1] == p

    def test_trace_of_largest_register_holds_no_vector(self):
        # A 2^20-entry complex vector is 16 MiB.
        tracemalloc.start()
        try:
            points = amplitude_trace(MAX_QUBITS, 12345, 804)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points) == 805
        assert points[-1].p_target > 0.9999
        assert peak < 2**20

    @pytest.mark.parametrize("n_qubits", [-1, MAX_QUBITS + 1])
    def test_kernel_checks_register(self, n_qubits):
        with pytest.raises(SizeError):
            final_amplitudes(n_qubits, 0)

    def test_oracle_of_another_size_rejected(self):
        with pytest.raises(DimensionError):
            run_grover(3, OracleSpec(0, 2), 1)
        with pytest.raises(DimensionError):
            run_grover_dense(3, OracleSpec(0, 2), 1)

