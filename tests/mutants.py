"""Hand-written mutants of ``src/qdating``, each with its expected verdict.

A mutant replaces ``old``, which occurs exactly once in ``file``, with
``new``.  ``killed_by`` is the pytest node id of a test that fails on the
mutant, or ``"equivalent"``, with ``reason`` saying why no output byte or
exit code on an accepted input can change.  The equivalents were reasoned,
not proven.  pytest does not collect this file; ``test_mutants.py`` checks
that every ``old`` still occurs exactly once and that every named test
exists, so an edit that moves the code shows there.

To run one: copy the repository, replace ``old`` by ``new`` in the copy's
``file``, and run ``killed_by`` there (the whole suite for an equivalent).
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killed_by: str
    reason: str = ""


EXPERIMENT = "src/qdating/experiment.py"
CSV_EMITTER = (
    "tests/test_experiment.py::TestCsvFormat::test_sweep_csv_matches_the_per_cell_emitter"
)
EXACT_COUNTS = (
    "tests/test_experiment.py::TestRunSweep::test_measured_is_each_rows_exact_count_over_t"
)
BISECTION = (
    "tests/test_experiment.py::TestSignBoundary::test_bisection_matches_the_full_scan"
)

MUTANTS = [
    # The row template of ``sweep_csv`` and the in-place D/T of ``run_sweep``.
    Mutant(
        "sweep-csv-dt-swapped",
        EXPERIMENT,
        "        cells[:, 0] = measured\n"
        "        np.subtract(table.q_rate, c, out=cells[:, 1])\n",
        "        cells[:, 1] = measured\n"
        "        np.subtract(table.q_rate, c, out=cells[:, 0])\n",
        CSV_EMITTER,
    ),
    Mutant(
        "sweep-csv-11-digits",
        EXPERIMENT,
        ",%.12g,%.12g,",
        ",%.11g,%.12g,",
        CSV_EMITTER,
    ),
    Mutant(
        "run-sweep-divides-first",
        EXPERIMENT,
        "        np.subtract(q_successes, c_successes, out=measured[i])"
        "  # exact Q - C counts\n"
        "    measured /= cfg.trials\n",
        "        np.subtract(q_successes / cfg.trials, c_successes / cfg.trials,"
        " out=measured[i])\n",
        EXACT_COUNTS,
    ),
    # The survivors of the last hand-written mutant probe.
    Mutant(
        "sweep-rate-reordered",
        "src/qdating/game.py",
        "        return (k / cfg.N) * p_c\n",
        "        return k * p_c / cfg.N\n",
        "equivalent",
        "N is a power of two, so dividing by it only shifts the exponent: "
        "(k / N) * P_c and k * P_c / N round the same real product",
    ),
    Mutant(
        "memoryless-rate-negated",
        "src/qdating/game.py",
        "    return 1.0 - (1.0 - p_c / cfg.N) ** k\n",
        "    return -((1.0 - p_c / cfg.N) ** k - 1.0)\n",
        "equivalent",
        "round to nearest is symmetric about zero and negation is exact, "
        "so a - b == -(b - a) for every pair of doubles",
    ),
    Mutant(
        "diffusion-mean-reordered",
        "src/qdating/kernel.py",
        "        mean = (-a_t + (N - 1) * a_r) / N\n",
        "        mean = ((N - 1) * a_r - a_t) / N\n",
        "equivalent",
        "-a + b and b - a are one correctly rounded operation on the same operands",
    ),
    # Survived the last probe: the closed form is within about 1e-14 of a_t**2,
    # too little to move a draw at small T.  At T = 2**63 - 1 it moves BTPE's.
    Mutant(
        "sweep-q-from-closed-form",
        EXPERIMENT,
        "    rates[1] = quantum_rate(a_t * a_t, grid)\n",
        "    rates[1] = quantum_rate(p_closed, grid)\n",
        EXACT_COUNTS,
    ),
    # The survivors ``sign_boundary`` without its ``== 0.0`` term and without
    # its ``d_a == 0`` branch went with its scan; these are their analogues
    # in the bisection.
    Mutant(
        "boundary-without-first-row-tie",
        EXPERIMENT,
        "        elif i == 0 and c[0] == q:\n"
        "            boundary.append((p_q, grid[0]))\n",
        "",
        BISECTION,
    ),
    Mutant(
        "boundary-bisects-right",
        EXPERIMENT,
        "bisect.bisect_left(c, q)",
        "bisect.bisect_right(c, q)",
        BISECTION,
    ),
    # ``analytic``'s flag contract and ``rerun``'s environment warning.
    Mutant(
        "analytic-ignores-classic-strategy",
        "src/qdating/cli.py",
        '            search["classic_strategy"] = ClassicStrategy(args.classic_strategy)\n',
        "            pass\n",
        "tests/test_cli.py::test_analytic_flag_changes_stdout_or_is_refused",
    ),
    Mutant(
        "rerun-warns-when-equal",
        "src/qdating/cli.py",
        "if fields.get(key, value) != value]",
        "if fields.get(key, value) == value]",
        "tests/test_cli.py::TestManifestRoundTrip::test_rerun_warns_when_the_environment_differs",
    ),
]
