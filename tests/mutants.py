"""Hand-written mutants of ``src/qdating``, each with its expected verdict.

A mutant replaces ``old``, which occurs exactly once in ``file``, with
``new``.  ``killed_by`` is the pytest node id of a test that fails on the
mutant, or ``"equivalent"``, with ``reason`` saying why no output byte or
exit code on an accepted input can change.  The equivalents were reasoned,
not proven.  pytest does not collect this file; ``test_mutants.py`` checks
that every ``old`` still occurs exactly once and that every named test
exists, so an edit that moves the code shows there.

``run_mutants.py`` runs them all, each in its own copy of the repository:
``killed_by`` must fail there, and an equivalent must fail only the tests
that fail without it.
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
PER_COMMAND = "tests/test_cli.py::TestPerCommandParser"
EXIT_CODES = "tests/test_cli_exit_codes.py"

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
    # ``main`` builds only the options of the command it runs, and ``-h``
    # only on the sub-parsers it can reach.  The first and the fourth change
    # no output, so only the parser's contents can show them.
    Mutant(
        "parser-builds-every-command",
        "src/qdating/cli.py",
        "        if reached:\n",
        "        if True:\n",
        f"{PER_COMMAND}::test_game_parser_adds_no_other_options",
    ),
    Mutant(
        "rerun-parser-without-replayed-options",
        "src/qdating/cli.py",
        ' or command == "rerun" and name in MANIFEST_COMMANDS\n',
        "\n",
        f"{PER_COMMAND}::test_rerun_parser_adds_the_replayed_options",
    ),
    Mutant(
        "reached-sub-parser-without-help",
        "src/qdating/cli.py",
        "add_help=reached)",
        "add_help=command is None)",
        f"{PER_COMMAND}::test_argv_table_matches_the_full_parser",
    ),
    Mutant(
        "every-sub-parser-gets-help",
        "src/qdating/cli.py",
        "add_help=reached)",
        "add_help=True)",
        f"{PER_COMMAND}::test_only_reached_sub_parsers_hold_actions",
    ),
    # A run that cannot load the program or build its parser ends in one line.
    Mutant(
        "program-import-without-memory-handler",
        "src/qdating/__main__.py",
        "except (MemoryError, SystemError) as exc:",
        "except ImportError as exc:",
        f"{EXIT_CODES}::test_capped_run_exits_with_one_line_at_most_and_leaves_no_file",
    ),
    Mutant(
        "parser-built-outside-try",
        "src/qdating/cli.py",
        "    try:\n"
        "        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)\n",
        "    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)\n"
        "    try:\n",
        f"{EXIT_CODES}::test_parser_out_of_memory_exits_1",
    ),
    Mutant(
        "parser-from-the-last-token",
        "src/qdating/cli.py",
        "build_parser(argv[0] if argv and argv[0] in COMMANDS else None)",
        "build_parser(argv[-1] if argv and argv[-1] in COMMANDS else None)",
        f"{PER_COMMAND}::test_main_builds_the_parser_its_first_token_names",
    ),
]
