"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps attributes of the ``qdating`` modules by
name and reads what the wrapped calls take and return: ``len()`` of
``run_sweep``'s result, ``cfg.trials`` and ``cfg.classic_attempts_per_turn``
of ``run_match``'s first argument, and the text passed to ``cli.write_text``.
Each test here runs one benchmark workload through ``cli.main`` under the
tracer, two passes, as ``perfbench/worker.py`` does with ``--trace 1``, so a
change that breaks one of those reads fails here and not only in a traced
benchmark run.  The perfbench files are imported as they are.
"""

import contextlib
import importlib
import io
import sys
from pathlib import Path

import pytest

from qdating import cli, experiment, game, statevector, strategies

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["game2-10q", "grover-20q", "paper-figs"]
SEED = 1
# Patch points that name code the program no longer has; no other may go missing.
KNOWN_MISSING = {
    "experiment.run_match", "experiment.expected_dt", "experiment.cell_rng",
    "experiment.grover_iterate", "game.run_grover",
    "game.classic_memoryless_propose", "game.classic_sweep_propose",
    "game.quantum_propose",
}


@pytest.fixture(scope="module")
def perfbench():
    """``tracing`` and ``workloads``, imported with ``perfbench/`` on sys.path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    for module in (tracing, workloads):
        assert Path(module.__file__).parent == PERFBENCH
    yield tracing, workloads
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_every_workload_is_covered(perfbench):
    _, workloads = perfbench
    assert sorted(workloads.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_passes_succeed_and_repeat(perfbench, name, tmp_path):
    tracing, workloads = perfbench
    workload = workloads.WORKLOADS[name](SEED, str(tmp_path))
    modules = {"cli": cli, "experiment": experiment, "game": game,
               "statevector": statevector, "strategies": strategies}
    tracers = []
    for _ in range(2):
        tracer, written = tracing.Tracer(), 0
        with tracer.installed(modules):
            for step in workload.steps:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(step.argv)
                assert code == 0, (step.argv, err.getvalue())
                assert step.check(out.getvalue()) == [], step.argv
                written += sum(Path(path).stat().st_size for path in step.outputs)
        assert set(tracer.missing) <= KNOWN_MISSING
        counts = tracer.exact_counts()
        assert counts["cli.main.calls"] == len(workload.steps)
        # Every byte of the step's files went through ``cli.write_text``.
        assert counts.get("experiment.write_text.bytes", 0) == written
        tracers.append(tracer)
    first, second = tracers
    assert first.exact_counts() == second.exact_counts()
