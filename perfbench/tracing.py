"""Per-layer spans for a traced run, recorded from outside the program.

Each public function of a ``qdating`` layer is wrapped by replacing the
attribute where its caller looks it up (``game.run_grover`` is what
``run_match`` calls), so nothing under ``src/`` changes.  A span is
(name, start, end, parent); spans stay in memory until the run ends.  A
name's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  Several attributes may share a name:
# ``run_match`` is looked up by both ``cli`` (game) and ``experiment`` (sweep).
PATCH_POINTS = [
    ("cli", "main", "cli.main"),
    ("cli", "write_manifest", "cli.manifest"),
    ("cli", "read_manifest", "cli.manifest"),
    ("cli", "write_text", "experiment.write_text"),
    ("cli", "trace_csv", "experiment.emit"),
    ("cli", "sweep_csv", "experiment.emit"),
    ("cli", "boundary_csv", "experiment.emit"),
    ("cli", "sign_boundary", "experiment.sign_boundary"),
    ("cli", "amplitude_trace", "experiment.amplitude_trace"),
    ("cli", "run_sweep", "experiment.run_sweep"),
    ("cli", "run_match", "game.run_match"),
    ("experiment", "run_match", "game.run_match"),
    ("experiment", "expected_dt", "game.expected_dt"),
    ("experiment", "cell_rng", "experiment.cell_rng"),
    ("experiment", "grover_iterate", "statevector.grover_iterate"),
    ("game", "run_grover", "statevector.run_grover"),
    ("game", "closed_form_probability", "statevector.closed_form_probability"),
    ("game", "classic_memoryless_propose", "strategies"),
    ("game", "classic_sweep_propose", "strategies"),
    ("game", "quantum_propose", "strategies"),
    ("statevector", "grover_iterate", "statevector.grover_iterate"),
    ("strategies", "run_grover", "statevector.run_grover"),
    ("strategies", "measure", "statevector.measure"),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _run_match_counts(args, kwargs, result) -> dict[str, int]:
    cfg = _arg(args, kwargs, 0, "cfg")
    return {
        "turns": cfg.trials,
        "classic_proposals": cfg.trials * cfg.classic_attempts_per_turn,
    }


# Work counted at a span, from its arguments and result.
COUNTERS = {
    "game.run_match": _run_match_counts,
    "statevector.grover_iterate": lambda a, kw, r: {
        "amps": len(_arg(a, kw, 0, "state").amplitudes)
    },
    "experiment.run_sweep": lambda a, kw, r: {"cells": len(r)},
    "experiment.write_text": lambda a, kw, r: {
        "bytes": len(_arg(a, kw, 1, "text").encode())
    },
    "cli.main": lambda a, kw, r: {"exit_nonzero": int(r != 0)},
}

# Per-layer metrics reported from a traced pass: (metric, unit).
LAYER_METRICS = [
    ("statevector.run_grover.calls", "count"),
    ("statevector.run_grover.self_s", "s"),
    ("statevector.grover_iterate.calls", "count"),
    ("statevector.grover_iterate.self_s", "s"),
    ("statevector.grover_iterate.amps", "count"),
    ("statevector.closed_form_probability.calls", "count"),
    ("statevector.closed_form_probability.self_s", "s"),
    ("statevector.measure.calls", "count"),
    ("strategies.calls", "count"),
    ("game.expected_dt.calls", "count"),
    ("game.expected_dt.self_s", "s"),
    ("game.run_match.calls", "count"),
    ("game.run_match.self_s", "s"),
    ("game.run_match.turns", "count"),
    ("game.run_match.classic_proposals", "count"),
    ("experiment.run_sweep.calls", "count"),
    ("experiment.run_sweep.self_s", "s"),
    ("experiment.run_sweep.cells", "count"),
    ("experiment.cell_rng.calls", "count"),
    ("experiment.cell_rng.self_s", "s"),
    ("experiment.amplitude_trace.calls", "count"),
    ("experiment.amplitude_trace.self_s", "s"),
    ("experiment.sign_boundary.self_s", "s"),
    ("experiment.emit.self_s", "s"),
    ("experiment.write_text.bytes", "count"),
    ("experiment.write_text.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.manifest.self_s", "s"),
    ("cli.exit_nonzero", "count"),
]


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every patch point for the duration of the block."""
        saved = []
        for module_name, attr, name in PATCH_POINTS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        totals: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        calls = Counter(f"{span[0]}.calls" for span in self.spans)
        return dict(sorted((calls + self.counts).items()))

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = {f"{n}.self_s": t for n, t in self.self_times().items()}
        values.update(self.exact_counts())
        values["cli.exit_nonzero"] = self.counts["cli.main.exit_nonzero"]
        return {metric: values.get(metric, 0) for metric, _ in LAYER_METRICS}

    def write_spans(self, fh, pass_index: int) -> None:
        for name, start, end, parent in self.spans:
            fh.write(json.dumps([pass_index, name, start, end, parent]) + "\n")
