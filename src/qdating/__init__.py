"""Grover-search simulator and quantum-vs-classic dating-game engine.

Each name below is imported from its module on first use (PEP 562), so
``import qdating`` loads no module, and no numpy, until a name is asked for.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "errors": (
        "ConfigurationError", "DimensionError", "FeatureNotFoundError",
        "MalformedTableError", "QDatingError", "SizeError", "StateError",
        "SweepExhaustedError",
    ),
    "experiment": (
        "SweepSpec", "SweepTable", "TracePoint", "amplitude_trace", "run_sweep",
        "sign_boundary",
    ),
    "game": (
        "ClassicStrategy", "GameConfig", "GameStats", "GameVariant", "WomanProfile",
        "expected_dt", "run_match",
    ),
    "kernel": ("OracleSpec", "closed_form_probability", "optimal_iterations"),
    "statevector": (
        "FeatureTable", "QuantumState", "apply_diffusion", "apply_oracle",
        "build_oracle", "grover_iterate", "measure", "run_grover", "run_grover_dense",
        "success_probability", "uniform_superposition",
    ),
    "strategies": (
        "SweepState", "classic_memoryless_propose", "classic_sweep_propose",
        "quantum_propose",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
