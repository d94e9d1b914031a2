"""Grover-search simulator and quantum-vs-classic dating-game engine."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DimensionError,
    FeatureNotFoundError,
    MalformedTableError,
    QDatingError,
    SizeError,
    StateError,
    SweepExhaustedError,
)
from .experiment import SweepSpec, SweepTable, TracePoint, amplitude_trace, run_sweep, sign_boundary
from .game import (
    ClassicStrategy,
    GameConfig,
    GameStats,
    GameVariant,
    WomanProfile,
    expected_dt,
    run_match,
)
from .statevector import (
    FeatureTable,
    OracleSpec,
    QuantumState,
    apply_diffusion,
    apply_oracle,
    build_oracle,
    closed_form_probability,
    grover_iterate,
    measure,
    optimal_iterations,
    run_grover,
    run_grover_dense,
    success_probability,
    uniform_superposition,
)
from .strategies import (
    SweepState,
    classic_memoryless_propose,
    classic_sweep_propose,
    quantum_propose,
)
