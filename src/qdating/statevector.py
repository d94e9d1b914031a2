"""Exact state-vector simulation of the Grover iterate: the vector reference.

The register holds ``N = 2**n_qubits`` complex amplitudes.  One Grover
iterate is an oracle phase flip on the marked index followed by the
diffusion step (inversion about the mean); ``apply_oracle``,
``apply_diffusion`` and ``grover_iterate`` apply them literally, one step
on the whole vector.  ``run_grover`` builds the vector once from the
pair kernel of ``qdating.kernel``, placing the oracle's target, and
``measure`` collapses a state.  A dense-matrix pipeline for small
registers is the kernel's second independent cross-check, beside the
closed form.

The kernel's names (the register, target and iterate-count rules, the
pair kernel, the closed form and ``optimal_iterations``) live in
``qdating.kernel``, which needs no numpy; this module re-exports them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .errors import (
    DimensionError,
    FeatureNotFoundError,
    MalformedTableError,
    SizeError,
    StateError,
)
from .kernel import (  # noqa: F401  (re-exported)
    MAX_QUBITS,
    OracleSpec,
    check_iterations,
    check_register,
    closed_form_probability,
    final_amplitudes,
    grover_amplitudes,
    iteration_bound,
    optimal_iterations,
    register_qubits,
)

# Norm drift beyond this raises instead of silently renormalizing, so
# operator bugs cannot hide behind a cleanup step.
NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class QuantumState:
    """Amplitude vector of an ``n_qubits`` register.

    The amplitude array is copied on construction and treated as
    immutable; every operation returns a fresh state.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_register(self.n_qubits)
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise DimensionError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return 2**self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class FeatureTable:
    """Lookup table from register index to an opaque feature label."""

    entries: Mapping[int, str]

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        n = len(entries)
        if n == 0:
            raise MalformedTableError("feature table is empty")
        if set(entries) != set(range(n)):
            raise MalformedTableError(
                f"indices must be exactly 0..{n - 1}, got {sorted(entries)}"
            )
        labels = list(entries.values())
        if len(set(labels)) != len(labels):
            raise MalformedTableError("feature labels must be unique")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        """Load a two-column ``index,feature`` CSV (header required)."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["index", "feature"]:
                raise MalformedTableError(
                    f"expected header 'index,feature', got {header!r}"
                )
            entries: dict[int, str] = {}
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise MalformedTableError(f"malformed row: {row!r}")
                try:
                    idx = int(row[0])
                except ValueError:
                    raise MalformedTableError(
                        f"index must be an integer, got {row[0]!r}"
                    ) from None
                if idx in entries:
                    raise MalformedTableError(f"duplicate index {idx}")
                entries[idx] = row[1]
        return cls(entries)


def uniform_superposition(n_qubits: int) -> QuantumState:
    """Equal-weight superposition, amplitude ``1/sqrt(N)`` everywhere."""
    n = 2 ** check_register(n_qubits)
    return QuantumState(n_qubits, np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128))


def basis_state(n_qubits: int, index: int) -> QuantumState:
    """Computational basis state with amplitude 1 at ``index``."""
    amps = np.zeros(2 ** check_register(n_qubits), dtype=np.complex128)
    amps[index] = 1.0
    return QuantumState(n_qubits, amps)


def build_oracle(table: FeatureTable, desired_feature: str) -> OracleSpec:
    """Resolve a feature label to the marked index it identifies."""
    n = len(table)
    n_qubits = n.bit_length() - 1
    if 2**n_qubits != n:
        raise MalformedTableError(f"table size {n} is not a power of two")
    matches = [i for i, label in table.entries.items() if label == desired_feature]
    if not matches:
        raise FeatureNotFoundError(f"feature {desired_feature!r} not in table")
    return OracleSpec(target=matches[0], n_qubits=n_qubits)


def _check_dims(n_qubits: int, oracle: OracleSpec) -> None:
    """The one oracle-size rule: the oracle marks an index of this register."""
    if n_qubits != oracle.n_qubits:
        raise DimensionError(
            f"register has {n_qubits} qubits, oracle expects {oracle.n_qubits}"
        )


def apply_oracle(state: QuantumState, oracle: OracleSpec) -> QuantumState:
    """Negate the amplitude of the marked index (phase kickback)."""
    _check_dims(state.n_qubits, oracle)
    amps = state.amplitudes.copy()
    amps[oracle.target] = -amps[oracle.target]
    return QuantumState(state.n_qubits, amps)


def apply_diffusion(state: QuantumState) -> QuantumState:
    """Inversion about the mean: ``a_i -> 2*mean(a) - a_i``."""
    mean = state.amplitudes.mean()
    return QuantumState(state.n_qubits, 2.0 * mean - state.amplitudes)


def grover_iterate(state: QuantumState, oracle: OracleSpec) -> QuantumState:
    """One amplification step: oracle flip then diffusion."""
    return apply_diffusion(apply_oracle(state, oracle))


def run_grover(n_qubits: int, oracle: OracleSpec, iterations: int) -> QuantumState:
    """Uniform start followed by ``iterations`` Grover iterates."""
    _check_dims(n_qubits, oracle)
    a_t, a_r = final_amplitudes(n_qubits, iterations)
    amps = np.full(2**n_qubits, a_r, dtype=np.complex128)
    amps[oracle.target] = a_t
    return QuantumState(n_qubits, amps)


def success_probability(state: QuantumState, target: int) -> float:
    """Probability of collapsing onto ``target``."""
    OracleSpec(target=target, n_qubits=state.n_qubits)  # the target rule
    return float(abs(state.amplitudes[target]) ** 2)


def measure(state: QuantumState, rng: np.random.Generator) -> int:
    """Sample one collapse outcome; the caller's state is untouched."""
    norm = state.norm()
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise StateError(f"state norm {norm} is not 1 within {NORM_TOLERANCE}")
    probs = state.probabilities()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, rng.random(), side="right"))


# -- dense-matrix cross-validation path -------------------------------------

DENSE_MAX_QUBITS = 4

_H1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


def hadamard_matrix(n_qubits: int) -> np.ndarray:
    """Kronecker power of the one-qubit Hadamard."""
    if n_qubits == 0:
        return np.eye(1, dtype=np.complex128)
    return reduce(np.kron, [_H1] * n_qubits)


def oracle_matrix(oracle: OracleSpec) -> np.ndarray:
    """Diagonal +-1 matrix with -1 at the marked index."""
    diag = np.ones(2**oracle.n_qubits, dtype=np.complex128)
    diag[oracle.target] = -1.0
    return np.diag(diag)


def phase_shift_matrix(n_qubits: int) -> np.ndarray:
    """Conditional phase shift ``2|0><0| - I``."""
    m = -np.eye(2**n_qubits, dtype=np.complex128)
    m[0, 0] = 1.0
    return m


def run_grover_dense(n_qubits: int, oracle: OracleSpec, iterations: int) -> QuantumState:
    """Literal matrix pipeline, usable up to ``DENSE_MAX_QUBITS`` qubits."""
    if n_qubits > DENSE_MAX_QUBITS:
        raise SizeError(
            f"dense pipeline capped at {DENSE_MAX_QUBITS} qubits, got {n_qubits}"
        )
    _check_dims(n_qubits, oracle)
    h = hadamard_matrix(n_qubits)
    iterate = h @ phase_shift_matrix(n_qubits) @ h @ oracle_matrix(oracle)
    psi = h @ basis_state(n_qubits, 0).amplitudes
    for _ in range(iterations):
        psi = iterate @ psi
    return QuantumState(n_qubits, psi)
