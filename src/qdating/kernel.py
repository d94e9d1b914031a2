"""The Grover kernel, the closed form and their parameter rules, in plain floats.

From the uniform start with one marked index every other amplitude stays
equal, so ``grover_amplitudes`` iterates the pair (target, each other) in
O(1) per step with no oracle.  ``closed_form_probability``,
sin^2((2k+1) * arcsin(1/sqrt(N))) (Boyer, Brassard, Hoyer and Tapp 1998),
is its independent judge.  Nothing here needs numpy, so ``trace``,
``analytic`` and a ``GameConfig`` do not load it; ``statevector``
re-exports every name.  ``n_qubits = 0`` (N = 1) is accepted so the game
layer can model the one-woman market; the iterate is then a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ConfigurationError, SizeError

MAX_QUBITS = 20


def check_register(n_qubits: int) -> int:
    """The one register-size rule: ``0 <= n_qubits <= MAX_QUBITS``."""
    if not 0 <= n_qubits <= MAX_QUBITS:
        raise SizeError(f"n_qubits must be in [0, {MAX_QUBITS}], got {n_qubits}")
    return n_qubits


def register_qubits(N: int) -> int:
    """Qubit count of an ``N``-entry register; N must be a power of two."""
    if N < 1 or N & (N - 1):
        raise ConfigurationError(f"N must be a power of two >= 1, got {N}")
    return check_register(N.bit_length() - 1)


@dataclass(frozen=True)
class OracleSpec:
    """Marked index the oracle phase-flips."""

    target: int
    n_qubits: int

    def __post_init__(self) -> None:
        check_register(self.n_qubits)
        if not 0 <= self.target < 2**self.n_qubits:
            raise ConfigurationError(
                f"target {self.target} out of range for {self.n_qubits} qubits"
            )


def iteration_bound(n_qubits: int) -> int:
    """Guard rail against useless over-rotation loops."""
    return int(10 * math.sqrt(2**n_qubits))


def check_iterations(n_qubits: int, iterations: int) -> int:
    """The one iterate-count rule: ``0 <= iterations <= iteration_bound``."""
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
    if iterations > iteration_bound(n_qubits):
        raise ConfigurationError(
            f"{iterations} iterations exceeds the 10*sqrt(N) bound "
            f"({iteration_bound(n_qubits)}) for {n_qubits} qubits"
        )
    return iterations


def grover_amplitudes(n_qubits: int, iterations: int) -> Iterator[tuple[float, float]]:
    """(target, each other) amplitude at the uniform start and after each iterate.

    From the uniform start with one marked index every other amplitude
    stays equal and real (Grover 1996), so one iterate costs O(1) whatever
    N is.  When N = 1 there is no other index and the second value is not
    an amplitude.  The pair does not depend on which index is marked.
    """
    N = 2 ** check_register(n_qubits)
    check_iterations(n_qubits, iterations)
    a_t = a_r = 1.0 / math.sqrt(N)
    yield a_t, a_r
    for _ in range(iterations):
        # Oracle flips a_t; diffusion maps every a_i to 2*mean - a_i.
        mean = (-a_t + (N - 1) * a_r) / N
        a_t, a_r = 2.0 * mean + a_t, 2.0 * mean - a_r
        yield a_t, a_r


def final_amplitudes(n_qubits: int, iterations: int) -> tuple[float, float]:
    """The last pair of ``grover_amplitudes``."""
    for pair in grover_amplitudes(n_qubits, iterations):
        pass
    return pair


def closed_form_probability(N: int, iterations: int) -> float:
    """Rotation-angle formula ``sin^2((2k+1) * arcsin(1/sqrt(N)))``.

    Independent of the state-vector path; used as its verification oracle,
    so it takes k past the iterate bound of ``check_iterations``, while
    2k+1 is still an exact float (k < 2^52).
    """
    register_qubits(N)
    if not 0 <= iterations < 2**52:
        raise ConfigurationError(f"iterations must be in [0, 2**52), got {iterations}")
    theta = math.asin(1.0 / math.sqrt(N))
    return math.sin((2 * iterations + 1) * theta) ** 2


def optimal_iterations(N: int) -> int:
    """Smallest iterate count maximizing the closed-form success probability.

    Scans k = 0 .. ceil(pi / (4*arcsin(1/sqrt(N)))); ties go to smaller k
    (at N=2 every k gives 1/2, so the scan returns 0).
    """
    register_qubits(N)
    theta = math.asin(1.0 / math.sqrt(N))
    k_max = math.ceil(math.pi / (4.0 * theta))
    best_k, best_p = 0, -1.0
    for k in range(k_max + 1):
        p = closed_form_probability(N, k)
        # Strict improvement beyond rounding noise, so exact ties (N=2
        # gives 1/2 for every k) resolve to the smallest k.
        if p > best_p + 1e-12:
            best_k, best_p = k, p
    return best_k
