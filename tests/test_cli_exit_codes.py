"""Every argv the CLI accepts ends with exit code 0, 1 or 2, never a traceback.

Accepted sizes are bounded by arithmetic, not by trust in the validators:
at most 21 qubits, 2000 iterates and a 5 x 5 grid.  Grids past
``MAX_GRID_POINTS`` (cap + 1 to cap + 3, and 10**9 a side) are drawn too;
that they are refused before any cell is played is what they test, and
what keeps them cheap.  No command builds an amplitude vector, the Grover
kernel costs O(1) per iterate and a match is two binomial draws whatever
its trials, so trials run up to past numpy's 2**63 - 1 limit and every
example is still cheap.  A run that exits non-zero writes no file, also
when one output's directory is missing and another's is not, or when an
output's name holds a line break or bytes that are not UTF-8, which its
manifest cannot record.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdating.cli import main
from qdating.experiment import MAX_GRID_POINTS

QUBITS = st.integers(-2, 21)
TRIALS = st.one_of(st.integers(-2, 200), st.integers(2**63 - 3, 2**63 + 1))
GRID = st.one_of(
    st.integers(-1, 5),
    st.integers(MAX_GRID_POINTS + 1, MAX_GRID_POINTS + 3),
    st.just(10**9),
)
ITERATIONS = st.integers(-2, 2000)
SEEDS = st.integers(-2, 2**64 - 1)
INDICES = st.integers(-2, 300)
PROBABILITIES = st.one_of(
    st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf, -math.inf])
)
VARIANTS = st.integers(1, 2)
STRATEGIES = st.sampled_from(["memoryless", "sweep"])


def output(name):
    """An output path, relative to the example's directory: "missing" is never made.

    ``\udcff`` is how Python holds a name's undecodable byte 0xff.
    """
    return st.sampled_from([name, f"missing/{name}", f"{name}\n{name}", f"\udcff{name}"])


OUTPUTS = ("out", "boundary-out")

# command -> (required options, optional options), each option -> values.
COMMANDS = {
    "trace": (
        {"qubits": QUBITS, "target": INDICES, "iterations": ITERATIONS,
         "out": output("out")},
        {},
    ),
    "game": (
        {"variant": VARIANTS, "qubits": QUBITS, "pc": PROBABILITIES,
         "pq": PROBABILITIES},
        {"trials": TRIALS, "seed": SEEDS, "target": INDICES,
         "classic-strategy": STRATEGIES, "grover-iterations": ITERATIONS},
    ),
    "sweep": (
        {"variant": VARIANTS, "qubits": QUBITS, "out": output("out")},
        {"grid": GRID, "trials": TRIALS, "seed": SEEDS,
         "classic-strategy": STRATEGIES, "grover-iterations": ITERATIONS,
         "boundary-out": output("boundary-out")},
    ),
    "analytic": (
        {"n": st.one_of(INDICES, QUBITS.map(lambda q: 2**q if q >= 0 else q))},
        {"iterations": ITERATIONS, "variant": VARIANTS, "pc": PROBABILITIES,
         "pq": PROBABILITIES, "classic-strategy": STRATEGIES,
         "grover-iterations": ITERATIONS},
    ),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    chosen = dict(required)
    chosen.update(
        (name, values) for name, values in optional.items() if draw(st.booleans())
    )
    return [command] + [(name, draw(values)) for name, values in chosen.items()]


@given(invocations())
# An unwritable --out beside a writable --boundary-out.
@example(["sweep", ("variant", 2), ("qubits", 3), ("grid", 3), ("trials", 10),
          ("seed", 1), ("out", "missing/out"), ("boundary-out", "boundary-out")])
# An --out whose name is not UTF-8 (the byte 0xff).
@example(["trace", ("qubits", 3), ("target", 1), ("iterations", 2),
          ("out", "\udcff.csv")])
@settings(max_examples=200, deadline=None)
def test_exit_code_is_0_1_or_2(invocation):
    command, options = invocation[0], invocation[1:]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command] + [
            f"--{name}={os.path.join(tmp, value) if name in OUTPUTS else value}"
            for name, value in options
        ]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        left = os.listdir(tmp)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue()
    assert code == 0 or left == [], (argv, code, left)


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--qubits=2000", "--target=0", "--iterations=1", "--out=OUT"],
        ["analytic", f"--n={2**1100}"],
        ["analytic", f"--n={2**1100}", "--iterations=1"],
        ["analytic", f"--n={2**1100}", "--variant=1", "--pc=0.5", "--pq=0.5"],
        ["analytic", f"--n={2**21}"],
        ["analytic", "--n=8", f"--iterations=1{'0' * 400}"],
        ["analytic", "--n=8", "--variant=1", "--pc=0.5", "--pq=0.5",
         f"--grover-iterations=1{'0' * 400}"],
        ["game", "--variant=1", "--qubits=3", "--pc=0.5", "--pq=0.5", "--seed=1",
         f"--trials={2**63}"],
    ],
    ids=["trace", "analytic-optimal", "analytic-probability", "analytic-expected",
         "analytic-2**21", "analytic-iterations", "analytic-grover-iterations",
         "game-trials"],
)
def test_oversized_inputs_exit_1(argv, tmp_path, capsys):
    """Sizes past the register or numeric limits are refused, not computed.

    numpy's binomial draw takes at most 2**63 - 1 turns.
    """
    argv = [arg.replace("OUT", str(tmp_path / "x.csv")) for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.skipif(
    sys.platform != "linux", reason="needs RLIMIT_AS to bound the address space"
)
def test_out_of_memory_exits_1_with_one_error_line(tmp_path):
    """A sweep that runs out of memory says so in one line and writes nothing.

    Under a 160 MiB address-space limit on the child alone, numpy and a
    21 x 21 sweep fit, but the text of a grid-cap sweep (38 MB, held as row
    chunks and joined) does not.  On a 2-core Xeon VM (Python 3.11.7, numpy
    2.4.6) numpy failed to load at 100 MiB, and the grid-cap sweep ran to
    the end at 250 MiB.
    """
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (160 << 20, 160 << 20))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    for grid in (21, MAX_GRID_POINTS):
        out = tmp_path / str(grid)
        out.mkdir()
        results[grid] = subprocess.run(
            [sys.executable, "-m", "qdating", "sweep", "--variant", "2",
             "--qubits", "3", f"--grid={grid}", "--trials", "1000", "--seed", "1",
             "--out", str(out / "s.csv")],
            env=env, preexec_fn=limit_memory, capture_output=True, text=True,
            timeout=120,
        )
    control, capped = results[21], results[MAX_GRID_POINTS]
    assert control.returncode == 0, control.stderr
    assert capped.returncode == 1, capped.stderr
    (line,) = capped.stderr.splitlines()
    assert line.startswith("error: ") and line[len("error: "):].strip()
    assert list((tmp_path / str(MAX_GRID_POINTS)).iterdir()) == []
