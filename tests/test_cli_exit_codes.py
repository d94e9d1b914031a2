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
import re
import signal
import subprocess
import sys
import tempfile
import time
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


def test_parser_out_of_memory_exits_1(monkeypatch, capsys):
    """Building the parser can run out of memory too: argparse loads ``locale`` then."""

    def build_parser(command=None):
        raise MemoryError

    monkeypatch.setattr("qdating.cli.build_parser", build_parser)
    assert main(["analytic", "--n", "8"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


SRC = Path(__file__).resolve().parent.parent / "src"
# One BLAS thread, so that a child's address space does not grow with the cores.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                 OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
SWEEP = ["sweep", "--variant", "2", "--qubits", "3", "--trials", "1000", "--seed", "1"]
needs_rlimit_as = pytest.mark.skipif(
    sys.platform != "linux", reason="needs RLIMIT_AS to bound the address space"
)


def run_limited(argv, limit):
    """``python -m qdating *argv``, the child's address space capped at ``limit``."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "qdating", *argv], env=CHILD_ENV,
        preexec_fn=limit_memory, capture_output=True, text=True, timeout=120,
    )


# What ``python -m qdating *argv`` runs, as a statement for ``peak_address_space``.
MAIN = "import sys\nfrom qdating.cli import main\nmain(sys.argv[1:])"


def peak_address_space(statement, *argv):
    """The peak address space (``VmPeak``, bytes) of a child that runs ``statement``."""
    code = f"{statement}\nprint(open('/proc/self/status').read())"
    status = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=CHILD_ENV, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    (kib,) = re.findall(r"^VmPeak:\s+(\d+) kB$", status, re.MULTILINE)
    return int(kib) << 10


@needs_rlimit_as
def test_out_of_memory_exits_1_with_one_error_line(tmp_path):
    """A sweep that runs out of memory says so in one line and writes nothing.

    A grid-cap sweep holds its 8 MB table and one grid row of text, so its
    peak address space is only a few MiB above a 21 x 21 sweep's.  The
    limits are measured, not fixed: each whole MiB below the grid-cap
    sweep's peak, going down, until one stops it after numpy has loaded
    (its line names no shared object) and lets the 21 x 21 sweep run.  The
    outcome does not fall with the limit: on a 2-core Xeon VM (Python
    3.11.7, numpy 2.4.6) the peaks were 107.0 and 115.4 MiB, and the grid-cap
    sweep ran to the end at 111, 112 and 115 MiB, failed to map a numpy
    ``.so`` at 107 to 109 and 114 MiB, and ran out after numpy loaded at 110
    and 113 MiB.
    """
    mib = 1 << 20
    measured = str(tmp_path / "measured.csv")
    low, high = (
        peak_address_space(MAIN, *SWEEP, f"--grid={grid}", "--out", measured)
        for grid in (21, MAX_GRID_POINTS)
    )
    assert high - low >= 4 * mib
    for limit in range(high // mib * mib - mib, low, -mib):
        out = tmp_path / str(limit // mib)
        out.mkdir()
        capped = run_limited(
            [*SWEEP, f"--grid={MAX_GRID_POINTS}", "--out", str(out / "s.csv")], limit
        )
        assert capped.returncode in (0, 1), (limit, capped.stderr)
        assert "Traceback" not in capped.stderr, limit
        if capped.returncode == 0:
            continue
        (line,) = capped.stderr.splitlines()
        assert line.startswith("error: ") and line[len("error: "):].strip()
        assert list(out.iterdir()) == [], limit
        if ".so" in line:  # numpy itself did not load
            continue
        control = run_limited([*SWEEP, "--grid=21", "--out", str(out / "s.csv")], limit)
        if control.returncode == 0:
            break
    else:
        pytest.fail("no limit stopped the grid-cap sweep alone")


@needs_rlimit_as
def test_failed_numpy_import_exits_1_with_one_error_line(tmp_path):
    """A sweep whose numpy cannot load says so in one line; a trace needs no numpy.

    The limits are measured, not fixed: every whole MiB from the peak
    address space of a child that imports numpy to that of one that also
    imports ``numpy.random``, which a sweep loads last.  Which step fails
    first does not rise with the limit: on a 2-core Xeon VM (Python 3.11.7,
    numpy 2.4.6) the peaks were 97 and 106 MiB, and a sweep ran out at
    Python's allocator, at numpy's, or at a shared object that numpy could
    not map, which raised an ``ImportError`` whose message spans lines, or
    it ran to the end.  Below that band, at 70 to 90 MiB, OpenBLAS ended the
    process with its own one-line message.
    """
    mib = 1 << 20
    low, high = (peak_address_space(f"import {module}") for module in ("numpy", "numpy.random"))
    import_failures = 0
    for limit in range(-(-low // mib) * mib, high + mib, mib):
        out = tmp_path / str(limit // mib)
        out.mkdir()
        sweep = run_limited([*SWEEP, "--out", str(out / "s.csv")], limit)
        assert sweep.returncode in (0, 1), (limit, sweep.stderr)
        assert "Traceback" not in sweep.stderr, limit
        if sweep.returncode:
            (line,) = sweep.stderr.splitlines()
            assert line.startswith("error: ") and line[len("error: "):].strip()
            assert list(out.iterdir()) == [], limit
            import_failures += ".so" in line  # a library that could not be mapped
    assert import_failures, "no limit in the band stopped numpy from loading"
    trace = run_limited(
        ["trace", "--qubits", "10", "--target", "7", "--iterations", "30",
         "--out", str(tmp_path / "t.csv")], low,
    )
    assert trace.returncode == 0, trace.stderr


# One run per command; DIR is its output directory.  The rerun replays the
# sweep, whose files are in DIR before it starts.
CAPPED_RUNS = {
    "analytic": ["analytic", "--n", "1024"],
    "trace": ["trace", "--qubits", "10", "--target", "7", "--iterations", "30",
              "--out", "DIR/t.csv"],
    "game": ["game", "--variant", "1", "--qubits", "3", "--pc", "0.8", "--pq", "0.3",
             "--trials", "1000", "--seed", "1"],
    "sweep": [*SWEEP, "--grid=21", "--out", "DIR/s.csv", "--boundary-out", "DIR/b.csv"],
    "rerun": ["rerun", "--manifest", "DIR/s.csv.manifest"],
}


@needs_rlimit_as
@pytest.mark.parametrize("command", CAPPED_RUNS)
def test_capped_run_exits_with_one_line_at_most_and_leaves_no_file(tmp_path, command):
    """Under an address-space cap, a run ends in one stderr line at most.

    The caps are 60, 80 and 95 % of the command's own peak address space,
    and never below ``python -c pass``'s peak, rounded up to a whole MiB:
    below that the interpreter itself fails before any of the program
    runs.  A run that fails leaves its directory as it was, and one that
    succeeds leaves what an uncapped run leaves.  On a 2-core Xeon VM
    (Python 3.11.7, numpy 2.4.6) the peaks were 16.2 MiB for ``pass``,
    18.0 MiB for ``analytic`` and ``trace`` and 107.0 MiB for the rest.
    Every capped run exited 1: ``analytic`` and ``trace`` at 17.0 and
    17.1 MiB with ``error: MemoryError`` (or, in 2 of 20 runs,
    ``error: SystemError``), the others with OpenBLAS's own line at 60 and
    80 % and with a numpy shared object that could not be mapped at 95 %.
    """
    mib = 1 << 20
    out = tmp_path / "out"
    argv = [arg.replace("DIR", str(out)) for arg in CAPPED_RUNS[command]]
    out.mkdir()
    if command == "rerun":
        assert main([arg.replace("DIR", str(out)) for arg in CAPPED_RUNS["sweep"]]) == 0
    else:
        (out / "t.csv").write_text("earlier\n")

    def files():
        return {path.name: path.read_bytes() for path in out.iterdir()}

    before = files()
    peak = peak_address_space(MAIN, *argv)
    after = files()
    floor = -(-peak_address_space("pass") // mib) * mib
    for limit in sorted({max(int(share * peak), floor) for share in (0.6, 0.8, 0.95)}):
        for path in out.iterdir():
            path.unlink()
        for name, data in before.items():
            (out / name).write_bytes(data)
        capped = run_limited(argv, limit)
        assert capped.returncode in (0, 1, 2), (limit, capped.stderr)
        assert "Traceback" not in capped.stderr, (limit, capped.stderr)
        assert len(capped.stderr.splitlines()) <= 1, (limit, capped.stderr)
        assert files() == (after if capped.returncode == 0 else before), limit


# ``entrypoint`` with every chunk's write slowed, so that a signal lands mid-write.
SLOW_WRITE = """
import time
from qdating import cli
write_text = cli.write_text
def slow_write_text(fh, text):
    write_text(fh, text)
    time.sleep(0.5)
cli.write_text = slow_write_text
cli.entrypoint()
"""


# The sweep cases keep the bare signal names as ids.
SIGNAL_RUNS = [
    pytest.param(run, signum, id=f"{run}-{signum.name[3:]}".removeprefix("sweep-"))
    for run in ("sweep", "trace", "rerun")
    for signum in (signal.SIGTERM, signal.SIGINT)
]


@pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX signals")
@pytest.mark.parametrize("run, signum", SIGNAL_RUNS)
def test_signal_mid_write_exits_with_one_line_and_leaves_no_file(tmp_path, run, signum):
    """SIGTERM or SIGINT while a run's files are staged: one line, exit 128 + n.

    The run is a sweep, a trace, or a ``rerun`` of a sweep's manifest.  The
    earlier run's files stay as they were, and no temporary file is left.
    """
    out = str(tmp_path / "s.csv")
    sweep = [*SWEEP, "--grid=21", "--out", out, "--boundary-out", str(tmp_path / "b.csv")]
    argv = {
        "sweep": sweep,
        "trace": ["trace", "--qubits", "10", "--target", "7", "--iterations", "30",
                  "--out", out],
        "rerun": ["rerun", "--manifest", out + ".manifest"],
    }[run]
    if run == "rerun":
        assert main(sweep) == 0  # the earlier run, which the rerun replays
    else:
        (tmp_path / "s.csv").write_text("earlier\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    child = subprocess.Popen(
        [sys.executable, "-c", SLOW_WRITE, *argv],
        env=CHILD_ENV, stderr=subprocess.PIPE, text=True,
        # A SIGINT that this process ignores would be ignored by the child too.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("*.tmp")):
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < deadline, "no temporary file appeared"
            time.sleep(0.01)
        child.send_signal(signum)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 128 + signum, err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: stopped by {signal.Signals(signum).name}"]
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
