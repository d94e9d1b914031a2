import argparse
import contextlib
import hashlib
import io
import math
import os
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdating import cli
from qdating.cli import main, read_manifest
from qdating.experiment import MAX_GRID_POINTS
from qdating.game import ENGINE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrace:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code, _, _ = run_cli(
            capsys,
            "trace", "--qubits", "10", "--target", "7",
            "--iterations", "30", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,p_target,p_other_each,amp_target"
        assert len(lines) == 32
        p_by_iter = [float(line.split(",")[1]) for line in lines[1:]]
        assert p_by_iter.index(max(p_by_iter)) == 25
        manifest = read_manifest(str(out) + ".manifest")
        assert manifest["command"] == "trace"
        assert manifest["qubits"] == "10"

    def test_small_trace_values(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys,
            "trace", "--qubits", "3", "--target", "3",
            "--iterations", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("0,0.125,")
        assert lines[2].startswith("1,0.78125,")

    def test_zero_qubits_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "trace", "--qubits", "0", "--target", "0",
            "--iterations", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "qubits" in err

    def test_target_out_of_range(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "trace", "--qubits", "2", "--target", "9",
            "--iterations", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "target" in err

    def test_missing_flags(self, capsys):
        code, _, _ = run_cli(capsys, "trace", "--qubits", "2")
        assert code == 2


class TestGame:
    def test_single_woman_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game", "--variant", "1", "--qubits", "0", "--pc", "0.8",
            "--pq", "0.3", "--trials", "200000", "--seed", "1",
        )
        assert code == 0
        fields = out.strip().split(",")
        assert fields[0] == "1"
        assert fields[1] == "1"
        d_over_t = float(fields[7])
        assert d_over_t == pytest.approx(-0.5, abs=4 * math.sqrt(0.5 / 200_000))

    def test_zero_probabilities(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game", "--variant", "1", "--qubits", "3", "--pc", "0",
            "--pq", "0", "--trials", "1000", "--seed", "7",
        )
        assert code == 0
        assert out.strip() == "1,8,0,0,1000,0,0,0,7"

    def test_game2_handicap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game", "--variant", "2", "--qubits", "3", "--pc", "1",
            "--pq", "0.2", "--trials", "200000", "--seed", "3",
        )
        assert code == 0
        d_over_t = float(out.strip().split(",")[7])
        expected = 25 / 32 * 0.2 - (1 - (7 / 8) ** 4)
        assert d_over_t == pytest.approx(expected, abs=4 * math.sqrt(0.5 / 200_000))

    def test_game2_largest_register(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game", "--variant", "2", "--qubits", "20", "--trials", "1000",
            "--pc", "0.5", "--pq", "0.5", "--seed", "1",
        )
        assert code == 0
        assert out.startswith("2,1048576,0.5,0.5,1000,")

    def test_trials_past_any_turn_array(self, capsys):
        # 10**13 turns would be 80 TB as one int64 per turn; two binomial
        # draws need none.
        code, out, _ = run_cli(
            capsys,
            "game", "--variant", "1", "--qubits", "3", "--pc", "0.5",
            "--pq", "0.5", "--seed", "1", f"--trials={10**13}",
        )
        assert code == 0
        row = out.strip().split(",")
        assert row[4] == str(10**13)
        assert 0 < int(row[5]) < 10**13 and 0 < int(row[6]) < 10**13

    def test_largest_trials(self, capsys):
        # numpy's binomial draw takes at most 2**63 - 1 turns; that many is played.
        code, out, _ = run_cli(
            capsys,
            "game", "--variant", "1", "--qubits", "3", "--pc", "0.5",
            "--pq", "0.5", "--seed", "1", f"--trials={2**63 - 1}",
        )
        assert code == 0
        assert out.strip().split(",")[4] == str(2**63 - 1)

    def test_probability_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            "game", "--variant", "1", "--qubits", "3", "--pc", "1.5",
            "--pq", "0.2", "--seed", "1",
        )
        assert code == 1
        assert "pc" in err

    @pytest.mark.parametrize(
        "qubits, seed, word",
        # Philox keys are 128 bits, so a seed of 2**128 would alias seed 0.
        [("-1", "1", "n_qubits"), ("3", "-1", "seed"), ("3", str(2**128), "seed")],
    )
    def test_negative_size_or_seed(self, capsys, qubits, seed, word):
        code, _, err = run_cli(
            capsys,
            "game", "--variant", "1", "--pc", "0.5", "--pq", "0.5",
            f"--qubits={qubits}", f"--seed={seed}",
        )
        assert code == 1
        assert err.startswith("error:") and word in err

    def test_entropy_seed_recorded(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game", "--variant", "1", "--qubits", "2", "--pc", "0.5",
            "--pq", "0.5", "--trials", "100",
        )
        assert code == 0
        seed = int(out.strip().split(",")[8])
        # Replaying the recorded seed reproduces the row.
        code2, out2, _ = run_cli(
            capsys,
            "game", "--variant", "1", "--qubits", "2", "--pc", "0.5",
            "--pq", "0.5", "--trials", "100", "--seed", str(seed),
        )
        assert code2 == 0
        assert out2 == out


class TestSweep:
    def test_writes_grid_and_boundary(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        bout = tmp_path / "b.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--variant", "2", "--qubits", "3", "--grid", "21",
            "--trials", "200", "--seed", "1", "--out", str(out),
            "--boundary-out", str(bout),
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "p_c,p_q,d_over_t,d_over_t_expected,trials"
        assert len(rows) == 1 + 441
        boundary = [line.split(",") for line in bout.read_text().splitlines()[1:]]
        for p_q, p_c_zero in ((float(a), float(b)) for a, b in boundary):
            if 0.1 <= p_q <= 0.5:
                assert 1.5 <= p_c_zero / p_q <= 2.6

    def test_game1_expected_column_nonnegative_above_boundary(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--variant", "1", "--qubits", "3", "--grid", "21",
            "--trials", "50", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 441
        for line in lines:
            p_c, p_q, _, expected, _ = line.split(",")
            if float(p_c) <= 6.25 * float(p_q):
                assert float(expected) >= -1e-12

    def test_grid_cap_is_the_documented_one(self):
        assert MAX_GRID_POINTS == 1001

    def test_memory_at_the_grid_cap(self, tmp_path, capsys):
        # The table's one G x G array (8 MB) and one grid row of CSV text at
        # a time: the 38 MB of text is never held whole.
        import numpy  # noqa: F401  (its import is not the sweep's memory)

        tracemalloc.start()
        try:
            code, _, err = run_cli(
                capsys, "sweep", "--variant", "2", "--qubits", "3",
                "--grid", str(MAX_GRID_POINTS), "--trials", "10", "--seed", "1",
                "--out", str(tmp_path / "s.csv"), "--boundary-out", str(tmp_path / "b.csv"),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert (tmp_path / "s.csv").stat().st_size > 30 * 2**20
        assert peak < 12 * 2**20

    @pytest.mark.parametrize(
        "grid", [1, MAX_GRID_POINTS + 1, 100_000], ids=["1", "cap+1", "100000"]
    )
    def test_grid_out_of_range(self, tmp_path, capsys, grid):
        # Refused before any cell is played, however many cells it names.
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys,
            "sweep", "--variant", "1", "--qubits", "3", f"--grid={grid}",
            "--trials", "10", "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("usage error:") and "grid_points" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "qubits, seed, word",
        # Philox keys are 128 bits, so a seed of 2**128 would alias seed 0.
        [("-1", "1", "n_qubits"), ("3", "-1", "seed"), ("3", str(2**128), "seed")],
    )
    def test_negative_size_or_seed(self, tmp_path, capsys, qubits, seed, word):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys,
            "sweep", "--variant", "1", "--grid", "3", "--trials", "10",
            "--out", str(out), f"--qubits={qubits}", f"--seed={seed}",
        )
        assert code == 1
        assert err.startswith("error:") and word in err
        assert not out.exists()

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--variant", "1", "--qubits", "3", "--grid", "3",
            "--trials", "10", "--seed", "1",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 1
        assert err

    def test_unwritable_boundary_path_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys,
            "sweep", "--variant", "2", "--qubits", "3", "--grid", "3",
            "--trials", "10", "--seed", "1", "--out", str(out),
            "--boundary-out", str(tmp_path / "missing_dir" / "b.csv"),
        )
        assert code == 1
        assert err
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest").exists()

    @pytest.mark.parametrize("name", ["x.csv", "x.csv.manifest"])
    def test_boundary_out_overwritten_is_usage_error(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # A relative --out and an absolute --boundary-out naming the same file.
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            capsys,
            "sweep", "--variant", "2", "--qubits", "3", "--grid", "3",
            "--trials", "10", "--seed", "1", "--out", "x.csv",
            "--boundary-out", str(tmp_path / name),
        )
        assert code == 2
        assert err.startswith("usage error:") and "--boundary-out" in err
        assert list(tmp_path.iterdir()) == []

    def test_boundary_out_through_symlink_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        (tmp_path / "alias").symlink_to(tmp_path / "d")
        code, _, err = run_cli(
            capsys,
            "sweep", "--variant", "2", "--qubits", "3", "--grid", "3",
            "--trials", "10", "--seed", "1", "--out", str(tmp_path / "d" / "x.csv"),
            "--boundary-out", str(tmp_path / "alias" / "x.csv"),
        )
        assert code == 2
        assert err.startswith("usage error:") and "--boundary-out" in err
        assert list((tmp_path / "d").iterdir()) == []

    def test_empty_boundary_path_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # An empty path is an unwritable path, not an absent option.
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            capsys,
            "sweep", "--variant", "2", "--qubits", "3", "--grid", "3",
            "--trials", "10", "--seed", "1", "--out", "x.csv", "--boundary-out=",
        )
        assert code == 1
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestOutputs:
    """A run's files and manifest land together, or a failed run leaves none."""

    SWEEP = ("sweep", "--variant", "2", "--qubits", "3", "--trials", "10", "--seed", "1")

    def test_unwritable_out_leaves_no_boundary_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            capsys, *self.SWEEP, "--grid", "3",
            "--out", "missing/x.csv", "--boundary-out", "b.csv",
        )
        assert code == 1
        # The error names the path as given, not a temporary file beside it.
        assert err == "error: [Errno 2] No such file or directory: 'missing/x.csv'\n"
        assert list(tmp_path.iterdir()) == []

    def test_directory_manifest_leaves_no_csv(self, tmp_path, capsys):
        (tmp_path / "x.csv.manifest").mkdir()
        code, _, err = run_cli(
            capsys, *self.SWEEP, "--grid", "3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and "is a directory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv.manifest"]

    def test_failed_rerun_keeps_the_previous_files(self, tmp_path, capsys, monkeypatch):
        out, bout = tmp_path / "fig5.csv", tmp_path / "b.csv"
        manifest = tmp_path / "fig5.csv.manifest"
        code, _, _ = run_cli(
            capsys, *self.SWEEP, "--grid", "6",
            "--out", str(out), "--boundary-out", str(bout),
        )
        assert code == 0
        before = {path: path.read_bytes() for path in (out, bout, manifest)}
        # A manifest naming the same files, whose run would change all three.
        edited = tmp_path / "edited.manifest"
        edited.write_text(manifest.read_text().replace("grid=6", "grid=5"))
        real_write_text, files = cli.write_text, []

        def fail_on_the_second_file(fh, text):
            if fh.name not in files:
                files.append(fh.name)
            if len(files) == 2:  # the first chunk of the second output
                raise OSError("disk full")
            real_write_text(fh, text)

        monkeypatch.setattr(cli, "write_text", fail_on_the_second_file)
        code, _, err = run_cli(capsys, "rerun", "--manifest", str(edited))
        assert code == 1
        assert err == "error: disk full\n"
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(tmp_path.iterdir()) == sorted([*before, edited])

    def test_chunk_source_that_raises_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        out, bout = tmp_path / "fig5.csv", tmp_path / "b.csv"
        outputs = ("--out", str(out), "--boundary-out", str(bout))
        assert run_cli(capsys, *self.SWEEP, "--grid", "6", *outputs)[0] == 0
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        real_boundary_csv = cli.boundary_csv

        def fail_half_way(points):
            chunks = real_boundary_csv(points)
            yield next(chunks)
            yield next(chunks)
            raise MemoryError

        # A run that would change both files; the sweep's text is staged
        # whole before the boundary's source fails.
        monkeypatch.setattr(cli, "boundary_csv", fail_half_way)
        code, _, err = run_cli(capsys, *self.SWEEP, "--grid", "5", *outputs)
        assert code == 1
        assert err == "error: MemoryError\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_out_through_symlink_writes_its_target(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        target, link = tmp_path / "d" / "t.csv", tmp_path / "t.csv"
        target.write_text("earlier\n")
        link.symlink_to(target)
        code, _, _ = run_cli(
            capsys,
            "trace", "--qubits", "3", "--target", "1", "--iterations", "2",
            "--out", str(link),
        )
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().startswith("iteration,p_target")
        assert read_manifest(str(link) + ".manifest")["out"] == str(link)

    @pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["lf", "cr"])
    @pytest.mark.parametrize("option", ["--out", "--boundary-out"])
    def test_line_break_in_a_path_is_usage_error(
        self, tmp_path, capsys, monkeypatch, option, line_break
    ):
        # Written as it stands, the manifest's ``grid=2`` line would replay
        # a 2-point grid in place of the 3-point grid that was run.
        monkeypatch.chdir(tmp_path)
        paths = {"--out": "x.csv", "--boundary-out": "b.csv"}
        paths[option] += f"{line_break}grid=2"
        code, _, err = run_cli(
            capsys, *self.SWEEP, "--grid", "3",
            "--out", paths["--out"], "--boundary-out", paths["--boundary-out"],
        )
        assert code == 2
        assert err.startswith("usage error:") and f"{option} " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["--out", "--boundary-out"])
    def test_path_not_utf8_is_usage_error(self, tmp_path, capsys, monkeypatch, option):
        # A name with the byte 0xff, as Python holds it; the manifest is UTF-8.
        monkeypatch.chdir(tmp_path)
        paths = {"--out": "x.csv", "--boundary-out": "b.csv"}
        paths[option] = os.fsdecode(b"\xff" + os.fsencode(paths[option]))
        code, _, err = run_cli(
            capsys, *self.SWEEP, "--grid", "3",
            "--out", paths["--out"], "--boundary-out", paths["--boundary-out"],
        )
        assert code == 2
        assert err.startswith("usage error:") and f"{option} " in err
        assert "not valid UTF-8" in err
        assert list(tmp_path.iterdir()) == []

    def test_manifest_linked_to_out_is_usage_error(self, tmp_path, capsys):
        out, manifest = tmp_path / "t.csv", tmp_path / "t.csv.manifest"
        manifest.symlink_to(out)
        code, _, err = run_cli(
            capsys,
            "trace", "--qubits", "3", "--target", "1", "--iterations", "2",
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith("usage error:") and "--out" in err
        assert list(tmp_path.iterdir()) == [manifest] and not out.exists()


class TestAnalytic:
    def test_optimal_iterations(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--n", "1024")
        assert code == 0
        assert out.strip() == "optimal_iterations,25"

    def test_probability(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--n", "8", "--iterations", "1")
        assert code == 0
        assert out.strip() == "probability,0.78125"

    def test_non_power_of_two(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--n", "6")
        assert code == 1
        assert "power of two" in err

    def test_expected_dt_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analytic", "--n", "8", "--variant", "2",
            "--pc", "0.4", "--pq", "0.2",
        )
        assert code == 0
        label, value = out.strip().split(",")
        assert label == "expected_dt"
        assert float(value) == pytest.approx(-0.02924375, abs=1e-10)

    def test_expected_dt_needs_variant(self, capsys):
        code, _, _ = run_cli(capsys, "analytic", "--n", "8", "--pc", "0.4")
        assert code == 2

    def test_variant_alone_needs_probabilities(self, capsys):
        # --variant selects expected-d/t mode, not optimal-iterations mode.
        code, out, err = run_cli(capsys, "analytic", "--n", "8", "--variant", "1")
        assert code == 2
        assert out == ""
        assert "needs --variant, --pc and --pq" in err

    def test_expected_dt_refuses_iterations(self, capsys):
        # Q's iterates are --grover-iterations here; --iterations is the
        # probability mode's k and would be dropped.
        code, out, err = run_cli(
            capsys,
            "analytic", "--n", "8", "--iterations", "3", "--variant", "1",
            "--pc", ".5", "--pq", ".5",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and "--grover-iterations" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--grover-iterations", "3"],
            ["--iterations", "1", "--classic-strategy", "sweep"],
        ],
        ids=["optimal-grover-iterations", "probability-classic-strategy"],
    )
    def test_match_options_need_expected_dt_mode(self, capsys, argv):
        # Only expected-d/t mode plays a match; the other modes would drop
        # these options and print a value that ignores them.
        code, out, err = run_cli(capsys, "analytic", "--n", "8", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and "expected-d/t mode" in err

    def test_expected_dt_takes_match_options(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analytic", "--n", "8", "--variant", "2", "--pc", "0.4", "--pq", "0.2",
            "--grover-iterations", "2", "--classic-strategy", "sweep",
        )
        assert code == 0
        # p_G(k=2) = sin^2(5 asin(1/sqrt 8)) = 0.9453125; c = (4/8) * 0.4.
        assert out.strip() == "expected_dt,-0.0109375"


# Each ``analytic`` flag's values (None leaves it out), where a changed value
# changes the printed number.  N >= 8 and k <= iteration_bound(8): there
# p_G(k) takes a different value at each k (at N = 2 every k gives 1/2, at
# N = 4 k = 0 and 2 both give 1/4), and P_c, P_q > 0 keep each rate in play.
ANALYTIC_FLAGS = {
    "--n": st.sampled_from([2**e for e in range(3, 17)]),
    "--iterations": st.none() | st.integers(0, 28),
    "--variant": st.none() | st.sampled_from([1, 2]),
    "--pc": st.none() | st.integers(1, 20).map(lambda i: i / 20),
    "--pq": st.none() | st.integers(1, 20).map(lambda i: i / 20),
    "--grover-iterations": st.none() | st.integers(0, 28),
    "--classic-strategy": st.none() | st.sampled_from(["memoryless", "sweep"]),
}
# Left out, a match option takes GameConfig's value, which is no change.
ANALYTIC_DEFAULTS = {"--grover-iterations": 1, "--classic-strategy": "memoryless"}


def analytic(flags):
    """(exit code, stdout) of ``analytic`` with the flags that are not None."""
    argv = ["analytic"] + [f"{flag}={value}" for flag, value in flags.items()
                           if value is not None]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


# Expected-d/t mode needs three flags given and one left out, so the search
# reaches it least often; these change each flag of a game-2 call in turn.
GAME2 = {"--n": 8, "--iterations": None, "--variant": 2, "--pc": 0.4, "--pq": 0.2,
         "--grover-iterations": None, "--classic-strategy": None}
OTHER = {"--n": 16, "--iterations": 3, "--variant": 1, "--pc": 0.5, "--pq": 0.5,
         "--grover-iterations": 2, "--classic-strategy": "sweep"}


@given(st.fixed_dictionaries(ANALYTIC_FLAGS), st.fixed_dictionaries(ANALYTIC_FLAGS),
       st.sampled_from(sorted(ANALYTIC_FLAGS)))
@example(GAME2, OTHER, "--n")
@example(GAME2, OTHER, "--iterations")
@example(GAME2, OTHER, "--variant")
@example(GAME2, OTHER, "--pc")
@example(GAME2, OTHER, "--pq")
@example(GAME2, OTHER, "--grover-iterations")
@example(GAME2, OTHER, "--classic-strategy")
@settings(max_examples=300, deadline=None)
def test_analytic_flag_changes_stdout_or_is_refused(flags, other, flag):
    """No flag is taken and then ignored: a new value shows or is a usage error.

    The one exception is C's strategy in game 1, where C makes one attempt
    a turn, so the memoryless and the sweep search are the same search: its
    rate is P_c/N either way, and the printed values differ at most in their
    last digit, where 1 - (1 - P_c/N) rounds differently.
    """
    def value(v):
        return ANALYTIC_DEFAULTS.get(flag) if v is None else v

    new = other[flag]
    assume(value(new) != value(flags[flag]))
    (code, out), (new_code, new_out) = analytic(flags), analytic({**flags, flag: new})
    assert {code, new_code} <= {0, 2}
    if code == new_code == 0 and flag == "--classic-strategy" and flags["--variant"] == 1:
        values = [float(text.split(",")[1]) for text in (out, new_out)]
        assert values[0] == pytest.approx(values[1], rel=1e-11, abs=1e-15)
    elif code == new_code == 0:
        assert out != new_out, (flags, flag, new, out)


class TestManifestRoundTrip:
    def test_trace_rerun_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        run_cli(
            capsys,
            "trace", "--qubits", "5", "--target", "11",
            "--iterations", "8", "--out", str(out),
        )
        first = out.read_bytes()
        out.unlink()
        code, _, _ = run_cli(
            capsys, "rerun", "--manifest", str(out) + ".manifest"
        )
        assert code == 0
        assert out.read_bytes() == first

    def test_sweep_rerun_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        bout = tmp_path / "bnd.csv"
        run_cli(
            capsys,
            "sweep", "--variant", "2", "--qubits", "3", "--grid", "6",
            "--trials", "300", "--out", str(out), "--boundary-out", str(bout),
        )
        first, first_b = out.read_bytes(), bout.read_bytes()
        out.unlink()
        bout.unlink()
        code, _, _ = run_cli(capsys, "rerun", "--manifest", str(out) + ".manifest")
        assert code == 0
        assert out.read_bytes() == first
        assert bout.read_bytes() == first_b

    def test_manifest_schema(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run_cli(
            capsys,
            "sweep", "--variant", "1", "--qubits", "2", "--grid", "2",
            "--trials", "10", "--out", str(out),
        )
        manifest = read_manifest(str(out) + ".manifest")
        assert list(manifest)[:5] == ["command", "engine", "version", "python", "numpy"]
        assert manifest["command"] == "sweep"
        assert manifest["engine"] == ENGINE
        assert "boundary_out" not in manifest
        assert int(manifest["seed"]) >= 0

    def test_manifest_records_numpy_version(self, tmp_path, capsys):
        import numpy

        out = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            "trace", "--qubits", "3", "--target", "1", "--iterations", "2",
            "--out", str(out),
        )
        assert code == 0
        manifest = read_manifest(str(out) + ".manifest")
        assert list(manifest)[:5] == ["command", "engine", "version", "python", "numpy"]
        assert manifest["numpy"] == numpy.__version__

    def test_rerun_rewrites_the_same_manifest(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        manifest = tmp_path / "sweep.csv.manifest"
        run_cli(
            capsys,
            "sweep", "--variant", "2", "--qubits", "2", "--grid", "3",
            "--trials", "20", "--seed", "5", "--out", str(out),
        )
        first = manifest.read_bytes()
        code, _, _ = run_cli(capsys, "rerun", "--manifest", str(manifest))
        assert code == 0
        assert manifest.read_bytes() == first

    @pytest.mark.parametrize("key", ["numpy", "python"])
    def test_rerun_warns_when_the_environment_differs(self, tmp_path, capsys, key):
        out = tmp_path / "sweep.csv"
        manifest = tmp_path / "sweep.csv.manifest"
        run_cli(
            capsys,
            "sweep", "--variant", "2", "--qubits", "2", "--grid", "3",
            "--trials", "20", "--seed", "5", "--out", str(out),
        )
        first = {path: path.read_bytes() for path in (out, manifest)}
        assert run_cli(capsys, "rerun", "--manifest", str(manifest)) == (0, "", "")
        running = read_manifest(str(manifest))[key]
        text = manifest.read_text()
        assert text.count(f"\n{key}={running}\n") == 1
        manifest.write_text(text.replace(f"\n{key}={running}\n", f"\n{key}=0.0.1\n"))
        code, stdout, err = run_cli(capsys, "rerun", "--manifest", str(manifest))
        assert (code, stdout) == (0, "")
        assert err == f"warning: manifest written under {key} 0.0.1, running {running}\n"
        # The rerun's own manifest records the running versions again.
        assert {path: path.read_bytes() for path in first} == first

    def test_rerun_builds_one_parser(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "trace.csv"
        run_cli(
            capsys,
            "trace", "--qubits", "3", "--target", "1",
            "--iterations", "2", "--out", str(out),
        )
        calls = {"build_parser": 0, "main": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_parser", counted("build_parser", cli.build_parser))
        monkeypatch.setattr(cli, "main", counted("main", cli.main))
        assert cli.main(["rerun", "--manifest", str(out) + ".manifest"]) == 0
        assert calls == {"build_parser": 1, "main": 1}

    def test_blank_lines_between_keys_replay(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        manifest = tmp_path / "sweep.csv.manifest"
        run_cli(
            capsys,
            "sweep", "--variant", "1", "--qubits", "2", "--grid", "3",
            "--trials", "20", "--seed", "5", "--out", str(out),
        )
        first, first_manifest = out.read_bytes(), manifest.read_bytes()
        spaced = tmp_path / "spaced.manifest"
        spaced.write_text(manifest.read_text().replace("\n", "\n\n"))
        out.unlink()
        code, _, _ = run_cli(capsys, "rerun", "--manifest", str(spaced))
        assert code == 0
        assert out.read_bytes() == first
        assert manifest.read_bytes() == first_manifest

    @pytest.mark.parametrize(
        "case, code",
        [
            ("missing_key", 2),
            ("abbreviated_key", 2),
            ("not_text", 1),
            ("no_engine", 1),
            ("wrong_engine", 1),
            ("previous_engine", 1),
            ("self_rerun", 1),
            ("unknown_command", 1),
            ("target_out_of_range", 1),
            ("repeated_key", 1),
            ("no_equals_sign", 1),
        ],
    )
    def test_malformed_manifest(self, tmp_path, capsys, case, code):
        out = tmp_path / "trace.csv"
        manifest = tmp_path / "trace.csv.manifest"
        run_cli(
            capsys,
            "trace", "--qubits", "3", "--target", "1",
            "--iterations", "2", "--out", str(out),
        )
        lines = manifest.read_text().splitlines()
        if case == "missing_key":
            lines = [line for line in lines if not line.startswith("qubits=")]
        elif case == "abbreviated_key":
            lines = [line.replace("qubits=", "qub=") for line in lines]
        elif case == "not_text":
            lines = lines + ["target=\udcff"]
        elif case == "no_engine":
            lines = [line for line in lines if not line.startswith("engine=")]
        elif case == "wrong_engine":
            lines = [f"engine={ENGINE}-other" if line.startswith("engine=") else line
                     for line in lines]
        elif case == "previous_engine":
            lines = ["engine=philox-cell-5" if line.startswith("engine=") else line
                     for line in lines]
        elif case == "self_rerun":
            lines = ["command=rerun", f"engine={ENGINE}", f"manifest={manifest}"]
        elif case == "target_out_of_range":
            lines = ["target=99" if line.startswith("target=") else line
                     for line in lines]
        elif case == "repeated_key":
            lines = lines + ["iterations=1"]
        elif case == "no_equals_sign":
            lines = lines + ["iterations 1"]
        else:
            lines = ["command=frobnicate" if line.startswith("command=") else line
                     for line in lines]
        manifest.write_bytes(("\n".join(lines) + "\n").encode(errors="surrogateescape"))
        got, _, err = run_cli(capsys, "rerun", "--manifest", str(manifest))
        assert got == code
        assert "Traceback" not in err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1
        assert err.rstrip("\n").splitlines()[-1] == error_lines[0]
        if case == "no_equals_sign":
            assert error_lines == ["error: malformed manifest line: 'iterations 1'"]


class TestGoldenBytes:
    """The README's paper figures and ``game`` row, byte for byte.

    These digests change only together with ``ENGINE``.  ``FIG4`` and
    ``FIG5`` leave out the drawn ``d_over_t`` column, so they judge the
    closed form alone.  ``FIG4_DRAWN``, ``FIG5_DRAWN`` and ``GAME`` hold the
    draws too: a numpy whose Philox or binomial changes the stream fails
    ``test_sweep_draws`` and ``test_game_row``, and
    ``test_raw_words_match_the_reference_philox`` then says whether the raw
    Philox words changed.
    """

    FIG3 = "60a6c78481111af5c7048c88252a9a13d76cf80340da119cfd6a20cd3cda1cb0"
    BOUNDARY = "6894ba998446a9f156d257484898be412797a170984d5fda3e75081a4f727b24"
    # p_c,p_q,d_over_t_expected,trials
    FIG4 = "f99a6ce1eb39221716f61d29f8c9a0696f6bb6a268e746095c67f03ad6809342"
    FIG5 = "01a9ccb999ee98541ba89f63649e3170a067d6db7359d5e19385f37495c25a64"
    # every column, d_over_t included
    FIG4_DRAWN = "50cf6a7a9e1b4ba931a53254ddae5473b736d850acfa577c9b9f2d311ed3ef79"
    FIG5_DRAWN = "e895fa46521152c3d2eb9fe0ff6ec0e8daca31f878cb960f60eb8f5e16288173"
    # stdout of game --variant 1 --qubits 3 --pc 0.8 --pq 0.3 --trials 1000 --seed 1
    GAME = "a9523d3fe617da95a9ecdfb520af9f4f067634df46a0ef2cf521a232fb0677db"

    @staticmethod
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    @staticmethod
    def closed_form_columns(path) -> bytes:
        lines = path.read_text().splitlines()
        kept = [",".join(line.split(",")[i] for i in (0, 1, 3, 4)) for line in lines]
        return ("\n".join(kept) + "\n").encode()

    def test_trace(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code, _, _ = run_cli(
            capsys,
            "trace", "--qubits", "10", "--target", "7", "--iterations", "30",
            "--out", str(out),
        )
        assert code == 0
        assert self.digest(out.read_bytes()) == self.FIG3

    @pytest.mark.parametrize("variant", ["1", "2"])
    def test_sweep(self, tmp_path, capsys, variant):
        out = tmp_path / f"fig{int(variant) + 3}.csv"
        bout = tmp_path / "boundary.csv"
        boundary = ["--boundary-out", str(bout)] if variant == "2" else []
        code, _, _ = run_cli(
            capsys,
            "sweep", "--variant", variant, "--qubits", "3", "--grid", "21",
            "--trials", "1000", "--seed", "1", "--out", str(out), *boundary,
        )
        assert code == 0
        golden = self.FIG4 if variant == "1" else self.FIG5
        assert self.digest(self.closed_form_columns(out)) == golden
        if boundary:
            assert self.digest(bout.read_bytes()) == self.BOUNDARY

    @pytest.mark.parametrize("variant", ["1", "2"])
    def test_sweep_draws(self, tmp_path, capsys, variant):
        out = tmp_path / f"fig{int(variant) + 3}.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--variant", variant, "--qubits", "3", "--grid", "21",
            "--trials", "1000", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        drawn = self.FIG4_DRAWN if variant == "1" else self.FIG5_DRAWN
        assert self.digest(out.read_bytes()) == drawn

    def test_game_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "game", "--variant", "1", "--qubits", "3", "--pc", "0.8", "--pq", "0.3",
            "--trials", "1000", "--seed", "1",
        )
        assert code == 0
        assert self.digest(out.encode()) == self.GAME


GAME_ARGV = ["game", "--variant", "1", "--qubits", "3", "--pc", "0.8", "--pq", "0.3",
             "--trials", "1000", "--seed", "1"]
# Argvs whose exit code, stdout and stderr must not depend on how much of the
# parser ``main`` builds: help pages, errors from every layer, and valid runs.
ARGV_TABLE = {
    "no-command": [],
    "help": ["-h"],
    "version": ["--version"],
    "dashdash-command": ["--", "analytic"],
    "unknown-option-then-command": ["--bogus", "game"],
    "abbreviated-command": ["gam", "--variant", "1"],
    "unknown-command": ["frobnicate"],
    "trace-help": ["trace", "-h"],
    "game-help": ["game", "--help"],
    "sweep-help": ["sweep", "-h"],
    "analytic-help": ["analytic", "-h"],
    "rerun-help": ["rerun", "-h"],
    "abbreviated-option": ["analytic", "--it", "2", "--n", "8"],
    "bad-choice": ["game", "--variant", "3", "--qubits", "3", "--pc", "0.5", "--pq", "0.5"],
    "bad-int": ["game", "--variant", "1", "--qubits", "x", "--pc", "0.5", "--pq", "0.5"],
    "extra-positional": ["analytic", "--n", "8", "extra"],
    "missing-required": ["trace", "--qubits", "3"],
    "another-commands-option": ["game", "--n", "8"],
    "version-after-command": ["game", "--version"],
    "rerun-without-manifest": ["rerun"],
    "game": GAME_ARGV,
}
# One valid argv per command, and the two command lines that ``rerun`` replays.
VALID_ARGV = {
    "trace": ("trace", ["trace", "--qubits", "3", "--target", "1", "--iterations", "2",
                        "--out", "t.csv"]),
    "game": ("game", GAME_ARGV),
    "sweep": ("sweep", ["sweep", "--variant", "2", "--qubits", "3", "--out", "s.csv",
                        "--boundary-out", "b.csv"]),
    "analytic": ("analytic", ["analytic", "--n", "8", "--variant", "1", "--pc", "0.5",
                              "--pq", "0.5"]),
    "rerun": ("rerun", ["rerun", "--manifest", "s.csv.manifest"]),
}
VALID_ARGV["rerun-replays-trace"] = ("rerun", VALID_ARGV["trace"][1])
VALID_ARGV["rerun-replays-sweep"] = ("rerun", VALID_ARGV["sweep"][1])


def sub_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def options(parser: argparse.ArgumentParser) -> dict[str, list[str]]:
    """Each command's option dests, ``--help`` aside."""
    return {name: [action.dest for action in p._actions if action.dest != "help"]
            for name, p in sub_parsers(parser).items()}


class TestPerCommandParser:
    """``main`` builds only the options of the command it runs.

    What a user sees must be what the full parser gives: each is compared with
    ``build_parser()``, which holds every command's options.
    """

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_matches_the_full_parser(self, command):
        full, own = cli.build_parser(), cli.build_parser(command)
        assert own.format_help() == full.format_help()
        assert (sub_parsers(own)[command].format_help()
                == sub_parsers(full)[command].format_help())

    @pytest.mark.parametrize("argv", list(ARGV_TABLE.values()), ids=list(ARGV_TABLE))
    def test_argv_table_matches_the_full_parser(self, monkeypatch, capsys, argv):
        own = run_cli(capsys, *argv)
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
        assert own == run_cli(capsys, *argv)

    @pytest.mark.parametrize("command, argv", list(VALID_ARGV.values()), ids=list(VALID_ARGV))
    def test_parsed_args_match_the_full_parser(self, command, argv):
        full = vars(cli.build_parser().parse_args(argv))
        own = vars(cli.build_parser(command).parse_args(argv))
        assert list(own.items()) == list(full.items())  # in order: a manifest's key order

    def test_game_parser_adds_no_other_options(self):
        full = options(cli.build_parser())
        assert all(full.values())
        assert options(cli.build_parser("game")) == {
            name: dests if name == "game" else [] for name, dests in full.items()
        }
        assert cli.build_parser("game") is not cli.build_parser("game")

    def test_rerun_parser_adds_the_replayed_options(self):
        full = options(cli.build_parser())
        kept = {"rerun", "trace", "sweep"}
        assert options(cli.build_parser("rerun")) == {
            name: dests if name in kept else [] for name, dests in full.items()
        }

    @pytest.mark.parametrize("command", [*cli.COMMANDS, None])
    def test_only_reached_sub_parsers_hold_actions(self, command):
        """A sub-parser that ``command`` cannot reach holds no action, not even ``-h``."""
        wider = {None: set(cli.COMMANDS), "rerun": {"rerun", "trace", "sweep"}}
        reached = wider.get(command, {command})
        for name, p in sub_parsers(cli.build_parser(command)).items():
            if name in reached:
                assert p._actions[0].option_strings == ["-h", "--help"], name
            else:
                assert p._actions == [], name

    @pytest.mark.parametrize(
        "argv, command",
        [
            (GAME_ARGV, "game"),
            (["analytic", "--n", "8"], "analytic"),
            (["rerun", "--manifest", "missing.manifest"], "rerun"),
            (["--bogus", "game"], None),
            (["--", "analytic"], None),
            (["gam"], None),
            ([], None),
        ],
    )
    def test_main_builds_the_parser_its_first_token_names(
        self, monkeypatch, capsys, argv, command
    ):
        built, build = [], cli.build_parser

        def spy(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        cli.main(argv)
        capsys.readouterr()
        assert built == [command]

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["qdating", "analytic", "--n", "8"])
        assert cli.main() == 0
        assert capsys.readouterr().out == "optimal_iterations,2\n"
