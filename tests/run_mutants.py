"""Run every mutant of ``mutants.py`` in a copy of the repository and check its verdict.

    python tests/run_mutants.py [NAME ...]

Each mutant gets its own temporary copy of the repository, without ``.git``,
``.perfbench`` or the committed ``BENCH_*`` files, in which ``old`` is
replaced by ``new`` in ``file``.  A mutant with a named test holds its
verdict when that test fails there.  An equivalent one holds it when the
whole suite, less the catalogue's check of that mutant's old text, fails
exactly the tests that an unmutated copy fails.  One line is printed per
mutant, and the exit code is 0 only when every verdict holds.  pytest does
not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
LEFT_OUT = shutil.ignore_patterns(
    ".git", ".perfbench", "BENCH_*", "__pycache__", ".pytest_cache", ".hypothesis"
)
WHOLE_SUITE = ("--continue-on-collection-errors",)


def copy_of_repo(tmp: str, mutant: Mutant | None) -> Path:
    """A copy of the repository under ``tmp``, with ``mutant`` applied if given."""
    copy = Path(tmp) / "repo"
    shutil.copytree(ROOT, copy, ignore=LEFT_OUT, symlinks=True)
    if mutant is not None:
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its old text is not in {mutant.file} once")
        path.write_text(text.replace(mutant.old, mutant.new))
    return copy


def run_pytest(copy: Path, *args: str) -> tuple[int, set[str]]:
    """pytest's exit code in ``copy``, and the node ids that failed or errored."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    return done.returncode, set(re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M))


def check(mutant: Mutant, baseline: set[str] | None) -> tuple[bool, str]:
    """Whether ``mutant``'s verdict holds, and what was seen."""
    with tempfile.TemporaryDirectory(prefix="qdating-mutant-") as tmp:
        copy = copy_of_repo(tmp, mutant)
        if mutant.killed_by != "equivalent":
            code, _ = run_pytest(copy, mutant.killed_by)
            test = mutant.killed_by.rsplit("::", 1)[-1]
            return code == 1, f"{test} " + ("fails" if code == 1 else f"gives exit {code}")
        # The catalogue's own check fails on purpose: the old text is gone.
        catalogue = f"tests/test_mutants.py::test_old_text_occurs_once[{mutant.name}]"
        _, failed = run_pytest(copy, *WHOLE_SUITE, "--deselect", catalogue)
    if failed == baseline:
        return True, "equivalent: the suite fails only what fails unmutated"
    return False, (f"equivalent, but newly failing {sorted(failed - baseline)}, "
                   f"now passing {sorted(baseline - failed)}")


def main(names: list[str]) -> int:
    if unknown := set(names) - {mutant.name for mutant in MUTANTS}:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    started = time.monotonic()
    baseline = None
    if any(mutant.killed_by == "equivalent" for mutant in chosen):
        with tempfile.TemporaryDirectory(prefix="qdating-mutant-") as tmp:
            _, baseline = run_pytest(copy_of_repo(tmp, None), *WHOLE_SUITE)
        print(f"unmutated suite fails: {', '.join(sorted(baseline)) or 'nothing'}",
              flush=True)
    held = 0
    for mutant in chosen:
        begun = time.monotonic()
        ok, seen = check(mutant, baseline)
        held += ok
        print(f"{'held  ' if ok else 'BROKEN'} {mutant.name}: {seen} "
              f"({time.monotonic() - begun:.1f} s)", flush=True)
    print(f"{held} of {len(chosen)} verdicts hold, {time.monotonic() - started:.0f} s")
    return 0 if held == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
