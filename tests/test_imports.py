"""What each command imports, and the package's lazy namespace.

``trace``, ``analytic`` and a ``rerun`` of a trace need only ``math``, so
they must start without numpy; ``game`` and ``sweep`` draw, so they load
it.  Each case runs in a fresh interpreter, since the test process has
numpy loaded already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdating
from qdating.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints whether numpy is loaded after ``import qdating``, after
# ``import qdating.cli`` and after the argvs in argv[1] have run, and
# their exit codes.
PROBE = """
import json, sys
import qdating
loaded = ["numpy" in sys.modules]
from qdating.cli import main
loaded.append("numpy" in sys.modules)
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded.append("numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "codes": codes}))
"""

TRACE = ["trace", "--qubits", "10", "--target", "7", "--iterations", "30"]
GAME = ["--variant", "2", "--qubits", "3", "--trials", "100", "--seed", "1"]

# case -> (argvs, whether they load numpy); "OUT" is a path in tmp_path.
CASES = {
    "import-only": ([], False),
    "analytic-optimal": ([["analytic", "--n", "1024"]], False),
    "analytic-iterations": ([["analytic", "--n", "8", "--iterations", "1"]], False),
    "analytic-expected-dt": (
        [["analytic", "--n", "8", "--variant", "2", "--pc", "0.4", "--pq", "0.2"]],
        False,
    ),
    "trace": ([TRACE + ["--out", "OUT"]], False),
    "rerun-trace": ([["rerun", "--manifest", "OUT.manifest"]], False),
    "game": ([["game", *GAME, "--pc", "0.8", "--pq", "0.3"]], True),
    "sweep": ([["sweep", *GAME, "--grid", "3", "--out", "OUT"]], True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_only_drawing_commands_load_numpy(case, tmp_path):
    argvs, loads_numpy = CASES[case]
    out = str(tmp_path / "out.csv")
    if case == "rerun-trace":  # the manifest that the fresh process replays
        assert main(TRACE + ["--out", out]) == 0
    argvs = [[arg.replace("OUT", out) for arg in argv] for argv in argvs]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(argvs), result.stderr
    assert report["loaded"] == [False, False, loads_numpy]


class TestLazyNamespace:
    @pytest.mark.parametrize("name", qdating.__all__)
    def test_name_is_its_home_modules_object(self, name):
        value = getattr(qdating, name)
        home = value.__module__
        assert home.startswith("qdating.")
        assert getattr(importlib.import_module(home), name) is value
        assert name in dir(qdating)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qdating.no_such_name
        assert not hasattr(qdating, "numpy")

    def test_star_import(self):
        namespace = {}
        exec("from qdating import *", namespace)
        for name in qdating.__all__:
            assert namespace[name] is getattr(qdating, name)

    def test_submodules_import_by_name(self):
        # As ``perfbench/worker.py`` imports them.
        from qdating import cli, experiment, game, statevector, strategies

        for module in (cli, experiment, game, statevector, strategies):
            assert module is sys.modules[module.__name__]
