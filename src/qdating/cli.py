"""Command-line front end for reproducible trace / game / sweep runs.

Each call builds only the options of the command it runs.  Every
file-producing command writes a flat ``<output>.manifest`` of ``key=value``
lines: the command, the RNG engine tag, the package, Python and numpy
versions, then every parsed argument.  ``rerun`` turns the arguments back
into a command line, which ``main`` parses with the one parser it built,
so the output is regenerated byte-identically; it refuses another engine's.

Exit codes: 0 success, 1 domain or runtime error, 2 usage error; 130 or
143 when SIGINT or SIGTERM stops ``entrypoint``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable

from . import __version__
from .errors import ConfigurationError, QDatingError
from .experiment import (
    SweepSpec,
    amplitude_trace,
    boundary_csv,
    format_float,
    run_sweep,
    sign_boundary,
    stats_csv_row,
    sweep_csv,
    trace_csv,
)
from .game import (
    ENGINE,
    ClassicStrategy,
    GameConfig,
    GameVariant,
    WomanProfile,
    expected_dt,
    run_match,
)
from .kernel import (
    check_iterations,
    closed_form_probability,
    optimal_iterations,
    register_qubits,
)


class UsageError(Exception):
    """Structurally invalid invocation; maps to exit code 2."""


# Commands that write a manifest; ``rerun`` replays no other.
MANIFEST_COMMANDS = ("trace", "sweep")
# Manifest keys that describe the run rather than hold one of its arguments.
HEADER_KEYS = ("command", "engine", "version", "python", "numpy")
VARIANTS = [int(variant) for variant in GameVariant]


def option(dest: str) -> str:
    """The command-line option whose value lands in ``args.<dest>``."""
    return f"--{dest.replace('_', '-')}"


@functools.cache
def numpy_version() -> str:
    """numpy's ``__version__``, read without importing numpy.

    Runs alone the ``version.py`` that ``import numpy`` would find and take
    ``__version__`` from.  Where that file imports from its own package
    (numpy before 1.26), numpy is imported; the value is the same.
    """
    import importlib.util

    package = importlib.util.find_spec("numpy").submodule_search_locations[0]
    spec = importlib.util.spec_from_file_location(
        "numpy.version", os.path.join(package, "version.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.__version__


def environment() -> dict[str, str]:
    """The Python and numpy versions, as a manifest records them."""
    python = ".".join(map(str, sys.version_info[:3]))
    return {"python": python, "numpy": numpy_version()}


def write_manifest(args: argparse.Namespace) -> str:
    """The manifest's text; refuses a value that it could not replay.

    A manifest is one ``key=value`` per line of UTF-8, so a line break in
    a value would be read back as the end of the value, or as another key,
    and a value that is not valid UTF-8 (a path's undecodable bytes) could
    not be written at all.
    """
    fields = {"command": args.command, "engine": ENGINE, "version": __version__,
              **environment()}
    for key, value in vars(args).items():
        if value is not None and key not in ("command", "func"):
            text, problem = str(value), None
            try:
                text.encode()
            except UnicodeEncodeError:
                problem = "is not valid UTF-8"
            if "\n" in text or "\r" in text:
                problem = "holds a line break"
            if problem:
                raise UsageError(
                    f"{option(key)} {value!r} {problem}, which its manifest cannot record"
                )
            fields[key] = value
    lines = [f"{key}={value}" for key, value in fields.items()]
    return "\n".join(lines) + "\n"


# ``perfbench/tracing.py`` replaces this attribute to count written bytes
# from ``text``, so ``write_outputs`` looks it up here on every chunk.
def write_text(fh, text: str) -> None:
    fh.write(text)


def write_outputs(args: argparse.Namespace, texts: dict[str, Iterable[str]]) -> None:
    """Write each text's chunks (keyed by its option's dest) and the manifest, or none."""
    outputs = {option(key): (getattr(args, key), chunks)
               for key, chunks in texts.items()}
    outputs["the manifest"] = (args.out + ".manifest", [write_manifest(args)])
    owners: dict[str, str] = {}  # resolved path -> the output that names it
    for label, (path, _) in outputs.items():
        if owners.setdefault(target := os.path.realpath(path), label) != label:
            raise UsageError(f"{owners[target]} and {label} name the same file")
        if os.path.isdir(target):
            raise QDatingError(f"output {path!r} is a directory")
    staged: dict[str, str] = {}  # temporary file -> its output as given
    try:
        for target, (path, chunks) in zip(owners, outputs.values()):
            staged[tmp := f"{target}.{os.getpid()}.tmp"] = path
            with open(tmp, "w", newline="") as fh:
                for chunk in chunks:
                    write_text(fh, chunk)
        for tmp, target in zip(staged, owners):
            os.replace(tmp, target)
    except OSError as exc:
        if exc.filename in staged:  # name the output, not its temporary file
            exc.filename = staged[exc.filename]
        raise
    finally:
        for tmp in filter(os.path.lexists, staged):
            os.remove(tmp)


def read_manifest(path: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise QDatingError(f"malformed manifest line: {line!r}")
            if key in fields:
                raise QDatingError(f"manifest repeats key {key!r}")
            fields[key] = value
    return fields


def cmd_trace(args: argparse.Namespace) -> int:
    if args.qubits < 1:
        raise UsageError("--qubits must be >= 1 for trace")
    points = amplitude_trace(args.qubits, args.target, args.iterations)
    write_outputs(args, {"out": trace_csv(points)})
    return 0


def _game_config(args: argparse.Namespace) -> GameConfig:
    """The match that ``game`` plays once and ``sweep`` at every cell."""
    if args.seed is None:
        # Entropy fallback for exploratory runs; the drawn value is recorded
        # in the manifest / output row so the run stays reproducible.
        import secrets

        args.seed = secrets.randbits(63)
    return GameConfig(
        n_qubits=args.qubits,
        variant=GameVariant(args.variant),
        trials=args.trials,
        quantum_iterations=args.grover_iterations,
        classic_strategy=ClassicStrategy(args.classic_strategy),
        seed=args.seed,
    )


def cmd_game(args: argparse.Namespace) -> int:
    cfg = _game_config(args)
    woman = WomanProfile(
        target=args.target, p_accept_classic=args.pc, p_accept_quantum=args.pq
    )
    stats = run_match(cfg, woman)
    print(stats_csv_row(cfg, woman, stats))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _game_config(args)
    try:
        spec = SweepSpec(cfg, args.grid)
    except ConfigurationError as exc:
        # SweepSpec checks only the grid, which is a usage error.
        raise UsageError(str(exc)) from None
    table = run_sweep(spec)
    texts = {"out": sweep_csv(table)}
    if args.boundary_out is not None:
        texts["boundary_out"] = boundary_csv(sign_boundary(table))
    write_outputs(args, texts)
    return 0


def cmd_analytic(args: argparse.Namespace) -> int:
    n_qubits = register_qubits(args.n)
    if args.variant is not None or args.pc is not None or args.pq is not None:
        if args.pc is None or args.pq is None or args.variant is None:
            raise UsageError("expected-d/t mode needs --variant, --pc and --pq")
        if args.iterations is not None:
            raise UsageError(
                "expected-d/t mode takes Q's iterates as --grover-iterations, "
                "not --iterations"
            )
        search = {}  # an option not given keeps GameConfig's default
        if args.grover_iterations is not None:
            search["quantum_iterations"] = args.grover_iterations
        if args.classic_strategy is not None:
            search["classic_strategy"] = ClassicStrategy(args.classic_strategy)
        cfg = GameConfig(n_qubits=n_qubits, variant=GameVariant(args.variant), **search)
        woman = WomanProfile(
            target=0, p_accept_classic=args.pc, p_accept_quantum=args.pq
        )
        print(f"expected_dt,{format_float(expected_dt(cfg, woman))}")
    elif args.grover_iterations is not None or args.classic_strategy is not None:
        raise UsageError(
            "--grover-iterations and --classic-strategy belong to "
            "expected-d/t mode (--variant, --pc and --pq)"
        )
    elif args.iterations is not None:
        k = check_iterations(n_qubits, args.iterations)
        p = closed_form_probability(args.n, k)
        print(f"probability,{format_float(p)}")
    else:
        print(f"optimal_iterations,{optimal_iterations(args.n)}")
    return 0


def replay_argv(path: str) -> list[str]:
    """The command line that the manifest at ``path`` records."""
    fields = read_manifest(path)
    engine, command = fields.get("engine"), fields.get("command")
    if engine != ENGINE:
        raise QDatingError(
            f"manifest was written by RNG engine {engine!r}, this is {ENGINE!r}"
        )
    if command not in MANIFEST_COMMANDS:
        raise QDatingError(
            f"rerun replays only {' and '.join(MANIFEST_COMMANDS)} manifests, "
            f"got command {command!r}"
        )
    now = environment()
    if moved := [key for key, value in now.items() if fields.get(key, value) != value]:
        versions = "; ".join(f"{key} {fields[key]}, running {now[key]}" for key in moved)
        print(f"warning: manifest written under {versions}", file=sys.stderr)
    return [command] + [
        f"{option(key)}={value}"
        for key, value in fields.items()
        if key not in HEADER_KEYS
    ]


def _add_search_options(p: argparse.ArgumentParser) -> None:
    """C's strategy and Q's iterates, with ``GameConfig``'s defaults."""
    strategies = [strategy.value for strategy in ClassicStrategy]
    p.add_argument("--classic-strategy", choices=strategies,
                   default=GameConfig.classic_strategy.value)
    p.add_argument("--grover-iterations", type=int, default=GameConfig.quantum_iterations)


def _trace_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace)


def _game_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", type=int, choices=VARIANTS, required=True)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--pc", type=float, required=True)
    p.add_argument("--pq", type=float, required=True)
    p.add_argument("--trials", type=int, default=GameConfig.trials)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--target", type=int, default=0)
    _add_search_options(p)
    p.set_defaults(func=cmd_game)


def _sweep_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", type=int, choices=VARIANTS, required=True)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--grid", type=int, default=SweepSpec.grid_points)
    p.add_argument("--trials", type=int, default=GameConfig.trials)
    p.add_argument("--seed", type=int, default=None)
    _add_search_options(p)
    p.add_argument("--out", required=True)
    p.add_argument("--boundary-out", default=None)
    p.set_defaults(func=cmd_sweep)


def _analytic_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--variant", type=int, choices=VARIANTS, default=None)
    p.add_argument("--pc", type=float, default=None)
    p.add_argument("--pq", type=float, default=None)
    _add_search_options(p)
    # Unset unless given, so the modes that play no match can refuse them.
    p.set_defaults(func=cmd_analytic, grover_iterations=None, classic_strategy=None)


COMMANDS = {  # name: (help line, the function that adds the command's options)
    "trace": ("exact probability evolution CSV", _trace_options),
    "game": ("one match, stats row on stdout", _game_options),
    "sweep": ("(P_c, P_q) grid of matches to CSV", _sweep_options),
    "analytic": ("closed-form values for scripting", _analytic_options),
    # ``main`` parses the manifest's command line in place of this one.
    "rerun": ("replay a run from its manifest",
              lambda p: p.add_argument("--manifest", required=True)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command, but only ``command``'s options (every one's for ``None``).

    ``rerun`` also gets the options of the commands it replays.
    """
    parser = argparse.ArgumentParser(
        prog="qdating",
        description="Grover-search traces and quantum-vs-classic dating games.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_options) in COMMANDS.items():
        # No option is abbreviated, so ``rerun`` refuses a manifest key that prefixes one.
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        if command in (None, name) or command == "rerun" and name in MANIFEST_COMMANDS:
            add_options(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run ``argv`` (default ``sys.argv[1:]``); if it names no command, build them all."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.command == "rerun":
            args = parser.parse_args(replay_argv(args.manifest))
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its message
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (QDatingError, OSError, UnicodeDecodeError, MemoryError, ImportError) as exc:
        # Python's MemoryError has no message; numpy's ImportError ends with its cause.
        lines = str(exc).strip().splitlines() or [type(exc).__name__]
        print(f"error: {lines[-1]}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """``main`` as a program: SIGINT and SIGTERM end it in one stderr line.

    SIGTERM raises ``KeyboardInterrupt`` as SIGINT does, so ``write_outputs``
    removes what it staged; the exit code is the shell's 128 + the signal.
    """
    import signal

    def stop(signum, frame):
        raise KeyboardInterrupt(signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        code = main()
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else signal.SIGINT
        print(f"error: stopped by {signal.Signals(signum).name}", file=sys.stderr)
        code = 128 + signum
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
