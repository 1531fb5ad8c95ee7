"""Command-line entry point.

Four subcommands map onto the scenario modes:

    sweep       passive_tha or dual_source distance sweeps
    wavelength  fringe-trace center-wavelength estimate
    ivfit       diode ideality fits over voltage windows
    leakage     leaked photon numbers for a table of drive settings

Each takes --config <path>, optional --out <path> (stdout otherwise) and
repeatable --override key=value flags, before or after the command.
On failure a single machine-parseable line `error:<category>: message`
goes to stderr; exit status is 2 for configuration errors and 1 for
any other failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .errors import ConfigurationError, VoaleakError
from .scenario import (
    _SWEEP_MODES,
    SweepResult,
    load_config,
    result_to_text,
    run_scenario,
    sweep_to_text,
)

# Each subcommand: the scenario modes it accepts and its help line.
_COMMANDS = {
    "sweep": (_SWEEP_MODES, "run a key-rate vs distance sweep"),
    "wavelength": (("fringe",), "estimate the emission center wavelength from fringes"),
    "ivfit": (("iv_fit",), "fit diode ideality factors from an I-V trace"),
    "leakage": (("device",), "convert drive configurations to leaked photon numbers"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors keep the one-line contract.

    argparse prints a usage block and exits 2 on a bad command line;
    here the error becomes a ConfigurationError, which `main` reports
    as one `error:config:` line with exit status 2.
    """

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="voaleak",
        description=("Key-rate impact of parasitic emission from a "
                     "carrier-injection VOA\nin a decoy-state BB84 "
                     "transmitter."),
        epilog="commands:\n" + "".join(
            f"  {name:<12}{text}\n" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="scenario config file (flat key=value text)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the result table here instead of stdout")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config, overrides=args.override)
        allowed, _ = _COMMANDS[args.command]
        if config.mode not in allowed:
            raise ConfigurationError(
                f"subcommand {args.command!r} requires mode in "
                f"{allowed}, config has {config.mode!r}")
        result = run_scenario(config)
        # Sweeps are rendered under this module's `sweep_to_text`, the
        # name perfbench/tracer.py wraps to time rendering.
        text = (sweep_to_text(result) if isinstance(result, SweepResult)
                else result_to_text(result))
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except VoaleakError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
