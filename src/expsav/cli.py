"""Command-line harness: run / converge / compare.

Exit codes: 0 success, 2 solver failure (non-convergence, divergence, a
singular step, or an i/o failure), 3 configuration error (bad flags, bad
manifest, bad values).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import CATALOG
from .errors import SolverError
from .runner import (MANIFEST_KEYS, SCHEMES, ProblemSpec, compare_driver, convergence_driver,
                     format_rows, parse_manifest, run, spec_from_mapping)

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; remap to the config-error code. Flags are not
    abbreviated: a removed flag would read as a longer one (--h as --help, exit 0)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(p: _Parser, with_scheme: bool = True):
    # the run settings stay text: spec_from_mapping parses them, as it does a manifest's
    p.add_argument("--problem", help=f"one of: {', '.join(sorted(CATALOG))}")
    p.add_argument("--n", help="nodes per axis")
    p.add_argument("--tau", help="time step")
    p.add_argument("--t-end", dest="t_end", help="final time")
    p.add_argument("--c0", help="auxiliary-variable shift")
    p.add_argument("--out", help="output directory")
    if with_scheme:
        p.add_argument("--scheme", help=f"time integrator: {' or '.join(SCHEMES)}")


def build_parser() -> _Parser:
    parser = _Parser(prog="expsav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one problem and emit a CSV")
    _add_common(p_run)
    p_run.add_argument("--cadence", help="record every this many steps")
    p_run.add_argument("--snapshots", help="comma-separated field-dump times")
    p_run.add_argument("--config", help="manifest file to run; explicit flags override it")

    p_conv = sub.add_parser("converge", help="refinement ladder with observed orders; prints "
                            "its rows as CSV at full precision, then the files written")
    _add_common(p_conv)
    p_conv.add_argument("--levels", type=int, required=True)

    p_cmp = sub.add_parser("compare", help="run both schemes on identical settings; prints their "
                           "rows as CSV at full precision, the wall-time ratio, the files written")
    _add_common(p_cmp, with_scheme=False)
    p_cmp.add_argument("--cadence", help="sample E_mod every this many steps")
    return parser


def _spec_from_args(args) -> ProblemSpec:
    mapping: dict[str, str] = {}
    if getattr(args, "config", None):
        mapping = parse_manifest(Path(args.config).read_text())
    # flags carry the manifest key names; flags a subcommand lacks read as unset
    mapping.update((key, getattr(args, key)) for key in MANIFEST_KEYS
                   if getattr(args, key, None) is not None)
    spec = spec_from_mapping(mapping)
    if spec.snapshot_times and spec.out is None:
        raise ValueError("snapshots need an output directory (--out)")
    return spec


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        spec = _spec_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"expsav: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            result = run(spec)
            text, files = format_rows(result.records[-1:]), result.files
        else:
            rows = (convergence_driver(spec, args.levels) if args.command == "converge"
                    else compare_driver(spec))
            text, files = format_rows(rows), []
            if spec.out is not None:
                path = Path(spec.out) / f"{args.command}.csv"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                files.append(path)
        print(text, end="")
        if args.command == "compare":
            ratio = rows[1].wall_seconds / max(rows[0].wall_seconds, 1e-12)
            print(f"wall-time ratio eavfs/esavs = {ratio:.2f}")
        for path in files:
            print(f"wrote {path}")
    except ValueError as exc:
        print(f"expsav: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"expsav: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"expsav: i/o failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
