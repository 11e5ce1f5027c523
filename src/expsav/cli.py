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
                     parse_manifest, run, spec_from_mapping, write_rows)

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

    p_conv = sub.add_parser("converge", help="refinement ladder with observed orders")
    _add_common(p_conv)
    p_conv.add_argument("--levels", type=int, required=True)

    p_cmp = sub.add_parser("compare", help="run both schemes on identical settings")
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


def _write_csv(out: str | None, name: str, rows: list):
    if out is not None:
        path = Path(out) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        write_rows(path, rows)
        print(f"wrote {path}")


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
            last = result.records[-1]
            msg = f"{spec.problem} [{spec.scheme}] t = {last.t:g}  E_mod = {last.E_mod:.12e}"
            if last.err_l2 is not None:
                msg += f"  err_l2 = {last.err_l2:.6e}  err_inf = {last.err_inf:.6e}"
            print(msg)
            for path in result.files:
                print(f"wrote {path}")
        elif args.command == "converge":
            rows = convergence_driver(spec, args.levels)
            print("level       n        tau       err_l2   order      err_inf   order")
            for r in rows:
                o2 = f"{r.order_l2:6.2f}" if r.order_l2 is not None else "     -"
                oi = f"{r.order_inf:6.2f}" if r.order_inf is not None else "     -"
                print(f"{r.level:5d} {r.n:7d} {r.tau:10.3e} {r.err_l2:12.4e} {o2} {r.err_inf:12.4e} {oi}")
            _write_csv(spec.out, "converge.csv", rows)
        elif args.command == "compare":
            rows = compare_driver(spec)
            print("scheme      err_l2      err_inf   energy_drift      wall_s   iters")
            for r in rows:
                e2 = f"{r.err_l2:.4e}" if r.err_l2 is not None else "         -"
                ei = f"{r.err_inf:.4e}" if r.err_inf is not None else "         -"
                print(f"{r.scheme:6s} {e2:>11s} {ei:>12s} {r.energy_drift:14.4e} "
                      f"{r.wall_seconds:11.3f} {r.total_iters:7d}")
            ratio = rows[1].wall_seconds / max(rows[0].wall_seconds, 1e-12)
            print(f"wall-time ratio eavfs/esavs = {ratio:.2f}")
            _write_csv(spec.out, "compare.csv", rows)
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
