"""Run configuration, stepping loops, CSV/snapshot output, experiment drivers.

A ProblemSpec pins everything needed to reproduce a run: catalog problem,
scheme, grid resolution, time step, horizon, SAV shift and output plan.
Run settings arrive as text, from CLI flags or a flat ``key = value``
manifest, and MANIFEST_KEYS parses both alike; rerunning a manifest
reproduces its run byte-for-byte (no timestamps are written).

CSV schema (one row per output time):
    t,E_mod,E_orig,err_l2,err_inf,iters
Missing entries are left empty. A field snapshot holds the field u itself:
a short ASCII header (one ``key value`` line each, terminated by a ``data``
line) followed by raw little-endian float64 payload, row-major; complex
fields store the real plane then the imaginary plane (``components 2``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import avf, kg, nls
from .catalog import CatalogEntry, get_entry
from .diagnostics import RunRecord, convergence_orders, error_norms
from .errors import SolverError
from .grids import ComplexField, Field, GridSpec
from .tables import build_kg_tables, build_nls_tables

SCHEMES = ("esavs", "eavfs")


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one run."""

    problem: str
    scheme: str = "esavs"
    n: int | None = None            # per-axis node count; None -> catalog default
    tau: float | None = None
    t_end: float | None = None
    c0: float | None = None
    cadence: int = 10               # record diagnostics every this many steps
    out: str | None = None
    snapshot_times: tuple[float, ...] = ()
    fp_tol: float = 1e-14
    fp_max_iters: int = 200

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme = {self.scheme!r}: must be one of {', '.join(SCHEMES)}")
        if self.cadence < 1:
            raise ValueError(f"cadence = {self.cadence!r}: must be >= 1")
        if not (math.isfinite(self.fp_tol) and self.fp_tol > 0.0):
            raise ValueError(f"fp_tol = {self.fp_tol!r}: must be positive and finite")
        if self.fp_max_iters < 1:
            raise ValueError(f"fp_max_iters = {self.fp_max_iters!r}: must be >= 1")


@dataclass
class RunResult:
    records: list[RunRecord]
    final_state: object
    total_iters: int
    wall_seconds: float             # stepping only: no diagnostics rows, no snapshots
    files: list[Path] = field(default_factory=list)


# --------------------------------------------------------------------------
# spec resolution and manifest parsing
# --------------------------------------------------------------------------

def _times(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _directory(text: str) -> str:
    # Path("") is the working directory, which no one means by an empty value
    if not text.strip():
        raise ValueError("must name a directory")
    return text


# run setting -> (ProblemSpec field, parser of its text); flags and manifests alike
MANIFEST_KEYS = {
    "problem": ("problem", str),
    "scheme": ("scheme", str),
    "n": ("n", int),
    "tau": ("tau", float),
    "t_end": ("t_end", float),
    "c0": ("c0", float),
    "cadence": ("cadence", int),
    "out": ("out", _directory),
    "snapshots": ("snapshot_times", _times),
    "fp_tol": ("fp_tol", float),
    "fp_max_iters": ("fp_max_iters", int),
}


def resolve(spec: ProblemSpec) -> tuple[CatalogEntry, GridSpec, object, float, float, int]:
    """Fill in catalog defaults; returns (entry, grid, problem, tau, t_end, n_steps)."""
    entry = get_entry(spec.problem)
    grid = entry.make_grid(spec.n)
    tau = spec.tau if spec.tau is not None else entry.default_tau
    t_end = spec.t_end if spec.t_end is not None else entry.default_t_end
    c0 = spec.c0 if spec.c0 is not None else entry.default_c0
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    if not (np.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end!r}")
    if not np.isfinite(t_end / tau):
        raise ValueError(f"t_end / tau must be a finite step count, got {t_end / tau!r}")
    n_steps = int(round(t_end / tau))
    if abs(n_steps * tau - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"t_end = {t_end:g} is not an integer number of steps of tau = {tau:g}")
    for t_snap in spec.snapshot_times:
        if not (0.0 <= t_snap <= t_end + 1e-12):
            raise ValueError(f"snapshot time {t_snap:g} outside [0, {t_end:g}]")
    problem = entry.make_problem(grid, c0)
    return entry, grid, problem, tau, t_end, n_steps


def parse_manifest(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"manifest line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in MANIFEST_KEYS:
            raise ValueError(f"manifest line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"manifest line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def spec_from_mapping(mapping: dict[str, str]) -> ProblemSpec:
    """Build a ProblemSpec from run settings as text, each parsed by its MANIFEST_KEYS entry."""
    if "problem" not in mapping:
        raise ValueError("no problem given (--problem, or the 'problem' key of a run manifest)")
    values = {}
    for key, (name, parse) in MANIFEST_KEYS.items():
        if key in mapping:
            try:
                values[name] = parse(mapping[key])
            except ValueError as exc:
                raise ValueError(f"{key} = {mapping[key]!r}: {exc}") from None
    return ProblemSpec(**values)


# --------------------------------------------------------------------------
# the stepping loop
# --------------------------------------------------------------------------


def run(spec: ProblemSpec) -> RunResult:
    """Init -> step loop -> diagnostics; writes CSV and snapshots when out is set."""
    entry, grid, problem, tau, t_end, n_steps = resolve(spec)
    lam = entry.laplacian_eigenvalues(grid)
    cfg = avf.FixedPointConfig(tol=spec.fp_tol, max_iters=spec.fp_max_iters)
    # one choice per run; the lambdas look the module attributes up per call,
    # so wrappers installed on them see every call
    if entry.kind == "wave":
        tables = build_kg_tables(grid, lam, problem.omega, tau)
        state = kg.kg_init(problem)
        sav_step = lambda st: (kg.kg_step(st, tables, problem), 0)
        avf_step = lambda st: avf.eavf_step_kg(st, tables, problem, cfg)
        energies = lambda st: (kg.kg_modified_energy(st, problem),
                               kg.kg_original_energy(st, problem))
    else:
        tables = build_nls_tables(grid, lam, tau)
        state = nls.nls_init(problem)
        sav_step = lambda st: (nls.nls_step(st, tables, problem), 0)
        avf_step = lambda st: avf.eavf_step_nls(st, tables, problem, cfg)
        energies = lambda st: (nls.nls_modified_energy(st, problem),
                               nls.nls_hamiltonian(st, problem))
    step = sav_step if spec.scheme == "esavs" else avf_step

    snap_left = sorted(set(spec.snapshot_times))
    out_dir = Path(spec.out) if spec.out is not None else None
    files: list[Path] = []
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    # the analytic solution's t-independent factors are sampled once per run
    exact_at = entry.exact(grid) if entry.exact is not None else None

    def record(st, iters):
        e_mod, e_orig = energies(st)
        err_l2 = err_inf = None
        if exact_at is not None:
            err_l2, err_inf = error_norms(st.u, exact_at, st.t)
        return RunRecord(t=st.t, E_mod=e_mod, E_orig=e_orig,
                         err_l2=err_l2, err_inf=err_inf, iters=iters)

    def maybe_snapshot(st):
        while snap_left and st.t >= snap_left[0] - 0.5 * tau:
            target = snap_left.pop(0)
            if out_dir is not None:
                path = out_dir / f"snapshot_t{target:g}.dat"
                write_snapshot(path, st.u, st.t)
                files.append(path)

    records = [record(state, None)]
    maybe_snapshot(state)
    total_iters = 0
    wall = 0.0
    # a diverging run overflows on its way to the guard that stops it (a stepper
    # guard, State.advance or _fmt, each raising SolverError); the numpy warnings
    # on the way there would only repeat that failure
    with np.errstate(all="ignore"):
        for step_idx in range(1, n_steps + 1):
            t_start = time.perf_counter()
            state, iters = step(state)
            wall += time.perf_counter() - t_start
            total_iters += iters
            if step_idx % spec.cadence == 0 or step_idx == n_steps:
                records.append(record(state, iters))
            maybe_snapshot(state)

    if out_dir is not None:
        csv_path = out_dir / "run.csv"
        write_run_csv(csv_path, records)
        files.append(csv_path)
    return RunResult(records=records, final_state=state,
                     total_iters=total_iters, wall_seconds=wall, files=files)


# --------------------------------------------------------------------------
# output files
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    if not math.isfinite(value):
        raise SolverError(f"non-finite diagnostic {value!r}; refusing to write it")
    return f"{value:.16e}"


def write_rows(path: Path, rows: list):
    """CSV of dataclass rows: the field names as the header, then one line per row."""
    names = [f.name for f in fields(rows[0])]
    values = attrgetter(*names)  # a tuple per row: every row type has several fields
    lines = [",".join(names)] + [",".join(map(_fmt, values(r))) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_run_csv(path: Path, records: list[RunRecord]):
    # a name of its own because bench/tracer.py times it as runner.csv_ms
    write_rows(path, records)


def write_snapshot(path: Path, u: Field | ComplexField, t: float):
    """Self-describing binary dump of u; see the module docstring for the layout."""
    grid, payload = u.grid, u.values
    complex_payload = np.iscomplexobj(payload)
    header = [
        "expsav-snapshot 2",
        f"dim {grid.dim}",
        "shape " + " ".join(str(m) for m in grid.n),
        "a " + " ".join(f"{v!r}" for v in grid.a),
        "b " + " ".join(f"{v!r}" for v in grid.b),
        f"time {t!r}",
        f"components {2 if complex_payload else 1}",
        "dtype <f8",
        "data",
    ]
    blob = b"".join(line.encode() + b"\n" for line in header)
    if complex_payload:
        blob += payload.real.astype("<f8").tobytes() + payload.imag.astype("<f8").tobytes()
    else:
        blob += payload.astype("<f8").tobytes()
    Path(path).write_bytes(blob)


def read_snapshot(path: Path) -> tuple[dict, np.ndarray]:
    """Inverse of write_snapshot; returns (header dict, flat values)."""
    raw = Path(path).read_bytes()
    header: dict[str, str] = {}
    offset = 0
    while True:
        end = raw.index(b"\n", offset)
        line = raw[offset:end].decode()
        offset = end + 1
        if line == "data":
            break
        key, _, value = line.partition(" ")
        header[key] = value
    flat = np.frombuffer(raw[offset:], dtype="<f8")
    if header.get("components") == "2":
        half = flat.size // 2
        return header, flat[:half] + 1j * flat[half:]
    return header, flat


# --------------------------------------------------------------------------
# experiment drivers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderRow:
    level: int
    n: int
    tau: float
    err_l2: float
    order_l2: float | None
    err_inf: float
    order_inf: float | None


def convergence_driver(base: ProblemSpec, levels: int) -> list[LadderRow]:
    """Refinement ladder from the base spec; halves tau (and h, for wave problems)."""
    if levels < 2:
        raise ValueError("need at least 2 ladder levels")
    entry, grid, _, tau, _, _ = resolve(base)
    n0 = grid.n[0]
    rows: list[LadderRow] = []
    for level in range(levels):
        factor = 2**level
        n = n0 * factor if entry.kind == "wave" else n0
        spec = replace(base, n=n, tau=tau / factor, out=None)
        result = run(spec)
        last = result.records[-1]
        if last.err_l2 is None:
            raise ValueError(f"{base.problem} has no analytic solution to converge against")
        rows.append(LadderRow(level=level, n=n, tau=tau / factor, err_l2=last.err_l2,
                              order_l2=None, err_inf=last.err_inf, order_inf=None))
    orders_l2 = convergence_orders([r.err_l2 for r in rows])
    orders_inf = convergence_orders([r.err_inf for r in rows])
    for idx in range(1, levels):
        rows[idx] = replace(rows[idx], order_l2=orders_l2[idx - 1], order_inf=orders_inf[idx - 1])
    return rows


@dataclass(frozen=True)
class CompareRow:
    scheme: str
    err_l2: float | None
    err_inf: float | None
    energy_drift: float
    wall_seconds: float
    total_iters: int


def compare_driver(spec: ProblemSpec) -> list[CompareRow]:
    """Run both schemes on identical settings."""
    rows = []
    for scheme in SCHEMES:
        result = run(replace(spec, scheme=scheme, out=None))
        drift = float(np.max(np.abs(
            np.array([r.E_mod for r in result.records]) - result.records[0].E_mod
        )))
        last = result.records[-1]
        rows.append(CompareRow(scheme=scheme, err_l2=last.err_l2, err_inf=last.err_inf,
                               energy_drift=drift, wall_seconds=result.wall_seconds,
                               total_iters=result.total_iters))
    return rows
