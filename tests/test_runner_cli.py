import argparse
import dataclasses
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import expsav
from expsav import kg
from expsav.catalog import CATALOG, CatalogEntry, get_entry, register
from expsav.cli import build_parser, main
from expsav.errors import SolverError
from expsav.runner import (MANIFEST_KEYS, ProblemSpec, _fmt, compare_driver, convergence_driver,
                           parse_manifest, run, spec_from_mapping)

README = Path(__file__).resolve().parents[1] / "README.md"


def read_snapshot(path: Path) -> tuple[dict, np.ndarray]:
    """A snapshot file as README's "Output formats" lays it out: (header dict, flat values)."""
    raw = path.read_bytes()
    head, _, payload = raw.partition(b"\ndata\n")
    header = dict(line.split(" ", 1) for line in head.decode().splitlines())
    flat = np.frombuffer(payload, dtype="<f8")
    if header["components"] == "2":
        half = flat.size // 2
        return header, flat[:half] + 1j * flat[half:]
    return header, flat


def test_run_zero_horizon(tmp_path):
    spec = ProblemSpec(problem="sg1d", t_end=0.0, out=str(tmp_path))
    result = run(spec)
    assert len(result.records) == 1
    assert result.records[0].t == 0.0
    assert result.records[0].err_l2 == 0.0
    csv = (tmp_path / "run.csv").read_text().splitlines()
    assert csv[0] == "t,E_mod,E_orig,err_l2,err_inf,iters"
    assert len(csv) == 2


def test_run_sg1d_final_error(tmp_path):
    spec = ProblemSpec(problem="sg1d", out=str(tmp_path))  # defaults: h=0.1, tau=0.01, t=1
    result = run(spec)
    last = result.records[-1]
    assert last.t == pytest.approx(1.0)
    assert last.err_l2 == pytest.approx(1.287e-3, rel=0.02)
    text = (tmp_path / "run.csv").read_text()
    cells = [cell for line in text.splitlines()[1:] for cell in line.split(",") if cell]
    assert all(np.isfinite(float(c)) for c in cells)
    times = [float(line.split(",")[0]) for line in text.splitlines()[1:]]
    assert times == sorted(times)


def test_csv_bytes_reproducible_through_manifest(tmp_path, capsys):
    # a manifest alone, with no flag beside it, reruns the flag-driven run
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--problem", "sg1d", "--n", "80", "--tau", "0.05", "--t-end", "0.5",
                 "--out", str(out_a)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = sg1d\nn = 80\ntau = 0.05\nt_end = 0.5\nout = {out_b}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()
    assert capsys.readouterr().err == ""


def test_manifest_with_every_key_set():
    manifest = (
        "problem = sg2d_ring\n"
        "scheme = eavfs\n"
        "n = 64\n"
        "tau = 0.05\n"
        "t_end = 2.5\n"
        "c0 = 0.5\n"
        "cadence = 3\n"
        "out = results/ring\n"
        "snapshots = 0.5, 2.5\n"
        "fp_tol = 1e-12\n"
        "fp_max_iters = 50\n"
    )
    assert spec_from_mapping(parse_manifest(manifest)) == ProblemSpec(
        problem="sg2d_ring", scheme="eavfs", n=64, tau=0.05, t_end=2.5, c0=0.5, cadence=3,
        out="results/ring", snapshot_times=(0.5, 2.5), fp_tol=1e-12, fp_max_iters=50)


def test_manifest_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_manifest("problem = sg1d\nbogus = 3\n")


def test_manifest_rejects_a_duplicate_key(tmp_path, capsys):
    text = "problem = sg1d\ntau = 0.05\n# tau again\ntau = 0.1\n"
    with pytest.raises(ValueError, match="^manifest line 4: duplicate key 'tau'$"):
        parse_manifest(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--n", "16", "--t-end", "0.1"]) == 3
    assert capsys.readouterr().err == (
        "expsav: config error: manifest line 4: duplicate key 'tau'\n")


def test_manifest_comments_and_blanks():
    mapping = parse_manifest("# a manifest\n\nproblem = sg1d  # trailing\n tau = 0.05\n")
    assert mapping == {"problem": "sg1d", "tau": "0.05"}


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(problem="sg1d", scheme="rk4")
    with pytest.raises(ValueError):
        ProblemSpec(problem="sg1d", cadence=0)
    with pytest.raises(ValueError):
        run(ProblemSpec(problem="sg1d", tau=0.3, t_end=1.0))  # not an integer step count
    with pytest.raises(ValueError):
        run(ProblemSpec(problem="nope"))


def test_spec_fixed_point_defaults_are_the_solver_defaults():
    spec, cfg = ProblemSpec(problem="sg1d"), expsav.FixedPointConfig()
    assert (spec.fp_tol, spec.fp_max_iters) == (cfg.tol, cfg.max_iters) == (1e-14, 200)


def test_ring_snapshots(tmp_path):
    spec = ProblemSpec(problem="sg2d_ring", n=64, t_end=10.0, cadence=100,
                       snapshot_times=(0.0, 2.5, 5.0, 7.5, 10.0), out=str(tmp_path))
    result = run(spec)
    snaps = sorted(tmp_path.glob("snapshot_*.dat"))
    assert len(snaps) == 5
    final = tmp_path / "snapshot_t10.dat"
    assert final.read_bytes().startswith(b"expsav-snapshot 2\n")
    header, values = read_snapshot(final)
    assert "transform" not in header
    assert header["dim"] == "2"
    assert header["shape"] == "64 64"
    assert header["components"] == "1"
    # a snapshot holds u itself, bit for bit
    assert values.tobytes() == result.final_state.u.values.tobytes()


def test_snapshot_roundtrip_complex(tmp_path):
    spec = ProblemSpec(problem="nls2d_planewave", n=16, tau=0.05, t_end=0.1,
                       snapshot_times=(0.1,), out=str(tmp_path))
    result = run(spec)
    header, values = read_snapshot(tmp_path / "snapshot_t0.1.dat")
    assert header["components"] == "2"
    np.testing.assert_allclose(values, result.final_state.u.values, atol=1e-15)


def test_convergence_driver_orders():
    base = ProblemSpec(problem="sg1d", n=100, tau=0.04, t_end=0.4, cadence=10)
    rows = convergence_driver(base, levels=2)
    assert rows[0].order_l2 is None
    assert rows[1].order_l2 == pytest.approx(2.0, abs=0.2)
    assert rows[1].n == 200
    assert rows[1].tau == pytest.approx(0.02)


def test_convergence_driver_rejects_single_level():
    with pytest.raises(ValueError):
        convergence_driver(ProblemSpec(problem="sg1d"), levels=1)


def test_compare_driver_trivial_problem_and_iteration_counts():
    if "zero1d" not in CATALOG:
        register(CatalogEntry(
            id="zero1d", kind="wave", dim=1, a=-1.0, b=1.0,
            default_n=32, default_tau=0.1, default_t_end=1.0, default_c0=1.0,
            make_problem=lambda grid, c0: dataclasses.replace(
                get_entry("sg1d").make_problem(grid, c0),
                phi1=lambda x: np.zeros_like(x), phi2=lambda x: np.zeros_like(x)),
            exact=lambda grid: lambda t: np.zeros(grid.size),
        ))
    rows = compare_driver(ProblemSpec(problem="zero1d"))
    by_scheme = {r.scheme: r for r in rows}
    assert by_scheme["esavs"].total_iters == 0
    assert by_scheme["esavs"].err_l2 == 0.0
    assert by_scheme["eavfs"].err_l2 == 0.0  # identical (zero) solutions


def test_run_samples_the_exact_factory_once_and_evaluates_it_per_row(monkeypatch):
    calls = {"factory": 0, "rows": 0}
    sg1d = get_entry("sg1d")

    def counting_exact(grid):
        calls["factory"] += 1
        exact_at = sg1d.exact(grid)

        def at(t):
            calls["rows"] += 1
            return exact_at(t)
        return at

    monkeypatch.setitem(CATALOG, "count1d", dataclasses.replace(
        sg1d, id="count1d", exact=counting_exact))
    spec = ProblemSpec(problem="count1d", n=64, tau=0.01, t_end=0.05, cadence=2)
    result = run(spec)
    assert len(result.records) == 4  # t = 0, 0.02, 0.04 and the final step
    assert calls == {"factory": 1, "rows": 4}
    run(spec)
    assert calls == {"factory": 2, "rows": 8}


FMT_CASES = [
    (0.0, "0.0000000000000000e+00"),
    (-0.0, "-0.0000000000000000e+00"),
    (1.0 / 3.0, "3.3333333333333331e-01"),
    (-2.5e-300, "-2.5000000000000000e-300"),
    (1e300, "1.0000000000000001e+300"),
    (5e-324, "4.9406564584124654e-324"),
    (np.float64(0.1), "1.0000000000000001e-01"),
    (-7.0, "-7.0000000000000000e+00"),
    (42, "42"),
    (None, ""),
]


def test_fmt_text_is_fixed():
    assert [_fmt(v) for v, _ in FMT_CASES] == [text for _, text in FMT_CASES]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_fmt_refuses_a_nonfinite_value(value):
    with pytest.raises(SolverError,
                       match=re.escape(f"non-finite diagnostic {value!r}; refusing to write it")):
        _fmt(value)


def test_compare_driver_sg1d_short():
    rows = compare_driver(ProblemSpec(problem="sg1d", n=100, tau=0.02, t_end=0.2))
    by_scheme = {r.scheme: r for r in rows}
    assert by_scheme["esavs"].total_iters == 0
    assert by_scheme["eavfs"].total_iters >= 2 * 10
    assert by_scheme["eavfs"].energy_drift <= 1e-10


def test_wall_seconds_times_the_steps_only(tmp_path, monkeypatch):
    energy = kg.kg_modified_energy
    nap = 0.05

    def slow_energy(state, problem):
        time.sleep(nap)
        return energy(state, problem)

    monkeypatch.setattr(kg, "kg_modified_energy", slow_energy)
    result = run(ProblemSpec(problem="sg1d", n=100, tau=0.01, t_end=0.1, cadence=1,
                             out=str(tmp_path), snapshot_times=(0.05, 0.1)))
    slept = nap * len(result.records)  # one diagnostics row per step, plus t = 0
    assert len(result.records) == 11
    # ten of the eleven naps fall inside the loop; the steps themselves take ~1 ms
    assert 0.0 < result.wall_seconds < 0.5 * slept


# frozen regression values from this implementation (soliton, N = 4096, t = 1)
NLS_LADDER_REGRESSION = {
    "esavs": (2.45121000e-04, 5.99908011e-05),
    "eavfs": (1.41903483e-04, 3.54783689e-05),
}


@pytest.mark.parametrize("scheme", ["esavs", "eavfs"])
def test_nls_temporal_ladder_both_schemes(scheme):
    base = ProblemSpec(problem="nls1d_soliton", scheme=scheme, tau=0.0025, t_end=1.0,
                       cadence=400)
    rows = convergence_driver(base, levels=2)
    assert rows[1].n == rows[0].n  # spectral problems refine in time only
    assert rows[1].order_l2 == pytest.approx(2.0, abs=0.05)
    for row, frozen in zip(rows, NLS_LADDER_REGRESSION[scheme]):
        assert row.err_l2 == pytest.approx(frozen, rel=1e-6)


# ---------------------------------------------------------------- CLI


def test_cli_run_writes_csv(tmp_path, capsys):
    code = main(["run", "--problem", "sg1d", "--n", "80", "--tau", "0.05",
                 "--t-end", "0.5", "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "err_l2" in out
    assert (tmp_path / "o" / "run.csv").exists()


def test_cli_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = sg1d\nn = 80\ntau = 0.05\nt_end = 0.5\n")
    out = tmp_path / "from_cfg"
    assert main(["run", "--problem", "sg1d", "--config", str(cfg),
                 "--t-end", "0.25", "--out", str(out)]) == 0
    rows = (out / "run.csv").read_text().splitlines()[1:]
    assert float(rows[-1].split(",")[0]) == pytest.approx(0.25)


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "--problem", "bogus"]) == 3
    assert main(["run", "--problem", "sg1d", "--tau", "-0.1"]) == 3
    assert main(["converge", "--problem", "sg1d", "--levels", "1"]) == 3
    assert main(["run"]) == 3  # no problem given
    capsys.readouterr()


NO_PROBLEM = ("expsav: config error: no problem given (--problem, or the 'problem' key of a "
              "run manifest)\n")


@pytest.mark.parametrize("argv", [
    ["run"],
    ["run", "--config", "run.cfg"],
    ["converge", "--levels", "2"],
    ["compare", "--n", "16"],
])
def test_cli_missing_problem_is_one_config_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("n = 16\ntau = 0.1\n")
    assert main(argv) == 3
    assert capsys.readouterr() == ("", NO_PROBLEM)


@pytest.mark.parametrize("flag,key,text,message", [
    ("--n", "n", "x", "invalid literal for int() with base 10: 'x'"),
    ("--n", "n", "16.0", "invalid literal for int() with base 10: '16.0'"),
    ("--tau", "tau", "", "could not convert string to float: ''"),
    ("--tau", "tau", "fast", "could not convert string to float: 'fast'"),
    ("--t-end", "t_end", "1,5", "could not convert string to float: '1,5'"),
    ("--c0", "c0", "one", "could not convert string to float: 'one'"),
    ("--cadence", "cadence", "", "invalid literal for int() with base 10: ''"),
    ("--cadence", "cadence", "2.5", "invalid literal for int() with base 10: '2.5'"),
    ("--scheme", "scheme", "rk4", "must be one of esavs, eavfs"),
    ("--scheme", "scheme", "", "must be one of esavs, eavfs"),
    ("--out", "out", "", "must name a directory"),
])
def test_cli_bad_value_fails_alike_as_flag_and_manifest_line(flag, key, text, message,
                                                              tmp_path, monkeypatch, capsys):
    # one parser and one check for both sources: the same single line, naming the key
    monkeypatch.chdir(tmp_path)
    line = f"expsav: config error: {key} = {text!r}: {message}\n"
    base = ["run", "--problem", "sg1d", "--n", "16", "--tau", "0.1", "--t-end", "0.2"]
    assert main([*base, flag, text]) == 3
    assert capsys.readouterr() == ("", line)
    Path("run.cfg").write_text(f"problem = sg1d\n{key} = {text}\n")
    assert main(["run", "--config", "run.cfg"]) == 3
    assert capsys.readouterr() == ("", line)
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]  # no run.csv anywhere


def test_cli_all_blank_out_writes_nothing(tmp_path, monkeypatch, capsys):
    # a manifest strips its values, so only a flag can carry blanks
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--problem", "sg1d", "--n", "16", "--tau", "0.1", "--t-end", "0.1",
                 "--out", "   "]) == 3
    assert capsys.readouterr() == (
        "", "expsav: config error: out = '   ': must name a directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,manifest,code,err,files", [
    (["--h", "0.5"], "", 3, "error: unrecognized arguments: --h 0.5\n", []),
    (["--transform", "identity"], "", 3, "error: unrecognized arguments: --transform identity\n",
     []),
    ([], "transform = identity\n", 3,
     "expsav: config error: manifest line 2: unknown key 'transform'\n", []),
    (["--snapshots", "0.5"], "", 3,
     "expsav: config error: snapshots need an output directory (--out)\n", []),
    (["--snapshots", "0.5,0.5", "--out", "o"], "", 0, "", ["run.csv", "snapshot_t0.5.dat"]),
])
def test_cli_run_values_have_one_spelling(flags, manifest, code, err, files, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("problem = sg1d\n" + manifest)
    assert main(["run", "--problem", "sg1d", "--n", "40", "--tau", "0.1", "--t-end", "1",
                 "--config", "run.cfg", *flags]) == code
    out, got = capsys.readouterr()
    assert got.endswith(err) and got.count("expsav: config error:") <= 1
    # one file and one "wrote" line per distinct snapshot time
    assert sorted(p.name for p in tmp_path.glob("o/*")) == files
    assert out.count("wrote ") == len(files)


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # an iteration cap of 1 cannot meet tol 1e-14 on nontrivial data
    cfg = tmp_path / "stall.cfg"
    cfg.write_text("problem = sg1d\nn = 80\ntau = 0.05\nt_end = 0.5\n"
                   "scheme = eavfs\nfp_max_iters = 1\n")
    assert main(["run", "--problem", "sg1d", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_cli_converge(tmp_path, capsys):
    code = main(["converge", "--problem", "sg1d", "--levels", "2", "--n", "100",
                 "--tau", "0.04", "--t-end", "0.4", "--out", str(tmp_path)])
    assert code == 0
    table = (tmp_path / "converge.csv").read_text().splitlines()
    assert table[0] == "level,n,tau,err_l2,order_l2,err_inf,order_inf"
    assert len(table) == 3
    capsys.readouterr()


def test_compare_driver_table_cell():
    # full first ladder cell, both schemes' errors at their published values
    rows = compare_driver(ProblemSpec(problem="sg1d", n=400, tau=0.01, t_end=1.0,
                                      cadence=100))
    by_scheme = {r.scheme: r for r in rows}
    assert by_scheme["esavs"].err_l2 == pytest.approx(1.287e-3, rel=0.02)
    assert by_scheme["eavfs"].err_l2 == pytest.approx(1.104e-3, rel=0.10)


def test_cli_compare_nls(capsys):
    assert main(["compare", "--problem", "nls2d_planewave", "--n", "16",
                 "--tau", "0.02", "--t-end", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "wall-time ratio" in out


def test_cli_compare(tmp_path, capsys):
    code = main(["compare", "--problem", "sg1d", "--n", "100", "--tau", "0.02",
                 "--t-end", "0.2", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "wall-time ratio" in out
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("scheme,")
    assert len(lines) == 3


def test_cli_compare_cadence_matches_every_step_run(tmp_path, capsys):
    # compare --cadence 1 samples E_mod at every step, as run --cadence 1 writes it
    base = ["--problem", "sg1d", "--n", "100", "--tau", "0.1", "--t-end", "2"]
    assert main(["compare", *base, "--cadence", "1", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "compare.csv").read_text().splitlines()[1:]]
    for scheme, _, _, drift, _, _ in rows:
        out = tmp_path / scheme
        assert main(["run", *base, "--scheme", scheme, "--cadence", "1", "--out", str(out)]) == 0
        e_mod = np.loadtxt(out / "run.csv", delimiter=",", skiprows=1, usecols=1)
        assert len(e_mod) == 21
        assert float(drift) == np.max(np.abs(e_mod - e_mod[0]))
    capsys.readouterr()


def test_readme_commands_parse():
    # the README's sh blocks carry the experiment commands; keep them runnable
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.splitlines() if line.startswith("expsav ")]
    assert {argv[1] for argv in commands} == {"run", "converge", "compare"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.problem in CATALOG, argv


def _readme_section(heading: str) -> str:
    return README.read_text().split(heading, 1)[1].split("\n#", 1)[0]


def test_readme_synopsis_lists_every_flag():
    synopsis = re.search(r"^```\n(.*?)^```", _readme_section("## Command line"),
                         re.S | re.M).group(1)
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices.values()
    flags = {opt for sub in commands for action in sub._actions
             for opt in action.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z][a-z0-9-]*", synopsis)) == flags


def test_readme_lists_every_manifest_key():
    keys = re.search(r"Keys:(.*?)\.\s", _readme_section("### Config manifests"), re.S).group(1)
    assert set(re.findall(r"`(\w+)`", keys)) == set(MANIFEST_KEYS)


def test_csv_headers_match_the_readme(tmp_path, capsys):
    # the headers are the row dataclasses' field names, so field order is the column order
    section = README.read_text().split("### Output formats", 1)[1]
    base = ["--problem", "sg1d", "--n", "40", "--tau", "0.1", "--t-end", "0.2",
            "--out", str(tmp_path)]
    assert main(["run", *base]) == 0
    assert main(["converge", *base, "--levels", "2"]) == 0
    assert main(["compare", *base]) == 0
    for name in ("run.csv", "converge.csv", "compare.csv"):
        columns = re.search(rf"`{re.escape(name)}`.*?`(\w+(?:,\w+)+)`", section, re.S).group(1)
        assert (tmp_path / name).read_text().splitlines()[0] == columns, name
    capsys.readouterr()


# ---------------------------------------------------------------- failure paths

# a step far beyond the stable range: the eavfs fixed point blows up in step 1,
# which starts from u^0, so the warm start of later steps cannot move the message
DIVERGING_EAVFS = ["run", "--problem", "kg2d_cubic", "--tau", "4", "--t-end", "40",
                   "--n", "16", "--scheme", "eavfs"]
DIVERGED_MSG = "expsav: solver failure: fixed point diverged at iteration 9\n"
# an esavs blow-up: the solution grows until the closure's Parseval product
# <K w, w>, of order |uhat|^6, overflows at step 33 of 60
NONFINITE_ESAVS = ["run", "--problem", "nls2d_planewave", "--n", "32", "--tau", "4",
                   "--t-end", "240"]
NONFINITE_MSG = ("expsav: solver failure: closure coefficient Re<gamma, Phi gamma> "
                 "is non-finite (nan)\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,message", [
    (DIVERGING_EAVFS, DIVERGED_MSG),
    (["run", "--problem", "nls1d_soliton", "--tau", "5", "--t-end", "50", "--n", "16",
      "--scheme", "eavfs"], "expsav: solver failure: fixed point diverged at iteration 7\n"),
    (NONFINITE_ESAVS, NONFINITE_MSG),
])
def test_cli_eavfs_divergence_fails_fast(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_esavs_overflow_is_a_solver_failure(capsys):
    # the solution grows until the closure's product <K w, w> overflows at step 119 of 150
    assert main(["run", "--problem", "nls2d_planewave", "--tau", "3", "--t-end", "450",
                 "--n", "8"]) == 2
    assert capsys.readouterr().err == (
        "expsav: solver failure: closure coefficient Re<gamma, Phi gamma> is non-finite (nan)\n")


@pytest.mark.parametrize("c0", ["nan", "inf"])
@pytest.mark.parametrize("problem", ["sg1d", "nls1d_soliton"])
def test_cli_nonfinite_initial_radicand_is_a_config_error(problem, c0, capsys):
    assert main(["run", "--problem", problem, "--n", "16", "--c0", c0, "--t-end", "0.1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("expsav: config error:")
    assert f"= {c0} is not finite and positive" in err


@pytest.mark.parametrize("flags,manifest,field", [
    (["--tau", "nan"], "", "tau"),
    (["--tau", "inf"], "", "tau"),
    (["--t-end", "nan"], "", "t_end"),
    (["--t-end", "inf"], "", "t_end"),
    (["--tau", "1e-320"], "", "t_end / tau"),
    ([], "fp_tol = nan\n", "fp_tol = nan:"),
    ([], "fp_tol = inf\n", "fp_tol = inf:"),
])
def test_cli_nonfinite_step_horizon_or_tolerance_is_a_config_error(flags, manifest, field,
                                                                   tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = sg1d\nscheme = eavfs\n" + manifest)
    assert main(["run", "--problem", "sg1d", "--n", "40", "--config", str(cfg), *flags]) == 3
    assert capsys.readouterr().err.startswith(f"expsav: config error: {field} must be ")


def test_cli_unwritable_out_is_an_io_failure(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert main(["run", "--problem", "sg1d", "--n", "16", "--tau", "0.1", "--t-end", "0.2",
                 "--out", str(blocker / "out")]) == 2
    assert capsys.readouterr().err.startswith("expsav: i/o failure:")


def _python(*args, **env_vars):
    """Run the interpreter on this checkout's package, with env_vars set in its
    environment; returns the finished process."""
    src = str(Path(expsav.__file__).resolve().parents[1])
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


THREAD_RUNS = """
import sys
from expsav.cli import main
runs = [("sg2d_ring", ["--n", "200", "--t-end", "0.5"]),
        ("kg2d_cubic", ["--n", "200", "--t-end", "0.5"]),
        ("nls1d_soliton", ["--t-end", "0.05"]), ("nls2d_planewave", ["--t-end", "0.05"])]
for problem, flags in runs:
    for scheme in ("esavs", "eavfs"):
        code = main(["run", "--problem", problem, "--scheme", scheme, *flags, "--cadence", "1",
                     "--out", f"{sys.argv[1]}/{problem}-{scheme}"])
        if code:
            sys.exit(code)
"""


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at n = 200 a BLAS dot is long enough for OpenBLAS to thread it, and its
    # sum order, so its last bits, would follow the thread count; the
    # Schroedinger problems run at their catalog sizes, where nls.py's np.dot
    # and np.vdot stay below the threading threshold
    csv = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = _python("-c", THREAD_RUNS, str(out), OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        csv[threads] = {run.name: (run / "run.csv").read_bytes() for run in out.iterdir()}
    assert len(csv["1"]) == 8
    assert csv["1"] == csv["2"]


def test_cli_divergence_same_under_optimize():
    # runtime checks must not be asserts, which python -O strips
    for argv, message in ((DIVERGING_EAVFS, DIVERGED_MSG), (NONFINITE_ESAVS, NONFINITE_MSG)):
        proc = _python("-O", "-m", "expsav.cli", *argv)
        assert proc.returncode == 2
        assert proc.stderr == message


@pytest.mark.parametrize("manifest,line", [
    ("fp_max_iters = 0\n", "expsav: config error: fp_max_iters = 0: must be >= 1\n"),
    ("fp_tol = nan\n", "expsav: config error: fp_tol = nan: must be positive and finite\n"),
])
def test_cli_fixed_point_settings_fail_under_their_keys(manifest, line, tmp_path):
    # ProblemSpec checks them under the names a user types, and not with asserts
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = sg1d\nscheme = eavfs\nn = 16\ntau = 0.1\nt_end = 0.2\n" + manifest)
    for flags in ([], ["-O"]):
        proc = _python(*flags, "-m", "expsav.cli", "run", "--config", str(cfg))
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", line)


# the CLI, with sg1d registered once more as "nochord1d", its chord mean taken away
NO_CHORD_MEAN_CLI = """
import dataclasses, sys
from expsav.catalog import get_entry, register
from expsav.cli import main
sg1d = get_entry("sg1d")
register(dataclasses.replace(sg1d, id="nochord1d", make_problem=lambda grid, c0:
                             dataclasses.replace(sg1d.make_problem(grid, c0), chord_mean=None)))
raise SystemExit(main(sys.argv[1:]))
"""


def test_cli_wave_entry_without_chord_mean_is_a_config_error_under_eavfs():
    argv = ["run", "--problem", "nochord1d", "--n", "16", "--tau", "0.1", "--t-end", "0.2"]
    for flags in ([], ["-O"]):
        proc = _python(*flags, "-c", NO_CHORD_MEAN_CLI, *argv, "--scheme", "eavfs")
        assert proc.returncode == 3
        assert proc.stderr == (
            "expsav: config error: the implicit wave step needs KgProblem.chord_mean\n")
    assert _python("-c", NO_CHORD_MEAN_CLI, *argv, "--scheme", "esavs").returncode == 0
