"""Tests of the benchmark itself.

    python -m pytest bench

They pin what the benchmark's numbers rest on: tracing leaves the package's
results untouched and puts every wrapper back, the counts it reports repeat
exactly at a fixed seed, seeds generate fixed inputs, and the correctness
gates reject a broken run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import tracer as tr
import workloads as wl
from expsav import avf, catalog, fourier, grids, kg, nls, runner, tables

EXACT_COUNTS = (
    "fourier.step_calls_per_step", "fourier.diag_calls_per_step",
    "fourier.bytes_computed_per_step", "avf.iters_per_step_mean", "avf.iters_per_step_max",
    "tables.bytes", "catalog.G_calls_per_step", "catalog.Gp_calls_per_step",
    "diagnostics.rows", "runner.bytes_written",
)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tracing_leaves_run_records_identical(name, tmp_path):
    spec = wl.run_spec(wl.WORKLOADS[name], seed=0, out=str(tmp_path))
    plain = runner.run(spec)
    with tr.Tracer(spec.problem) as tracer:
        traced = runner.run(spec)
    assert traced.records == plain.records
    assert np.array_equal(traced.final_state.u.values, plain.final_state.u.values)
    names = {span.name for span in tracer.spans}
    assert {"runner.run", "tables.build", "fourier.forward_values"} <= names


def test_tracer_restores_every_wrapper():
    modules = (avf, catalog, fourier, kg, nls, runner, tables)
    before = [dict(vars(m)) for m in modules]
    post_inits = (grids.Field.__post_init__, grids.ComplexField.__post_init__)
    entry = catalog.get_entry("sg2d_ring")
    with tr.Tracer("sg2d_ring"):
        assert kg.kg_step is not before[modules.index(kg)]["kg_step"]
        assert catalog.get_entry("sg2d_ring") is not entry
    assert [dict(vars(m)) for m in modules] == before
    assert (grids.Field.__post_init__, grids.ComplexField.__post_init__) == post_inits
    assert catalog.get_entry("sg2d_ring") is entry


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_layer_counts_repeat_exactly(name, tmp_path):
    reports = []
    for rep in range(2):
        out = tmp_path / str(rep)
        out.mkdir()
        sess = bench.Session(wl.WORKLOADS[name], seed=2, out_dir=out)
        metrics, _ = bench.measure_traced(sess, seconds=0.0, min_rounds=1)
        assert sess.failed == 0, sess.problems
        reports.append({k: metrics[k] for k in EXACT_COUNTS})
    assert reports[0] == reports[1]
    assert reports[0]["fourier.step_calls_per_step"] > 0


def test_seed_zero_is_the_catalog_data_and_seeds_repeat():
    work = wl.WORKLOADS["wave2d_sav"]
    assert wl.seeded_problem_id(work, 0) == "sg2d_ring"
    base = wl.prepare(wl.run_spec(work, 0, out=None)).state.u.values
    first = wl.prepare(wl.run_spec(work, 7, out=None)).state.u.values
    catalog.CATALOG.pop(wl.seeded_problem_id(work, 7))
    again = wl.prepare(wl.run_spec(work, 7, out=None)).state.u.values
    other = wl.prepare(wl.run_spec(work, 8, out=None)).state.u.values
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    rel = np.max(np.abs(first - base)) / np.max(np.abs(base))
    assert 0.0 < rel <= wl.PERTURB_AMPLITUDE


def test_gates_reject_drift_and_a_wrong_error():
    work = wl.WORKLOADS["nls1d_diag"]
    result = runner.run(wl.run_spec(work, 0, out=None))
    assert wl.check_run(work, 0, result) == []
    last = result.records[-1]
    drifted = dataclasses.replace(
        result, records=result.records[:-1] + [dataclasses.replace(last, E_mod=last.E_mod + 1e-6)])
    assert any("E_mod drift" in p for p in wl.check_run(work, 0, drifted))
    wrong = dataclasses.replace(
        result, records=result.records[:-1] + [dataclasses.replace(last, err_l2=last.err_l2 * 1.01)])
    assert any("err_l2" in p for p in wl.check_run(work, 0, wrong))
    nan = dataclasses.replace(
        result, records=result.records[:-1] + [dataclasses.replace(last, E_orig=float("nan"))])
    assert wl.check_run(work, 0, nan) == ["non-finite diagnostics"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nls1d_diag", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((Path(bench.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
