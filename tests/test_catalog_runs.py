"""The ten catalog runs (every problem x scheme at catalog defaults, diagnostics
every 10 steps) against their committed record, tests/data/catalog_runs.json.

Iteration counts must match exactly. Energies must match to 1e-12 of the
largest magnitude of their column in the run, error norms to rel 1e-9. The
largest roundoff moves a change of arithmetic has made so far, when the two
esavs steps came to share one closure, are 7.8e-15 and rel 1.2e-11, so the
reserve is 128x on energies and 84x on error norms. A change of scheme or
arithmetic that moves a run further regenerates the record with
tests/make_catalog_runs.py and records the old and new values in CHANGES.md.
"""

import json

import pytest

from make_catalog_runs import COLUMNS, RECORD, RUNS, catalog_run

ENERGY_REL = 1e-12
ERROR_REL = 1e-9


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_the_record_holds_every_catalog_run(record):
    assert (record["columns"], sorted(record["runs"])) == (list(COLUMNS), sorted(RUNS))


@pytest.mark.parametrize("name", RUNS)
def test_catalog_run_matches_its_record(name, record):
    want, got = record["runs"][name], catalog_run(name)
    assert got["total_iters"] == want["total_iters"]
    assert len(got["rows"]) == len(want["rows"])
    columns = {c: [row[i] for row in want["rows"]] for i, c in enumerate(COLUMNS)}
    for got_row, want_row in zip(got["rows"], want["rows"]):
        values = dict(zip(COLUMNS, got_row))
        expected = dict(zip(COLUMNS, want_row))
        assert (values["t"], values["iters"]) == (expected["t"], expected["iters"])
        for column in ("E_mod", "E_orig"):
            scale = max(abs(v) for v in columns[column])
            assert values[column] == pytest.approx(expected[column], rel=0.0,
                                                   abs=ENERGY_REL * scale), (column, values["t"])
        for column in ("err_l2", "err_inf"):
            if expected[column] is None:
                assert values[column] is None
            else:
                assert values[column] == pytest.approx(expected[column], rel=ERROR_REL,
                                                       abs=0.0), (column, values["t"])
