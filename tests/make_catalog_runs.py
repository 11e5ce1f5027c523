"""Record the ten catalog runs (every problem x scheme at catalog defaults).

Writes tests/data/catalog_runs.json, the record that tests/test_catalog_runs.py
recomputes and compares. Run it from the repository root:

    PYTHONPATH=src python tests/make_catalog_runs.py

Regenerate the file only for a change of scheme or arithmetic, and record
the old and new values of every moved run in CHANGES.md.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from expsav.catalog import CATALOG
from expsav.runner import SCHEMES, ProblemSpec, RunRecord, run

CADENCE = 10
COLUMNS = tuple(f.name for f in fields(RunRecord))
RECORD = Path(__file__).resolve().parent / "data" / "catalog_runs.json"
RUNS = tuple(f"{problem}-{scheme}" for problem in CATALOG for scheme in SCHEMES)


def catalog_run(name: str) -> dict:
    """One run's rows (COLUMNS, None where a run tracks no value) and total iterations."""
    problem, scheme = name.rsplit("-", 1)
    result = run(ProblemSpec(problem=problem, scheme=scheme, cadence=CADENCE))
    rows = [[getattr(record, column) for column in COLUMNS] for record in result.records]
    return {"total_iters": result.total_iters, "rows": rows}


def main():
    record = {"cadence": CADENCE, "columns": list(COLUMNS),
              "runs": {name: catalog_run(name) for name in RUNS}}
    RECORD.parent.mkdir(exist_ok=True)
    # json writes floats by repr, which reads back bit for bit
    RECORD.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
