"""Golden output: `run` on every shipped config and `sweep` keep their rows.

``tests/golden/config_rows.json`` holds the rows (every column but
``wallclock_ms``) that ``regretforge run --config configs/<name>`` and
``regretforge sweep --config configs/sweep.json`` wrote before the stream
check moved ahead of the round loop. A fresh row must equal its golden row
bitwise, or within 1e-12 relative (magnitudes below 1 compared as 1), the
rule the benchmark applies to its own outputs.
"""

import csv
import json
from pathlib import Path

import pytest

from regretforge.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "config_rows.json")
                   .read_text(encoding="utf-8"))
REL_TOL = 1e-12


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    columns = [c for c in records[0] if c != "wallclock_ms"]
    rows = []
    for r in records:
        row = []
        for c in columns:
            try:
                row.append(float(r[c]))
            except ValueError:
                row.append(r[c])
        rows.append(row)
    return {"columns": columns, "rows": rows}


def _assert_matches(got, ref):
    assert got["columns"] == ref["columns"]
    assert len(got["rows"]) == len(ref["rows"])
    for i, (a_row, b_row) in enumerate(zip(got["rows"], ref["rows"])):
        for col, a, b in zip(got["columns"], a_row, b_row):
            if a == b:
                continue
            assert not isinstance(a, str) and not isinstance(b, str), (i, col, a, b)
            assert abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b)), (i, col, a, b)


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.json")))
def test_run_rows_match_golden(tmp_path, name):
    out = tmp_path / "rows.csv"
    assert cli_main(["run", "--config", str(ROOT / "configs" / name), "--output", str(out)]) == 0
    _assert_matches(_rows(out), GOLDEN[f"run/{name}"])


def test_sweep_rows_match_golden_with_one_and_two_workers(tmp_path):
    got = {}
    for workers in (1, 2):
        out = tmp_path / f"sweep{workers}.csv"
        argv = ["sweep", "--config", str(ROOT / "configs" / "sweep.json"),
                "--output", str(out), "--workers", str(workers)]
        assert cli_main(argv) == 0
        got[workers] = _rows(out)
    assert got[1] == got[2]
    _assert_matches(got[1], GOLDEN["sweep/sweep.json"])


def test_every_shipped_config_has_golden_rows():
    names = {f"run/{p.name}" for p in (ROOT / "configs").glob("*.json")}
    assert names | {"sweep/sweep.json"} == set(GOLDEN)
