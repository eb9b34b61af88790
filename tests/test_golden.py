"""The reports of a fixed config, byte for byte against the files recorded in
tests/golden/.

The `verify` CSV and JSON of verify-core, verify-kato, norms and bounds are
those of the default config (n=1, N=32, T=I/2, seed 0); report-full is that
of `report` at n=2, N=8, T=I/2.  A change that moves any value, even at
rounding level, fails this test.  When such a change is meant, re-record the
files (`python -m symplecta.cli verify --suite <suite> --json --out
tests/golden`, and `report` with the n=2 config below) and name every
re-recorded file in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from symplecta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_golden(out, name):
    for ext in ("csv", "json"):
        got = (out / f"{name}.{ext}").read_bytes()
        assert got == (GOLDEN / f"{name}.{ext}").read_bytes(), f"{name}.{ext}"


@pytest.mark.parametrize("suite", ["verify-core", "verify-kato", "norms", "bounds"])
def test_verify_reports_match_the_golden_bytes(tmp_path, suite):
    assert main(["verify", "--suite", suite, "--out", str(tmp_path), "--json"]) == 0
    assert_golden(tmp_path, f"report-{suite}")


def test_n2_report_matches_the_golden_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "N": 8, "T": (0.5 * np.eye(4)).tolist()}))
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path), "--json"]) == 0
    assert_golden(tmp_path, "report-full")
