"""The reports of a fixed config, byte for byte against the files recorded in
tests/golden/.

The `verify` CSV and JSON of verify-core, verify-kato, norms and bounds are
those of the default config (n=1, N=32, T=I/2, seed 0) and, in golden/N64,
of the same config at N=64; report-full is that of `report` at n=2, N=8,
T=I/2; golden/quantize-N16 holds the operator file and provenance JSON of
`quantize` at N=16 by each route.  A change that moves any value, even at
rounding level, fails this test.  When such a change is meant, re-record the
files (`python -m symplecta.cli verify --suite <suite> --json --out
tests/golden`, and the other commands with the configs below) and name every
re-recorded file in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from symplecta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_golden(out, name, exts=("csv", "json"), golden=GOLDEN):
    for ext in exts:
        got = (out / f"{name}.{ext}").read_bytes()
        assert got == (golden / f"{name}.{ext}").read_bytes(), f"{name}.{ext}"


def write_cfg(tmp_path, **kw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(kw))
    return str(cfg)


@pytest.mark.parametrize("suite", ["verify-core", "verify-kato", "norms", "bounds"])
def test_verify_reports_match_the_golden_bytes(tmp_path, suite):
    assert main(["verify", "--suite", suite, "--out", str(tmp_path), "--json"]) == 0
    assert_golden(tmp_path, f"report-{suite}")


def test_integral_float_N_runs_as_the_integer(tmp_path):
    cfg = write_cfg(tmp_path, N=32.0)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--json"]) == 0
    assert_golden(tmp_path, "report-verify-core")


@pytest.mark.parametrize("suite", ["verify-core", "verify-kato", "norms", "bounds"])
def test_n64_verify_reports_match_the_golden_bytes(tmp_path, suite):
    cfg = write_cfg(tmp_path, N=64)
    assert main(["verify", "--config", cfg, "--suite", suite, "--out", str(tmp_path),
                 "--json"]) == 0
    assert_golden(tmp_path, f"report-{suite}", golden=GOLDEN / "N64")


@pytest.mark.parametrize("route", ["synthesis", "kernel"])
def test_quantize_outputs_match_the_golden_bytes(tmp_path, route):
    cfg = write_cfg(tmp_path, N=16, route=route)
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert_golden(tmp_path, f"op-{route}", ("txt", "json"), GOLDEN / "quantize-N16")


def test_n2_report_matches_the_golden_bytes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "N": 8, "T": (0.5 * np.eye(4)).tolist()}))
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path), "--json"]) == 0
    assert_golden(tmp_path, "report-full")
