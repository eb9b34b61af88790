"""The reports of a fixed config, byte for byte against the files recorded in
tests/golden/.

RUNS is the one table of recorded runs: (golden dir, argv, config).  The
`verify` CSV and JSON of verify-core, verify-kato, norms and bounds are those
of the default config (n=1, N=32, T=I/2, seed 0) and, in golden/N64, of the
same config at N=64; report-full is that of `report` at n=2, N=8, T=I/2;
golden/quantize-N16 holds the operator file and provenance JSON of `quantize`
at N=16 by each route.  A change that moves any value, even at rounding level,
fails this test.  When such a change is meant, re-record every file from the
table with

    PYTHONPATH=src python tests/test_golden.py --record

and name every file that `git diff --stat tests/golden` lists in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from symplecta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SUITES = ("verify-core", "verify-kato", "norms", "bounds")
ROUTES = ("synthesis", "kernel")

# every recorded run: (golden dir, argv without --config and --out, config)
RUNS = {
    **{suite: (GOLDEN, ["verify", "--suite", suite, "--json"], {}) for suite in SUITES},
    **{f"N64/{suite}": (GOLDEN / "N64", ["verify", "--suite", suite, "--json"], {"N": 64})
       for suite in SUITES},
    **{f"quantize-N16/{route}": (GOLDEN / "quantize-N16", ["quantize"],
                                 {"N": 16, "route": route}) for route in ROUTES},
    "report-full": (GOLDEN, ["report", "--json"],
                    {"n": 2, "N": 8, "T": (0.5 * np.eye(4)).tolist()}),
}


def run(argv, config, out, cfg_dir):
    """Run the CLI with `config` written to cfg_dir/cfg.json and its outputs
    written to `out`; a run that does not pass raises."""
    cfg = Path(cfg_dir) / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main([*argv, "--config", str(cfg), "--out", str(out)])
    if rc != 0:
        raise AssertionError(f"{argv} with {config} exited {rc}")


def assert_golden_run(tmp_path, golden, argv, config):
    """The two files the run writes are the bytes of their namesakes in golden."""
    out = tmp_path / "out"
    run(argv, config, out, tmp_path)
    written = sorted(out.iterdir())
    assert len(written) == 2, [p.name for p in written]
    for path in written:
        assert path.read_bytes() == (golden / path.name).read_bytes(), path.name


@pytest.mark.parametrize("suite", SUITES)
def test_verify_reports_match_the_golden_bytes(tmp_path, suite):
    assert_golden_run(tmp_path, *RUNS[suite])


def test_integral_float_N_runs_as_the_integer(tmp_path):
    assert_golden_run(tmp_path, GOLDEN, ["verify", "--json"], {"N": 32.0})


@pytest.mark.parametrize("suite", SUITES)
def test_n64_verify_reports_match_the_golden_bytes(tmp_path, suite):
    assert_golden_run(tmp_path, *RUNS[f"N64/{suite}"])


@pytest.mark.parametrize("route", ROUTES)
def test_quantize_outputs_match_the_golden_bytes(tmp_path, route):
    assert_golden_run(tmp_path, *RUNS[f"quantize-N16/{route}"])


def test_n2_report_matches_the_golden_bytes(tmp_path):
    assert_golden_run(tmp_path, *RUNS["report-full"])


def record():
    """Rewrite tests/golden/ from RUNS."""
    with tempfile.TemporaryDirectory() as cfg_dir:
        for golden, argv, config in RUNS.values():
            run(argv, config, golden, cfg_dir)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
