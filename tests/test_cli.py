import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from symplecta.calculus import read_operator
from symplecta import cli, grid, katoschatten
from symplecta.cli import main
from symplecta.grid import GridFunction, make_grid, symplectic_fourier, write_grid_function
from symplecta.katoschatten import kato_identity_residual, multiplier_identity_residual
from symplecta.weylrep import build_rep_context

from conftest import set_workers


def write_cfg(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


def test_default_verify_core_passes(tmp_path, capsys):
    rc = main(["verify", "--suite", "verify-core", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    csv = (tmp_path / "report-verify-core.csv").read_text()
    assert csv.splitlines()[0] == "quantity,p,q,value,bound,ratio,pass"
    assert "thm-n4" in csv and "sec1-routes" in csv


@pytest.mark.parametrize("config, rc, tightest", [
    ({}, 0, "sec3-cocycle"),
    ({"N": 16}, 1, "sec2-fsigma-gaussian"),  # fails: 0.0027 against 1e-8
    ({"suite": "norms"}, 0, "thm-n5-modulation"),  # ties thm-n6[lam=0.5] at 0.5
])
def test_summary_names_the_tightest_row(tmp_path, capsys, config, rc, tightest):
    assert main(["verify", "--config", write_cfg(tmp_path, **config),
                 "--out", str(tmp_path)]) == rc
    suite = config.get("suite", "verify-core")
    with open(tmp_path / f"report-{suite}.csv", encoding="utf-8") as fh:
        ratios = {r["quantity"]: float(r["ratio"]) for r in csv.DictReader(fh)}
    assert tightest == next(q for q, r in ratios.items() if r == max(ratios.values()))
    assert capsys.readouterr().out.endswith(
        f"; tightest {tightest} at {ratios[tightest]:.3g} of bound\n")


def test_verify_runs_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = main(["verify", "--suite", "verify-core", "--seed", "3",
                   "--out", str(d), "--json"])
        assert rc == 0
    assert ((d1 / "report-verify-core.csv").read_bytes()
            == (d2 / "report-verify-core.csv").read_bytes())
    assert ((d1 / "report-verify-core.json").read_bytes()
            == (d2 / "report-verify-core.json").read_bytes())


@pytest.mark.parametrize("suite", ["norms", "bounds"])
def test_reports_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, suite):
    # bounds takes d = 2 modulation norms, which run in several chunks at N = 32
    reports = []
    for k in (1, 2):
        set_workers(monkeypatch, k)
        out = tmp_path / str(k)
        cfg = write_cfg(tmp_path, N=32, suite=suite, out=str(out))
        assert main(["verify", "--config", cfg, "--json"]) == 0
        reports.append([(out / f"report-{suite}.{ext}").read_bytes()
                        for ext in ("csv", "json")])
    assert reports[0] == reports[1]


def test_verify_kato_suite_passes(tmp_path, capsys):
    rc = main(["verify", "--suite", "verify-kato", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "report-verify-kato.csv").read_text()
    for tag in ("thm-n14-a", "eq-K2", "thm-n15-ii", "thm-n15-i",
                "sec9-orthogonality"):
        assert tag in csv
    assert ",false" not in csv


def test_verify_kato_builds_each_suite_context_once(tmp_path, monkeypatch):
    calls = []

    def counted(space, T, grid):
        calls.append(np.asarray(T).tolist())
        return build_rep_context(space, T, grid)

    monkeypatch.setattr(cli, "build_rep_context", counted)
    assert main(["verify", "--suite", "verify-kato", "--out", str(tmp_path)]) == 0
    assert calls == [np.asarray(T).tolist() for _, T in cli.DEFAULT_SUITE_T]


def test_verify_core_transforms_each_random_function_twice(tmp_path, monkeypatch):
    # 20 random functions: F f and F F f each, plus one transform of the Gaussian
    calls = []

    def counted(f):
        calls.append(f)
        return symplectic_fourier(f)

    monkeypatch.setattr(cli, "symplectic_fourier", counted)
    assert main(["verify", "--suite", "verify-core", "--out", str(tmp_path)]) == 0
    assert len(calls) == 2 * 20 + 1


def test_json_reports_name_the_suites_that_ran(tmp_path):
    cfg = write_cfg(tmp_path, N=8)
    norms = {"thm-n5-modulation", "thm-n6"}
    bounds = {"thm-n7:p=1", "thm-n7:p=2", "cor-n13", "interp-mu:p=1", "interp-mu:p=2"}
    for argv, name, suite, keys in (
            (["report"], "report-full", "norms+bounds", norms | bounds),
            (["verify", "--suite", "norms"], "report-norms", "norms", norms),
            (["verify", "--suite", "bounds"], "report-bounds", "bounds", bounds)):
        assert main(argv + ["--config", cfg, "--out", str(tmp_path), "--json"]) == 0
        payload = json.loads((tmp_path / f"{name}.json").read_text())
        assert payload["config"]["suite"] == suite
        # every calibrated family records its constant
        assert set(payload["frozen_constants"]) == keys


def test_norms_suite_checks_against_a_reports_frozen_constants():
    # constants frozen at N = 32 bound the N = 64 rows; a calibrating N = 64
    # run gives each thm-n6 row's shape as bound over its own constant
    rng = np.random.default_rng(0)
    frozen = cli._suite_norms(cli.RunConfig(N=32), cli.NormReport(), rng).frozen_constants
    assert set(frozen) == {"thm-n5-modulation", "thm-n6"}
    own = cli._suite_norms(cli.RunConfig(N=64), cli.NormReport(), rng)
    chk = cli._suite_norms(cli.RunConfig(N=64), cli.NormReport(frozen_constants=dict(frozen)),
                           rng)
    assert chk.frozen_constants == frozen
    assert own.frozen_constants["thm-n6"] != frozen["thm-n6"]
    for r, r_own in zip(chk.rows, own.rows):
        if r.quantity == "thm-n5-modulation":
            assert r.bound == frozen["thm-n5-modulation"]
        elif r.quantity.startswith("thm-n6"):
            shape = r_own.bound / own.frozen_constants["thm-n6"]
            assert r.bound == pytest.approx(frozen["thm-n6"] * shape, rel=1e-14)


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["verify", "--suite", "no-such-suite"]) == 2
    cfg = write_cfg(tmp_path, T=[[1.0, 0.0]])  # wrong shape
    assert main(["verify", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = write_cfg(tmp_path, "odd.json", N=31)
    assert main(["verify", "--config", cfg]) == 2


def test_degenerate_multiplier_exits_one_with_witness(tmp_path, capsys):
    cfg = write_cfg(tmp_path, T=[[0.0, -1.0], [1.0, 0.0]])
    rc = main(["verify", "--suite", "verify-core", "--config", cfg,
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "verification failure" in err and "witness" in err


@pytest.mark.parametrize("cfg, code, message", [
    (None, 0, None),
    ({"T": [[0.5, 0.0], [0.0, -0.5]]}, 1, "kernel witness"),
    ({"bogus": 1}, 2, "unknown config key(s) ['bogus']")],
    ids=["pass", "degenerate-T", "unknown-key"])
def test_the_process_exits_with_the_documented_code(tmp_path, cfg, code, message):
    argv = ["verify", "--suite", "verify-core", "--out", str(tmp_path)]
    if cfg is not None:
        argv += ["--config", write_cfg(tmp_path, **cfg)]
    proc = _run_python("-m", "symplecta.cli", *argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if message is not None:
        assert message in proc.stderr


def _run_python(*args):
    """Run a fresh interpreter that imports symplecta from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_importing_one_module_loads_only_what_it_imports():
    # the package module re-exports nothing: each name is imported from its module
    proc = _run_python("-c", "import sys, symplecta.grid; print(*sorted("
                       "m for m in sys.modules if m.split('.')[0] == 'symplecta'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["symplecta", "symplecta.grid", "symplecta.symplin"]


@pytest.mark.parametrize("T", [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 1.0], [0.0, 0.0]]],
                         ids=["diag(.5,-.5)", "nilpotent"])
def test_verify_kato_rejects_a_degenerate_configured_T(tmp_path, capsys, T):
    # the suite maps are fixed, but the configured T is gated as in verify-core
    cfg = write_cfg(tmp_path, T=T)
    assert main(["verify", "--suite", "verify-kato", "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "verification failure: degenerate multiplier" in err and "witness" in err
    assert not (tmp_path / "report-verify-kato.csv").exists()


def test_quantize_identity_from_file_symbol(tmp_path, capsys):
    g = make_grid(1, 16)
    sym = tmp_path / "ones.sgrid"
    write_grid_function(GridFunction(g, np.ones((16, 16))), sym)
    cfg = write_cfg(tmp_path, N=16, symbol={"kind": "file", "path": str(sym)})
    rc = main(["quantize", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    A = read_operator(tmp_path / "op-synthesis.txt")
    assert np.abs(A - np.eye(16)).max() < 1e-9
    prov = json.loads((tmp_path / "op-synthesis.json").read_text())
    assert prov["route"] == "synthesis" and len(prov["sha256"]) == 64


def test_quantize_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, N=16, symbol={"kind": "gaussian",
                                            "center": [0.3, -0.2]})
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["quantize", "--config", cfg, "--out", str(d)]) == 0
    assert ((d1 / "op-synthesis.txt").read_bytes()
            == (d2 / "op-synthesis.txt").read_bytes())


def test_quantize_routes_agree(tmp_path):
    base = dict(N=32, T=[[0.5, 0.0], [0.0, 0.5]],
                symbol={"kind": "gaussian", "center": [0.2, 0.1]})
    c1 = write_cfg(tmp_path, "synth.json", **base, route="synthesis")
    c2 = write_cfg(tmp_path, "kern.json", **base, route="kernel")
    assert main(["quantize", "--config", c1, "--out", str(tmp_path)]) == 0
    assert main(["quantize", "--config", c2, "--out", str(tmp_path)]) == 0
    A1 = read_operator(tmp_path / "op-synthesis.txt")
    A2 = read_operator(tmp_path / "op-kernel.txt")
    assert np.abs(A1 - A2).max() / np.abs(A1).max() < 1e-7


def test_kernel_route_rejects_nondiagonal(tmp_path):
    cfg = write_cfg(tmp_path, N=16, route="kernel",
                    T=[[0.2, 0.5], [-0.3, 0.8]])
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_kernel_route_rejects_a_nearly_diagonal_t(tmp_path, capsys):
    # the kernel reads T[0, 0] and T[1, 1] only, so any off-diagonal entry,
    # however small, would be dropped without a word
    cfg = write_cfg(tmp_path, N=16, route="kernel", T=[[0.5, 1e-13], [0.0, 0.5]])
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "kernel route needs n=1 and diagonal T" in capsys.readouterr().err
    assert not (tmp_path / "op-kernel.txt").exists()


def test_kernel_route_rejects_theta_plus_tau_not_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, N=32, route="kernel",
                    T=[[1.0, 0.0], [0.0, 1.0]])
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    # the sum of the numpy entries of T prints as a plain number
    assert "config error" in err and "got theta + tau = 2.0" in err
    assert "np.float64" not in err
    assert not (tmp_path / "op-kernel.txt").exists()


def test_report_command_small_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, N=16)
    rc = main(["report", "--config", cfg, "--out", str(tmp_path), "--json"])
    assert rc == 0
    csv = (tmp_path / "report-full.csv").read_text()
    for tag in ("thm-n5-inverse", "thm-n6", "thm-n10", "thm-n7", "cor-n13",
                "thm-n15-b", "interp-mu"):
        assert tag in csv
    payload = json.loads((tmp_path / "report-full.json").read_text())
    assert payload["calibration"].startswith("frozen constant")
    assert all(row["pass"] for row in payload["rows"])


def test_config_that_is_not_an_object_exits_two(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"N": 16}]))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "JSON object" in err
    assert not (tmp_path / "report-verify-core.csv").exists()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, sede=3)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'sede'" in err


@pytest.mark.parametrize("key, val", [("n", "one"), ("N", "32"), ("N", 32.5),
                                      ("seed", [1]), ("T", [["a", 0], [0, 1]]),
                                      ("T", [[1, 0], [0]])])
def test_non_numeric_config_value_exits_two(tmp_path, capsys, key, val):
    cfg = write_cfg(tmp_path, **{key: val})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, 3])
def test_n_outside_one_two_exits_two(tmp_path, capsys, n):
    cfg = write_cfg(tmp_path, n=n, T=np.eye(2 * n).tolist())
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: n must be 1 or 2" in capsys.readouterr().err


@pytest.mark.parametrize("N", [31, 2, 258])
def test_N_outside_the_grid_limits_exits_two_naming_it(tmp_path, capsys, N):
    cfg = write_cfg(tmp_path, N=N)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert (f"config error: N must be even and in [4, 256], got {N}"
            in capsys.readouterr().err)


def test_kato_report_reads_as_seven_column_csv(tmp_path):
    assert main(["verify", "--suite", "verify-kato", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report-verify-kato.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 23
    for row in rows:
        assert len(row) == 7 and None not in row
        float(row["value"])
    assert "thm-n14-a[T=diag(.3,.7)]" in {row["quantity"] for row in rows}


def test_map_rows_adds_tagged_rows_map_major():
    report = cli.NormReport()
    seen = []

    def values(ctx, inputs):
        seen.append((ctx, inputs))
        return 2 * len(seen) - 1, 2 * len(seen)

    maps = [("m1", "ctx1", "in1"), ("m2", "ctx2", "in2")]
    cli._map_rows(report, maps, ("thm-n4", "eq-K2"), values)
    assert [r.quantity for r in report.rows] == [
        "thm-n4[m1]", "eq-K2[m1]", "thm-n4[m2]", "eq-K2[m2]"]
    assert all(r.p == r.q == 0 for r in report.rows)
    assert [r.bound for r in report.rows] == [cli.TOLERANCES[t]
                                              for t in ("thm-n4", "eq-K2") * 2]
    assert [r.value for r in report.rows] == [1, 2, 3, 4]
    assert seen == [("ctx1", "in1"), ("ctx2", "in2")]  # one call per map
    with pytest.raises(ValueError):  # one value per tag, no more and no fewer
        cli._map_rows(report, maps, ("thm-n4",), values)


def _count_calls(monkeypatch, fn):
    """Rebind every symplecta module attribute that is fn to a wrapper that
    records its arguments; return the list of recorded calls."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)
    for name, mod in list(sys.modules.items()):
        if name.startswith("symplecta."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_verify_kato_shares_each_maps_work_and_matches_the_reference_forms(monkeypatch):
    syntheses = _count_calls(monkeypatch, katoschatten.kato_synthesis)
    convolutions = _count_calls(monkeypatch, grid.sigma_convolve)
    multipliers = _count_calls(monkeypatch, grid.apply_multiplier)
    cfg = cli.RunConfig(N=32, T=[[0.5, 0.0], [0.0, 0.5]])
    report = cli._suite_verify_kato(cfg, cli.NormReport(), np.random.default_rng(0))
    maps = len(cli.DEFAULT_SUITE_T)
    # b * c once per run; h(D)(b * c) and h(D) c once per run; three averages per map
    assert len(convolutions) == 1 and len(multipliers) == 2
    assert len(syntheses) == 3 * maps
    (b, c), ((chirp, _), _) = convolutions[0], multipliers
    monkeypatch.undo()
    values = {r.quantity: r.value for r in report.rows}
    for (label, _), (ctx, *_) in zip(cli.DEFAULT_SUITE_T, syntheses[::3]):
        assert values[f"thm-n14-a[{label}]"] == kato_identity_residual(ctx, b, c)
        assert values[f"eq-K2[{label}]"] == multiplier_identity_residual(ctx, b, c, chirp)


def test_every_fixed_bound_comes_from_tolerances_as_readme_lists_them(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Suite | Tag | Bound |\n")[1].split("\n\n")[0].splitlines()[1:]
    cells = [row.strip("|").split("|") for row in table]
    listed = [(tag, float(bound)) for _, tags, bound in cells
              for tag in re.findall(r"`([^`]+)`", tags)]
    assert sorted(listed) == sorted(cli.TOLERANCES.items())
    for suite in ("verify-core", "verify-kato", "norms"):
        assert main(["verify", "--suite", suite, "--out", str(tmp_path)]) == 0
        with open(tmp_path / f"report-{suite}.csv", newline="", encoding="utf-8") as fh:
            fixed = [r for r in csv.DictReader(fh) if r["p"] == r["q"] == "0"]
        assert fixed
        for row in fixed:
            assert float(row["bound"]) == cli.TOLERANCES[row["quantity"].split("[")[0]]


# The bounds are the fixed cli.TOLERANCES: no override is accepted, not even
# one that would pass the thm-n4 row that T = I fails at N = 32.
@pytest.mark.parametrize("tolerances", [
    '{"thm-n4": "abc"}', '{"thm-n4": NaN}', '{"thm-n4": Infinity}',
    '{"thm-n4": -Infinity}', '{"thm-n4": 0}', '{"thm-n4": -1e-3}',
    '{"thm-n44": 1e-3}', '{"thm-n4": 1e300}'],
    ids=["abc", "NaN", "Infinity", "-Infinity", "0", "-1e-3", "unknown-tag", "1e300"])
def test_tolerances_key_exits_two(tmp_path, capsys, tolerances):
    path = tmp_path / "cfg.json"
    path.write_text('{"N": 32, "T": [[1, 0], [0, 1]], "tolerances": %s}' % tolerances)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert ("config error: unknown config key(s) ['tolerances']"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("report-*"))


def test_missing_symbol_file_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, N=16, symbol={"kind": "file",
                                            "path": str(tmp_path / "none.sgrid")})
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: symbol.path" in err and "none.sgrid" in err


def test_symbol_file_on_another_grid_exits_two(tmp_path, capsys):
    sym = tmp_path / "n16.sgrid"
    write_grid_function(GridFunction(make_grid(1, 16), np.ones((16, 16))), sym)
    cfg = write_cfg(tmp_path, N=32, symbol={"kind": "file", "path": str(sym)})
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: symbol.path" in err and "N=16" in err
    assert not (tmp_path / "op-synthesis.txt").exists()


@pytest.mark.parametrize("command", ["bounds", "report"])
def test_bounds_and_report_run_at_n2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, n=2, N=8, T=(0.5 * np.eye(4)).tolist())
    argv = (["verify", "--suite", "bounds"] if command == "bounds" else ["report"])
    assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_default_T_at_n2_is_half_the_4x4_identity(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=2, N=8)
    assert main(["verify", "--suite", "bounds", "--config", cfg, "--out", str(tmp_path),
                 "--json"]) == 0
    payload = json.loads((tmp_path / "report-bounds.json").read_text())
    assert payload["config"]["T"] == (0.5 * np.eye(4)).tolist()


@pytest.mark.parametrize("N", [4, 6])
@pytest.mark.parametrize("argv", [["verify", "--suite", "norms"], ["report"]],
                         ids=["norms", "report"])
def test_norms_below_n8_exits_two(tmp_path, capsys, argv, N):
    # the embedding bound's finite differences stay 3 points inside the lattice
    cfg = write_cfg(tmp_path, N=N)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: N must be at least 8 for the norms suite, got {N}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("report-*.csv"))


def test_verify_kato_at_n2_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n=2, N=32, T=(0.5 * np.eye(4)).tolist())
    assert main(["verify", "--suite", "verify-kato", "--config", cfg,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: n must be 1 for verify-kato" in err and "n=2" in err
    assert not (tmp_path / "report-verify-kato.csv").exists()


def test_verify_kato_below_n32_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, N=16)
    assert main(["verify", "--suite", "verify-kato", "--config", cfg,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: N must be at least 32 for verify-kato" in err and "N=16" in err
    assert not (tmp_path / "report-verify-kato.csv").exists()


@pytest.mark.parametrize("argv, data", [(["--seed", "-1"], {}), ([], {"seed": -3})])
def test_negative_seed_exits_two(tmp_path, capsys, argv, data):
    cfg = write_cfg(tmp_path, **data)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)] + argv) == 2
    assert "config error: seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "report-verify-core.csv").exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_T_exits_two(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    path.write_text('{"T": [[%s, 0], [0, 0.5]]}' % bad)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error: T must be a matrix of finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize("symbol, field", [
    ("gaussian", "symbol must be"),
    ({"center": 0.5}, "symbol.center"),
    ({"covariance": "abc"}, "symbol.covariance"),
    ({"kind": "polynomial-times-gaussian", "poly_coeffs": ["a", "b"]}, "symbol.poly_coeffs"),
    ({"kind": "hermite-gaussian", "hermite_index": [1.5, 1]}, "symbol.hermite_index"),
    ({"kind": ["gaussian"]}, "symbol.kind"),
    ({"kind": "file", "path": 5}, "symbol.path"),
    ({"kind": "hermite-gaussian", "hermite_index": [1, 1, 1]},
     "symbol: hermite_index must have at most 2 entries"),
    ({"center": [0.5]}, "symbol: center must have 2 entries"),
    ({"colour": 1}, "unknown symbol fields ['colour']"),
    # a covariance that is not symmetric positive definite makes a growing symbol
    ({"covariance": [-1, 0, 0, -1]},
     "symbol: covariance (-1, 0, 0, -1) is not a finite symmetric positive definite"),
    ({"covariance": [1, 3, 0, 1]}, "symbol: covariance (1, 3, 0, 1) is not"),
    # overflows end in the config error, with no numpy warning before it
    ({"covariance": [1e300, 1e300]}, "symbol: covariance (1e+300, 1e+300) is not"),
    ({"kind": "polynomial-times-gaussian", "poly_coeffs": [1e308, 1e308]},
     "symbol: grid function has non-finite values"),
    ({"kind": "hermite-gaussian", "hermite_index": [400, 1]},
     "symbol: grid function has non-finite values"),
    # ragged nesting is no list of numbers
    ({"center": [[1], [2, 3]]},
     "symbol.center must be a list of finite numbers, got [[1], [2, 3]]"),
    # lengths that fit no matrix of the field, and an index whose Hermite
    # coefficient list would not fit in memory
    ({"covariance": [1, 0, 1]}, "symbol: covariance must have 0, 2 or 4 entries, got 3"),
    ({"covariance": [1, 0, 0, 1, 0]}, "symbol: covariance must have 0, 2 or 4 entries"),
    ({"kind": "chirp-gaussian"}, "symbol: chirp must have 4 entries, got 0"),
    ({"kind": "chirp-gaussian", "chirp": [1, 0, 1]}, "symbol: chirp must have 4 entries"),
    ({"kind": "hermite-gaussian", "hermite_index": [10 ** 13]},
     "symbol: hermite_index entries must be at most 512, got 10000000000000")])
@pytest.mark.filterwarnings("error")
def test_malformed_symbol_field_exits_two(tmp_path, capsys, symbol, field):
    cfg = write_cfg(tmp_path, N=16, symbol=symbol)
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "op-synthesis.txt").exists()


@pytest.mark.parametrize("key", ["suite", "route"])
def test_unknown_suite_or_route_in_the_config_exits_two(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path, **{key: "bogus"})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config error: unknown {key} 'bogus'" in capsys.readouterr().err
    assert not list(tmp_path.glob("report-*"))


@pytest.mark.parametrize("out", [5, "", "below-a-file"])
def test_unusable_out_exits_two(tmp_path, capsys, out):
    (tmp_path / "plain").write_text("not a directory")
    if out == "below-a-file":
        out = str(tmp_path / "plain" / "reports")
    cfg = write_cfg(tmp_path, out=out)
    assert main(["verify", "--config", cfg]) == 2
    assert "config error: out" in capsys.readouterr().err


CORE = ["verify", "--suite", "verify-core"]


# S = 2e-300*I has det S = 0, and S = 2e200*I and 2e300*I have no finite det S, so
# no bound built on them may pass; S = 2e308*I is not even finite.  S = 2e-12*I
# and 2e-8*I are well conditioned: they build a context and its rows run.  None
# of these S is singular, so no kernel witness is given.
DET_INF = "det S = inf must be positive and finite"


@pytest.mark.parametrize("argv, scale, err", [
    (CORE, 1e-300, "det S = 0 must be positive and finite"), (CORE, 1e-12, None),
    (CORE, 1e-8, None), (CORE, 1e200, DET_INF), (CORE, 1e300, DET_INF),
    (CORE, 1e308, "S = T + T^sigma is not finite"),
    (["verify", "--suite", "bounds"], 1e200, DET_INF), (["report"], 1e200, DET_INF)],
    ids=["1e-300", "1e-12", "1e-08", "1e+200", "1e+300", "1e+308", "bounds-1e+200",
         "report-1e+200"])
def test_extreme_scalar_T_ends_in_a_verification_failure(tmp_path, capsys, argv,
                                                         scale, err):
    cfg = write_cfg(tmp_path, T=(scale * np.eye(2)).tolist())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "witness" not in captured.err
    if err is None:
        assert "FAIL" in captured.out
    else:
        assert f"verification failure: {err}" in captured.err


def test_overflowing_S_is_reported_as_not_finite(tmp_path, capsys):
    cfg = write_cfg(tmp_path, T=(1e308 * np.eye(2)).tolist())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(CORE + ["--config", cfg, "--out", str(tmp_path)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "S = T + T^sigma is not finite" in err
    assert "witness" not in err and "singular" not in err
