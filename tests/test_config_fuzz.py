"""Property test of the command-line contract over drawn config files.

For any config, in every command, cli.main raises nothing and returns 0
(pass), 1 (verification failure) or 2 (config error); an exit 2 prints
`config error:` and names, as a word, the config key or symbol field at
fault.  Configs mix valid values, boundary values (N = 4, n = 2, huge and
tiny T, a T whose S = T + T^sigma is singular), wrong types, nan, +-inf, huge
integers and unknown keys.  n = 2 runs only on grids with N <= 8.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symplecta import cli
from symplecta.grid import SymbolSpec

COMMANDS = [("verify", "--suite", suite) for suite in cli.SUITES] + [("quantize",), ("report",)]

# a config error names one of these as a word
NAMES = re.compile(r"\b(%s)\b" % "|".join(
    [*cli.CONFIG_KEYS, "symbol", *(f.name for f in fields(SymbolSpec))]))

NAN, INF = float("nan"), float("inf")
WRONG = st.sampled_from([None, True, "1", [], {}, 1.5, NAN, INF, -INF, 10 ** 30, -1])


def floats(size, finite=True):
    elems = st.floats(-2, 2) if finite else st.sampled_from([NAN, INF, -INF])
    return st.lists(elems, min_size=size, max_size=size)


def matrices(d):
    """2n x 2n maps: random, huge, tiny, and two whose S = T + T^sigma is
    singular."""
    J = np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(d // 2))
    return st.one_of(
        floats(d * d).map(lambda t: np.reshape(t, (d, d)).tolist()),
        st.sampled_from([1e300, 1e200, 1e-12, 1e-300]).map(lambda s: (s * np.eye(d)).tolist()),
        st.sampled_from([J.tolist(), np.diag([1.0, -1.0] * (d // 2)).tolist(),
                         (0.5 * np.eye(d)).ravel().tolist()]))


def symbols(d):
    """Symbol dicts whose fields fit d phase-space axes, within range or at
    its edges."""
    return st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["gaussian", "hermite-gaussian",
                                 "polynomial-times-gaussian", "chirp-gaussian"]),
        "center": floats(d),
        "covariance": st.sampled_from([0, d, d * d]).flatmap(floats),
        "poly_coeffs": st.lists(st.floats(-2, 2), max_size=3),
        "chirp": floats(d * d),
        "hermite_index": st.lists(st.sampled_from([0, 1, 3, 400, 512]), max_size=d)})


def bad_symbols(d):
    """Symbol values with one malformed field."""
    return st.one_of(WRONG, st.sampled_from([
        {"kind": "bogus"}, {"kind": 5}, {"kind": "file", "path": "no-such-symbol.txt"},
        {"kind": "file", "path": 5}, {"colour": 1}]),
        st.tuples(symbols(d), st.one_of(
            st.fixed_dictionaries({"center": st.one_of(floats(d + 1), floats(d, False))}),
            st.fixed_dictionaries({"covariance": st.one_of(st.sampled_from([3, 5]).flatmap(
                floats), floats(d, False))}),
            st.fixed_dictionaries({"kind": st.just("chirp-gaussian"),
                                   "chirp": st.sampled_from([0, 3]).flatmap(floats)}),
            st.fixed_dictionaries({"kind": st.just("hermite-gaussian"), "hermite_index":
                                   st.lists(st.sampled_from([10 ** 13, -1, 1.5]), min_size=1,
                                            max_size=d + 1)}),
            st.fixed_dictionaries({"poly_coeffs": floats(2, False)}))).map(
                lambda pair: {**pair[0], **pair[1]}))


@st.composite
def configs(draw):
    """A config of valid or boundary values with at most two keys malformed."""
    bad = draw(st.lists(st.sampled_from(["n", "N", "T", "symbol", "suite", "route", "seed",
                                         "out", "colour"]), max_size=2, unique=True))
    cfg = draw(st.fixed_dictionaries({}, optional={
        "n": st.sampled_from([1, 2, 2.0]), "suite": st.sampled_from(cli.SUITES),
        "route": st.sampled_from(["synthesis", "kernel"]),
        "seed": st.sampled_from([0, 7, 2.0]), "out": st.just("reports")}))
    d = 4 if cfg.get("n") == 2 else 2
    if d == 4 or draw(st.booleans()):  # n = 2 never runs at the default N = 32
        cfg["N"] = draw(st.sampled_from([4, 6, 8, 8.0] if d == 4 else [4, 8, 16, 32, 32.0]))
    for key, valid in (("T", matrices(d)), ("symbol", symbols(d))):
        if draw(st.booleans()):
            cfg[key] = draw(valid)
    for key, wrong in (("n", st.sampled_from([0, 3, -1])), ("N", st.sampled_from([2, 7, 258])),
                       ("T", st.sampled_from([(0.5 * np.eye(d + 1)).tolist(), [[1.0], [1.0, 2.0]],
                                              "I", np.full((d, d), NAN).tolist(),
                                              np.full((d, d), INF).tolist()])),
                       ("symbol", bad_symbols(d)), ("suite", st.just("bogus")),
                       ("route", st.just("bogus")), ("seed", st.sampled_from([-1, 2.5, "0"])),
                       ("colour", st.just(1))):
        if key in bad:
            cfg[key] = draw(st.one_of(wrong, WRONG))
    if "out" in bad:  # no string, which would name a directory to write into
        cfg["out"] = draw(st.sampled_from([5, "", None, [], 1.5, NAN]))
    return cfg


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(cfg=configs(), json_mirror=st.booleans())
@example(cfg={"symbol": {"covariance": [1.0, 0.0, 1.0]}}, json_mirror=False)
@example(cfg={"symbol": {"kind": "chirp-gaussian"}}, json_mirror=False)
@example(cfg={"symbol": {"kind": "hermite-gaussian", "hermite_index": [10 ** 13]}},
         json_mirror=False)
def test_every_config_exits_zero_one_or_two(command, cfg, json_mirror):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        argv = [*command, "--config", path]
        if cfg.get("out") == "reports":
            cfg = {**cfg, "out": os.path.join(tmp, "reports")}
        elif "out" not in cfg:
            argv += ["--out", tmp]
        if json_mirror:
            argv.append("--json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        msg = err.getvalue()
        assert msg.startswith("config error: "), msg
        assert NAMES.search(msg.removeprefix("config error: ")), msg
