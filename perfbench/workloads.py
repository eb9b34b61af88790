"""The three benchmark workloads and the checks behind their failure count.

Every workload takes the run seed, draws its inputs from it in `setup`, and
then runs whole passes through symplecta's public API and the in-process
`symplecta.cli.main`.  Each pass feeds one `Checker`: an operation is one
checked result (a report row, one modulation-norm value, or one
quantize/read/recover check) and fails if it raises or misses its check.

Why each workload exists (one layer dominates each, and is absent from the
others, so a change to that layer should move one workload only):

- kato-N48: `verify --suite verify-kato` is almost all operator averaging
  (`kato_synthesis` -> `u_conjugator_batch`), the O(N^5) hot spot; it never
  touches `spaces`.
- modnorm-N40: the modulation norms (`spaces.modulation_norms` -> `_stft_lp`)
  in the shape of acceptance criterion 09; it never calls `kato_synthesis`.
- roundtrip-N128: quantize from a file symbol, read back, recover the symbol,
  plus the dense n=2 path; it exercises the text codecs, the n=1 synthesis and
  `weyl_standard`, and calls neither `kato_synthesis` nor `modulation_norms`.
"""

import contextlib
import io
import json
import math
import os
import shutil
import traceback
from dataclasses import dataclass

import numpy as np

from symplecta import calculus, cli, grid, katoschatten, spaces, symplin, weylrep

# Reference comparison: a value passes when |v - ref| <= RTOL |ref| + ATOL.
# RTOL admits a reordering of floating-point sums; ATOL is the rounding floor
# of the relative residuals.  Values at rounding level (|ref| <= ROUNDING) are
# checked by their own pass/fail bound only.
RTOL = 1e-9
ATOL = 1e-12
ROUNDING = 1e-10

PAIRS = [(1, 1), (2, 1)]
# Tolerances of the repository's own tests for the same identities.
ROUTE_TOL = 1e-7           # criteria 04 and 05
RECOVER_TOL = 1e-8         # tests/test_calculus.py round trip,
RECOVER_TOL_EXPANDING = 1e-6  # and its tolerance for the expanding T=I


@dataclass(frozen=True)
class Sizes:
    """Grid sizes of one workload family; `smoke` shrinks every one of them."""

    kato_N: int
    modnorm_N: int
    roundtrip_N: int
    roundtrip_n2_N: int


FULL = Sizes(kato_N=48, modnorm_N=40, roundtrip_N=128, roundtrip_n2_N=8)
SMOKE = Sizes(kato_N=32, modnorm_N=12, roundtrip_N=64, roundtrip_n2_N=4)


class Checker:
    """Counts checked operations and compares values with recorded references.

    `reference` maps an operation name to [value, seed_independent]; it was
    recorded at `ref_seed`, and seed-independent values are compared at every
    seed.
    """

    def __init__(self, seed, reference=None, ref_seed=None):
        self.seed = seed
        self.reference = reference or {}
        self.ref_seed = ref_seed
        self.attempted = 0
        self.failed = 0
        self.failures = []  # one message per failed operation or group
        self.values = {}

    def _fail(self, message, count=1):
        self.failed += count
        self.failures.append(message)

    def op(self, name, ok, value=None):
        self.attempted += 1
        detail = ""
        if value is not None:
            value = float(value)
            self.values[name] = value
            ok = bool(ok) and math.isfinite(value)
            if not self._matches_reference(name, value):
                ok = False
                detail = f" (reference {self.reference[name][0]!r}, got {value!r})"
        if not ok:
            self._fail(name + detail)

    def _matches_reference(self, name, value):
        if name not in self.reference:
            return True
        ref, seed_independent = self.reference[name]
        if not (seed_independent or self.seed == self.ref_seed):
            return True
        if abs(ref) <= ROUNDING:
            return True
        return abs(value - ref) <= RTOL * abs(ref) + ATOL

    @contextlib.contextmanager
    def group(self, name, expected):
        """Run a block of `expected` operations; missing ones count as failed."""
        start = self.attempted
        try:
            yield
        except Exception:  # an operation that raises is a failed operation
            self.attempted += 1
            self._fail(f"{name}: raised\n{traceback.format_exc()}")
        missing = expected - (self.attempted - start)
        if missing > 0:
            self.attempted += missing
            self._fail(f"{name}: {missing} operations missing", missing)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def pass_dir_of(workdir):
    """Directory a pass writes into; emptied before every pass."""
    return os.path.join(workdir, "pass")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _report_rows(checker, prefix, csv_path, rc):
    """One operation per report row: the row must pass its bound."""
    with open(csv_path, "rb") as fh:
        raw = fh.read()
    passed = []
    for i, line in enumerate(raw.decode("utf-8").splitlines()[1:]):
        # quantity labels such as "eq-K2[T=diag(.3,.7)]" hold unquoted commas,
        # so split the six numeric fields off the right
        fields = line.split(",")
        quantity, value, ok = ",".join(fields[:-6]), fields[-4], fields[-1]
        passed.append(ok == "true")
        checker.op(f"{prefix}/{i}:{quantity}", passed[-1], float(value))
    if rc != 0 and all(passed):
        checker.op(f"{prefix}/exit-code", False)
    return raw


def _verify(checker, suite, cfg_path, seed, out, expected_rows):
    """Run `symplecta verify` in process; returns the report CSV bytes."""
    with checker.group(suite, expected_rows):
        rc = _cli(["verify", "--suite", suite, "--config", cfg_path,
                   "--seed", str(seed), "--out", out])
        return {suite: _report_rows(checker, suite, os.path.join(
            out, f"report-{suite}.csv"), rc)}
    return {}


def _contexts(n, N, suite):
    space = symplin.SymplecticSpace(n)
    return {label: weylrep.build_rep_context(space, np.asarray(T, float),
                                             weylrep.ConfigGrid(n, N))
            for label, T in suite}


# ---------------------------------------------------------------------------
# kato-N48
# ---------------------------------------------------------------------------

def setup_kato(seed, sizes, workdir):
    N = sizes.kato_N
    cfg = os.path.join(workdir, "verify-kato.json")
    _write_json(cfg, {"n": 1, "N": N})
    # gate every suite map before the run, as a user preparing the run would
    _contexts(1, N, cli.DEFAULT_SUITE_T)
    return {"seed": seed, "cfg": cfg}


def pass_kato(inputs, checker, out):
    return _verify(checker, "verify-kato", inputs["cfg"], inputs["seed"], out,
                   expected_rows=4 * len(cli.DEFAULT_SUITE_T) + 3)


# ---------------------------------------------------------------------------
# modnorm-N40
# ---------------------------------------------------------------------------

def _symbol_family(phase_grid, rng, count):
    """Tilted, modulated Gaussians within criterion 09's parameter ranges."""
    pts = phase_grid.points()
    out = []
    for _ in range(count):
        width = rng.uniform(1.0, 1.3)
        a, b = rng.uniform(0.0, 2 * np.pi, 2)
        center = 0.3 * np.array([np.cos(a), np.sin(a)])
        freq = 0.3 * np.array([np.sin(b), np.cos(b)])
        z = pts - center
        vals = (np.exp(-(z ** 2).sum(1) / (2 * width ** 2))
                * (1 + 0.2 * pts[:, 0]) * np.exp(1j * (pts @ freq)))
        out.append(grid.GridFunction(phase_grid, vals))
    return out


def setup_modnorm(seed, sizes, workdir):
    N = sizes.modnorm_N
    cfg = os.path.join(workdir, "norms.json")
    _write_json(cfg, {"n": 1, "N": N})
    rng = np.random.default_rng(seed)
    return {"seed": seed, "cfg": cfg,
            "contexts": _contexts(1, N, cli.DEFAULT_SUITE_T),
            "family": _symbol_family(grid.make_grid(1, N), rng, 4)}


def pass_modnorm(inputs, checker, out):
    window = spaces.WindowSpec()
    contexts, family = inputs["contexts"], inputs["family"]
    with checker.group("modulation-norms", len(family) * (1 + len(contexts)) * 2):
        frozen = {}
        for i, a in enumerate(family):
            base = spaces.modulation_norms(a, window, PAIRS)
            for pq in PAIRS:
                checker.op(f"mn/{i}/base/{pq}", base[pq] > 0, base[pq])
            for label, ctx in contexts.items():
                tr = spaces.modulation_norms(calculus.lambda_transform(ctx, a),
                                             window, PAIRS)
                for pq in PAIRS:
                    # criterion 09: the constant is frozen at twice the first
                    # member's ratio and must hold for the rest of the family
                    ratio = tr[pq] / base[pq]
                    frozen.setdefault(pq, 2.0 * ratio)
                    checker.op(f"mn/{i}/{label}/{pq}", ratio <= frozen[pq], tr[pq])
    with checker.group("schatten-rows", 2 * 10 + 1):
        report = katoschatten.NormReport()
        ctx = contexts["T=I/2"]
        katoschatten.modulation_schatten_rows(ctx, report, window, count=10)
        katoschatten.cordes_rows(ctx, report)
        for i, row in enumerate(report.rows):
            checker.op(f"schatten/{i}:{row.quantity}", row.passed, row.value)
    return _verify(checker, "norms", inputs["cfg"], inputs["seed"], out,
                   expected_rows=27)


# ---------------------------------------------------------------------------
# roundtrip-N128
# ---------------------------------------------------------------------------

# Maps with theta + tau = 1, where the kernel route computes Op_T (criterion 05).
KERNEL_MAPS = ("T=I/2", "T=KN", "T=diag(.3,.7)")


def setup_roundtrip(seed, sizes, workdir):
    N = sizes.roundtrip_N
    rng = np.random.default_rng(seed)
    phase_grid = grid.make_grid(1, N)
    spec = grid.SymbolSpec(kind="polynomial-times-gaussian",
                           center=tuple(rng.uniform(-0.3, 0.3, 2)),
                           covariance=(rng.uniform(1.0, 1.4),) * 2,
                           poly_coeffs=(1.0, rng.uniform(0.0, 0.2)))
    grid2 = grid.make_grid(2, sizes.roundtrip_n2_N)
    spec2 = grid.SymbolSpec(kind="gaussian",
                            center=tuple(rng.uniform(-0.3, 0.3, 4)),
                            covariance=tuple(rng.uniform(1.0, 1.4, 4)))
    pass_dir = pass_dir_of(workdir)
    symbol_path = os.path.join(pass_dir, "symbol.txt")
    verify_cfg = os.path.join(workdir, "verify-core.json")
    _write_json(verify_cfg, {"n": 1, "N": N})
    suite = dict(cli.DEFAULT_SUITE_T)
    quantize = []
    for route, labels in (("synthesis", list(suite)), ("kernel", KERNEL_MAPS)):
        for label in labels:
            out = os.path.join(pass_dir, f"{route}-{len(quantize)}")
            cfg = os.path.join(workdir, f"quantize-{len(quantize)}.json")
            _write_json(cfg, {"n": 1, "N": N, "T": suite[label], "route": route,
                              "symbol": {"kind": "file", "path": symbol_path},
                              "out": out})
            quantize.append((route, label, cfg, os.path.join(out, f"op-{route}.txt")))
    return {"seed": seed, "verify_cfg": verify_cfg, "symbol_path": symbol_path,
            "symbol": grid.sample_symbol(spec, phase_grid),
            "contexts": _contexts(1, N, cli.DEFAULT_SUITE_T),
            "ctx2": _contexts(2, sizes.roundtrip_n2_N,
                              [("T=I/2", 0.5 * np.eye(4))])["T=I/2"],
            "symbol2": grid.sample_symbol(spec2, grid2),
            "quantize": quantize}


def pass_roundtrip(inputs, checker, out):
    csvs = _verify(checker, "verify-core", inputs["verify_cfg"], inputs["seed"],
                   out, expected_rows=10)
    a, contexts = inputs["symbol"], inputs["contexts"]
    quantize = inputs["quantize"]
    expected = len(quantize) + 2 * len(contexts) + len(KERNEL_MAPS)
    with checker.group("quantize", expected):
        grid.write_grid_function(a, inputs["symbol_path"])
        for route, label, cfg, _ in quantize:
            rc = _cli(["quantize", "--config", cfg])
            checker.op(f"quantize/{route}/{label}", rc == 0)
        ops = {}
        for route, label, _, op_path in quantize:
            ops[route, label] = calculus.read_operator(op_path)
        for label, ctx in contexts.items():
            A = calculus.quantize_T(ctx, a)
            got = ops["synthesis", label]
            checker.op(f"read/synthesis/{label}", np.array_equal(got, A),
                       np.linalg.norm(got))
            back = calculus.recover_symbol(ctx, got)
            err = np.abs(back.values - a.values).max()
            tol = RECOVER_TOL_EXPANDING if label == "T=I" else RECOVER_TOL
            checker.op(f"recover/{label}", err < tol, err)
            if ("kernel", label) in ops:
                K = ops["kernel", label]
                rel = np.linalg.norm(K - A) / np.linalg.norm(A)
                checker.op(f"read/kernel/{label}", rel <= ROUTE_TOL, rel)
    with checker.group("n2-routes", 1):
        ctx2, a2 = inputs["ctx2"], inputs["symbol2"]
        lhs = calculus.quantize_T(ctx2, a2)
        rhs = calculus.quantize_weyl(ctx2, calculus.lambda_transform(ctx2, a2))
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
        checker.op("n2/thm-n4", rel <= ROUTE_TOL, np.linalg.norm(lhs))
    return csvs


WORKLOADS = {
    "kato-N48": (setup_kato, pass_kato),
    "modnorm-N40": (setup_modnorm, pass_modnorm),
    "roundtrip-N128": (setup_roundtrip, pass_roundtrip),
}
