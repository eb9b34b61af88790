"""Command-line driver: verification suites, quantization runs, norm reports.

Configuration is a JSON file (UTF-8, matrices as row-major nested lists);
every run is deterministic for a fixed configuration — random draws come from
a seeded generator and reports carry no timestamps, so identical configs give
byte-identical outputs.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage/config error.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .calculus import (quantize_T, quantize_theta_tau_kernel, quantize_weyl,
                       lambda_transform, write_operator)
from .cocycle import (MultiplierContext, cocycle_residual, coboundary_residual, omega,
                      omega_tilde)
from .grid import (GridFunction, _axis, _gaussian, _is_diagonal, _ord_ft, make_grid,
                   sample_symbol, symplectic_fourier, SymbolSpec)
from .katoschatten import (_relative_residual, bound_suite, kato_identity_residual,
                           kato_synthesis, multiplier_identity_residual, NormReport)
from .spaces import (WeightSpec, WindowSpec, chirp_TA, dilation_ratio,
                     embedding_bound, modulation_norm, sobolev_k_norm)
from .symplin import SymplecticSpace, nondegeneracy_gate
from .weylrep import build_rep_context, orthogonality_integral

DEFAULT_SUITE_T = (
    ("T=I/2", ((0.5, 0.0), (0.0, 0.5))),
    ("T=I", ((1.0, 0.0), (0.0, 1.0))),
    ("T=KN", ((0.0, 0.0), (0.0, 1.0))),
    ("T=diag(.3,.7)", ((0.3, 0.0), (0.0, 0.7))),
    ("T=gen", ((0.2, 0.5), (-0.3, 0.8))),
)


# the fixed bound of each tolerance tag
TOLERANCES = {
    "sec3-cocycle": 1e-12, "sec3-coboundary": 1e-12, "sec3-normalization": 1e-12,
    "sec3-nondegeneracy": 1e-10, "sec2-fsigma-involution": 1e-10,
    "sec2-fsigma-isometry": 1e-10, "sec2-fsigma-gaussian": 1e-8,
    "sec4-unit-symbol": 1e-9, "thm-n4": 1e-7, "sec1-routes": 1e-7,
    "thm-n14-a": 1e-6, "eq-K2": 1e-6, "thm-n15-ii": 1e-2, "thm-n15-i": 1e-9,
    "sec9-orthogonality": 1e-2, "thm-n5-inverse": 1e-10, "thm-n5-support": 0.5,
}


class ConfigError(Exception):
    pass


class VerificationFailure(Exception):
    pass


@dataclass
class RunConfig:
    n: int = 1
    N: int = 32
    T: tuple = None  # load_config sets I/2 of size 2n unless configured
    symbol: dict = field(default_factory=lambda: {"kind": "gaussian"})
    suite: str = "verify-core"
    route: str = "synthesis"
    seed: int = 0
    out: str = "."
    json_mirror: bool = False

    def matrix_T(self):
        return np.asarray(self.T, dtype=float).reshape(2 * self.n, 2 * self.n)


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "json_mirror")


def _config_int(key, val):
    if isinstance(val, float) and val.is_integer():
        return int(val)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{key} must be an integer, got {val!r}")
    return val


def load_config(args):
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object mapping keys to "
                              f"values, got {type(data).__name__}")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; "
                          f"known keys are {list(CONFIG_KEYS)}")
    cfg = RunConfig()
    for key, val in data.items():
        setattr(cfg, key, val)
    if args.suite:
        cfg.suite = args.suite
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.out = args.out
    cfg.json_mirror = bool(args.json)
    cfg.n = _config_int("n", cfg.n)
    cfg.N = _config_int("N", cfg.N)
    cfg.seed = _config_int("seed", cfg.seed)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    try:
        make_grid(cfg.n, cfg.N)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if "T" not in data:
        cfg.T = (0.5 * np.eye(2 * cfg.n)).tolist()
    if cfg.suite not in SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {SUITES}")
    if cfg.route not in ("synthesis", "kernel"):
        raise ConfigError(f"unknown route {cfg.route!r}")
    try:
        T = np.asarray(cfg.T)
    except ValueError:  # ragged nesting
        T = None
    if T is None or T.dtype.kind not in "iuf" or not np.isfinite(T).all():
        raise ConfigError(f"T must be a matrix of finite numbers, got {cfg.T!r}")
    if T.size != (2 * cfg.n) ** 2:
        raise ConfigError("T must be a 2n x 2n matrix (row-major)")
    if not isinstance(cfg.out, str) or not cfg.out:
        raise ConfigError(f"out must be a non-empty path string, got {cfg.out!r}")
    return cfg


def _symbol_numbers(d, key, integer=False):
    """The symbol field d[key] as a flat tuple of finite numbers, or of
    non-negative integers; a ConfigError naming symbol.<key> otherwise."""
    try:
        arr = np.asarray(d.get(key, ()))
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim == 0 or arr.size and (
            arr.dtype.kind not in ("iu" if integer else "iuf")
            or not np.isfinite(arr).all() or integer and arr.min() < 0):
        what = "non-negative integers" if integer else "finite numbers"
        raise ConfigError(f"symbol.{key} must be a list of {what}, got {d[key]!r}")
    return tuple(arr.ravel().tolist())


def _symbol_from_dict(d, grid):
    if not isinstance(d, dict):
        raise ConfigError(f"symbol must be a JSON object of symbol fields, got {d!r}")
    known = {f.name for f in fields(SymbolSpec)}
    extra = set(d) - known
    if extra:
        raise ConfigError(f"unknown symbol fields {sorted(extra)}")
    for key in ("kind", "path"):
        if not isinstance(d.get(key, ""), str):
            raise ConfigError(f"symbol.{key} must be a string, got {d[key]!r}")
    spec = SymbolSpec(kind=d.get("kind", "gaussian"), path=d.get("path", ""),
                      **{key: _symbol_numbers(d, key) for key in
                         ("center", "covariance", "poly_coeffs", "chirp")},
                      hermite_index=_symbol_numbers(d, "hermite_index", integer=True))
    try:
        return sample_symbol(spec, grid)
    except (OSError, ValueError) as exc:  # OSError: an unreadable symbol file
        raise ConfigError(f"symbol.path: {exc}" if spec.kind == "file" else f"symbol: {exc}")


def _context(cfg, T=None):
    T = cfg.matrix_T() if T is None else np.asarray(T, dtype=float)
    try:
        return build_rep_context(SymplecticSpace(cfg.n), T, make_grid(cfg.n, cfg.N))
    except (ValueError, ArithmeticError) as exc:
        raise VerificationFailure(str(exc))


@contextlib.contextmanager
def _writing_out(cfg):
    """Turn an OSError from creating or writing into cfg.out into a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"out: cannot write to {cfg.out!r}: {exc}")


def _check(report, tag, value):
    """Add the row `tag` with the bound of its tolerance tag."""
    report.add(tag, 0, 0, value, TOLERANCES[tag])


def _map_rows(report, maps, rows):
    """The one loop over (suite map, row), map-major: for each (label, ctx, inputs) of
    `maps` and each (tag, value) of `rows`, add the row `tag[label]` with the value
    value(ctx, inputs) and the bound TOLERANCES[tag]."""
    for label, ctx, inputs in maps:
        for tag, value in rows:
            report.add(f"{tag}[{label}]", 0, 0, value(ctx, inputs), TOLERANCES[tag])


def _negativity(B):
    """How far B's Hermitian part is from positive: max(0, -min eig) / ||B||_F."""
    return max(0.0, -np.linalg.eigvalsh(0.5 * (B + B.conj().T)).min()) / np.linalg.norm(B)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_verify_core(cfg, report, rng):
    space = SymplecticSpace(cfg.n)
    d = space.dim
    # multiplier algebra on random maps
    worst_cocycle = 0.0
    worst_cob = 0.0
    worst_norm = 0.0
    for _ in range(10):
        ctx = MultiplierContext(space, rng.standard_normal((d, d)))
        worst_cocycle = max(worst_cocycle,
                            cocycle_residual(ctx, rng.standard_normal((100, 3, d))))
        worst_cob = max(worst_cob, coboundary_residual(ctx, rng.standard_normal((100, 2, d))))
        xis = rng.standard_normal((50, d))
        worst_norm = max(worst_norm, np.abs(omega_tilde(ctx, xis, -xis) - 1.0).max())
    _check(report, "sec3-cocycle", worst_cocycle)
    _check(report, "sec3-coboundary", worst_cob)
    _check(report, "sec3-normalization", worst_norm)
    # nondegeneracy dichotomy, including one constructed degenerate map
    worst_dich = 0.0
    for T in [*rng.standard_normal((19, d, d)), space.J.copy()]:
        gate = nondegeneracy_gate(space, T)
        mctx = MultiplierContext(space, T)
        etas = rng.standard_normal((20, d))
        if gate.nondegenerate:
            xis = rng.standard_normal((5, 1, d)) * 3
            sym = np.abs(omega(mctx, xis, etas) - omega(mctx, etas, xis)).max(1).min()
            if sym < 1e-8:  # claims nondegenerate but omega looks symmetric
                worst_dich = max(worst_dich, 1.0)
        else:
            wts = gate.kernel_witness
            sym = np.abs(omega(mctx, wts, etas) - omega(mctx, etas, wts)).max()
            worst_dich = max(worst_dich, sym)
    _check(report, "sec3-nondegeneracy", worst_dich)
    # symplectic Fourier involution / isometry
    grid = make_grid(cfg.n, cfg.N)
    worst_inv = 0.0
    worst_iso = 0.0
    for _ in range(20):
        f = GridFunction(grid, rng.standard_normal(grid.N ** grid.dim)
                         + 1j * rng.standard_normal(grid.N ** grid.dim))
        Ff = symplectic_fourier(f)
        sc = np.linalg.norm(f.values)
        worst_inv = max(worst_inv,
                        np.linalg.norm(symplectic_fourier(Ff).values - f.values) / sc)
        worst_iso = max(worst_iso, abs(np.linalg.norm(Ff.values) - sc) / sc)
    _check(report, "sec2-fsigma-involution", worst_inv)
    _check(report, "sec2-fsigma-isometry", worst_iso)
    g = _gaussian(grid, 1.0)
    _check(report, "sec2-fsigma-gaussian",
           np.abs(symplectic_fourier(g).values - g.values).max())
    # quantization sanity for the configured T
    ctx = _context(cfg)
    one = GridFunction(grid, np.ones(grid.N ** grid.dim))
    A1 = quantize_T(ctx, one)
    _check(report, "sec4-unit-symbol", np.abs(A1 - np.eye(grid.M)).max())
    a = _gaussian(grid, 1.2, tilt=0.3)
    lhs = quantize_T(ctx, a)
    rhs = quantize_weyl(ctx, lambda_transform(ctx, a))
    _check(report, "thm-n4", _relative_residual(lhs, rhs))
    if cfg.n == 1:
        ctx_h = _context(cfg, T=np.diag([0.5, 0.5]))
        K = quantize_theta_tau_kernel(grid, 0.5, 0.5, a)
        _check(report, "sec1-routes", _relative_residual(quantize_T(ctx_h, a), K))
    return report


def _suite_verify_kato(cfg, report, rng):
    if cfg.n != 1:
        raise ConfigError(f"n must be 1 for verify-kato, whose suite maps are "
                          f"2 x 2, got n={cfg.n}")
    if cfg.N < 32:
        raise ConfigError(f"N must be at least 32 for verify-kato, whose T=I rows "
                          f"alias on coarser grids, got N={cfg.N}")
    configured = _context(cfg)  # a degenerate configured T fails, as in verify-core
    grid = configured.phase_grid
    b = _gaussian(grid, 1.0, center=[0.5] + [0.0] * (grid.dim - 1))
    c = _gaussian(grid, 1.0, center=[0.0, 0.3] + [0.0] * (grid.dim - 2))
    pts = grid.points()
    chirp = np.exp(0.5j * 0.3 * pts[:, 0] * pts[:, 1]).reshape(b.values.shape)
    maps = []  # (label, ctx, (u v*, u u*)): the operators that thm-n15 synthesizes
    for label, T in DEFAULT_SUITE_T:
        ctx = configured if np.array_equal(T, configured.T) else _context(cfg, T=T)
        u, v = (rng.standard_normal(grid.M) + 1j * rng.standard_normal(grid.M)
                for _ in range(2))
        maps.append((label, ctx, (np.outer(u, v.conj()), np.outer(u, u.conj()))))
    _map_rows(report, maps, (
        ("thm-n14-a", lambda ctx, _: kato_identity_residual(ctx, b, c)),
        ("eq-K2", lambda ctx, _: multiplier_identity_residual(ctx, b, c, chirp)),
        ("thm-n15-ii", lambda ctx, ops: _relative_residual(
            np.sqrt(ctx.detS) * np.trace(ops[0]) * np.eye(grid.M),
            kato_synthesis(ctx, lambda xi: np.ones(xi.shape[0]), ops[0]))),
        ("thm-n15-i", lambda ctx, ops: _negativity(kato_synthesis(ctx, b, ops[1])))))
    # orthogonality relation at the configured N
    x = grid.axis
    e = np.exp(-x ** 2 / 2)
    phi_v, psi_v = (w / np.linalg.norm(w) for w in (e * (1 + 0.1 * x), e * (1 - 0.2 * x ** 2)))
    _map_rows(report, [m for m in maps if m[0] in ("T=I/2", "T=I", "T=diag(.3,.7)")], (
        ("sec9-orthogonality", lambda ctx, _: abs(
            orthogonality_integral(ctx, phi_v, psi_v) - np.sqrt(ctx.detS))
            / np.sqrt(ctx.detS)),))
    return report


def _suite_norms(cfg, report, rng):
    N = cfg.N
    window = WindowSpec()
    # chirp operator: inverse relation and Fourier support preservation
    A = np.array([[1.3]])
    u = (np.exp(-(np.arange(N) - N // 2) ** 2 / 30.0)
         * np.exp(0.2j * (np.arange(N) - N // 2)))
    v = chirp_TA(-A, chirp_TA(A, u))
    _check(report, "thm-n5-inverse", np.abs(v - u).max())
    sup_before = np.abs(_ord_ft(u.astype(complex))) > 1e-12
    sup_after = np.abs(_ord_ft(chirp_TA(A, u))) > 1e-12
    _check(report, "thm-n5-support", float(np.count_nonzero(sup_before != sup_after)))
    # chirp modulation boundedness with a constant frozen on the first symbol
    ratios = []
    for i in range(5):
        w = np.exp(-(np.arange(N) - N // 2) ** 2 / (20.0 + 4 * i)).astype(complex)
        ratios.append(modulation_norm(chirp_TA(A, w), window, 1, 1)
                      / modulation_norm(w, window, 1, 1))
    report.add("thm-n5-modulation", 1, 1, max(ratios),
               report.frozen("thm-n5-modulation", ratios[0]))
    # dilation family
    for lam in (0.5, 2.0, 1.5, 0.8):
        res = dilation_ratio(u, np.array([[lam]]), np.inf, 1, window)
        report.add_calibrated("thm-n6", f"thm-n6[lam={lam:g}]", np.inf, 1,
                              res["measured"], res["bound_shape"])
    # embedding bound on the line
    k = WeightSpec(((1, 2.0),))
    try:
        bound = embedding_bound(k, window, 1, N)
    except ValueError as exc:  # no lattice interior for the finite differences
        raise ConfigError(f"N must be at least 8 for the norms suite, got {N}: {exc}")
    x = _axis(N)
    for i in range(20):
        width = 0.7 + 0.08 * i
        uu = np.exp(-x ** 2 / (2 * width ** 2)) * np.exp(0.3j * i * x / 10.0)
        lhs = modulation_norm(uu, window, np.inf, 1)
        rhs = bound * sobolev_k_norm(uu, k, np.inf)
        report.add(f"thm-n10[{i}]", np.inf, 1, lhs, rhs)
    return report


def _suite_bounds(cfg, report, rng):
    return bound_suite(_context(cfg), report)


_SUITE_RUNS = {"verify-core": _suite_verify_core, "verify-kato": _suite_verify_kato,
               "norms": _suite_norms, "bounds": _suite_bounds}
SUITES = tuple(_SUITE_RUNS)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(cfg, report, name, suites):
    csv_path = os.path.join(cfg.out, f"{name}.csv")
    with _writing_out(cfg):
        os.makedirs(cfg.out, exist_ok=True)
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        if cfg.json_mirror:
            config = {"n": cfg.n, "N": cfg.N, "T": np.asarray(cfg.T).tolist(),
                      "suite": "+".join(suites), "seed": cfg.seed}
            _write_json(os.path.join(cfg.out, f"{name}.json"), report.mirror(config))
    return csv_path


def _run(cfg, suites, name, title):
    """Run the named suites into one report, write it as `name` and print its
    summary."""
    rng = np.random.default_rng(cfg.seed)
    report = NormReport()
    for suite in suites:
        _SUITE_RUNS[suite](cfg, report, rng)
    path = _write_report(cfg, report, name, suites)
    ok = report.all_passed()
    tight = max(report.rows, key=lambda r: r.ratio)  # the first of equal ratios
    print(f"{title}: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.passed for r in report.rows)}/{len(report.rows)} rows) -> {path}; "
          f"tightest {tight.quantity} at {tight.ratio:.3g} of bound")
    return 0 if ok else 1


def cmd_verify(cfg):
    return _run(cfg, [cfg.suite], f"report-{cfg.suite}", cfg.suite)


def cmd_quantize(cfg):
    grid = make_grid(cfg.n, cfg.N)
    a = _symbol_from_dict(cfg.symbol, grid)
    if cfg.route == "kernel":
        T = cfg.matrix_T()
        if cfg.n != 1 or not _is_diagonal(T):
            raise ConfigError("kernel route needs n=1 and diagonal T")
        try:
            A = quantize_theta_tau_kernel(grid, T[1, 1], T[0, 0], a)
        except ValueError as exc:
            raise ConfigError(str(exc))
    else:
        ctx = _context(cfg)
        A = quantize_T(ctx, a)
    op_path = os.path.join(cfg.out, f"op-{cfg.route}.txt")
    provenance = {
        "route": cfg.route,
        "n": cfg.n,
        "N": cfg.N,
        "T": np.asarray(cfg.T).tolist(),
        "symbol": cfg.symbol,
    }
    with _writing_out(cfg):
        os.makedirs(cfg.out, exist_ok=True)
        provenance["sha256"] = hashlib.sha256(write_operator(A, op_path)).hexdigest()
        _write_json(os.path.join(cfg.out, f"op-{cfg.route}.json"), provenance)
    print(f"quantize[{cfg.route}]: wrote {op_path}")
    return 0


def cmd_report(cfg):
    return _run(cfg, ["norms", "bounds"], "report-full", "report")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="symplecta",
        description="phase-space quantization verification driver")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("verify", "quantize", "report"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--suite", default=None, choices=SUITES)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--json", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args)
        if args.cmd == "verify":
            return cmd_verify(cfg)
        if args.cmd == "quantize":
            return cmd_quantize(cfg)
        return cmd_report(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
