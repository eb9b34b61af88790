"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion and asserts it.
The whole module runs on one degree of freedom (state dimension <= 64) and is
budgeted to finish in well under five minutes.
"""

import numpy as np
import pytest

from conftest import SUITE_T, gaussian, make_ctx, unit_gaussians_1d
from symplecta.calculus import (lambda_transform, quantize_T,
                                quantize_theta_tau_kernel, quantize_weyl)
from symplecta.cli import main
from symplecta.cocycle import (MultiplierContext, coboundary_residual,
                               cocycle_residual, omega, omega_tilde)
from symplecta.grid import GridFunction, _ord_ft, make_grid, symplectic_fourier
from symplecta.katoschatten import (NormReport, cordes_rows,
                                    kato_identity_residual, kato_synthesis,
                                    modulation_schatten_rows,
                                    multiplier_identity_residual,
                                    synthesis_bound_rows)
from symplecta.spaces import (WeightSpec, WindowSpec, chirp_TA, dilation_ratio,
                              embedding_bound, modulation_norm,
                              modulation_norms, sobolev_k_norm, trig_resample)
from symplecta.symplin import SymplecticSpace, nondegeneracy_gate
from symplecta.weylrep import orthogonality_integral

SP = SymplecticSpace(1)


def _report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name} failed: {detail}"


def _symbol_family(grid, count, width0=1.35, dw=0.03, r=0.3, tilt=0.2):
    pts = grid.points()
    out = []
    for i in range(count):
        width = width0 + dw * i
        center = r * np.array([np.cos(0.7 * i), np.sin(0.7 * i)])
        freq = r * np.array([np.sin(1.1 * i), np.cos(1.1 * i)])
        z = pts - center
        vals = (np.exp(-(z ** 2).sum(1) / (2 * width ** 2))
                * (1 + tilt * pts[:, 0]) * np.exp(1j * (pts @ freq)))
        out.append(GridFunction(grid, vals))
    return out


def test_criterion_01_cocycle_algebra():
    rng = np.random.default_rng(101)
    worst_eq = worst_norm = worst_cob = 0.0
    for _ in range(10):
        ctx = MultiplierContext(SP, rng.standard_normal((2, 2)))
        triples = rng.standard_normal((100, 3, 2)) * 3
        worst_eq = max(worst_eq, cocycle_residual(ctx, triples))
        pairs = rng.standard_normal((100, 2, 2)) * 3
        worst_cob = max(worst_cob, coboundary_residual(ctx, pairs))
        xis = rng.standard_normal((20, 2)) * 3
        worst_norm = max(worst_norm, np.abs(omega_tilde(ctx, xis, -xis) - 1.0).max())
    ok = worst_eq <= 1e-12 and worst_norm <= 1e-12 and worst_cob <= 1e-12
    _report("01 cocycle algebra", ok,
            f"equation {worst_eq:.2e}, normalization {worst_norm:.2e}, "
            f"coboundary {worst_cob:.2e}, tol 1e-12")


def test_criterion_02_nondegeneracy_dichotomy():
    rng = np.random.default_rng(102)
    mismatches = 0
    for T in [*rng.standard_normal((19, 2, 2)), SP.J.copy()]:
        gate = nondegeneracy_gate(SP, T)
        ctx = MultiplierContext(SP, T)
        etas = rng.standard_normal((30, 2)) * 3
        if gate.nondegenerate:
            xis = rng.standard_normal((5, 1, 2)) * 3
            sym = np.abs(omega(ctx, xis, etas) - omega(ctx, etas, xis)).max(1).min()
            if sym < 1e-8:
                mismatches += 1
        else:
            xi = gate.kernel_witness
            if np.abs(omega(ctx, xi, etas) - omega(ctx, etas, xi)).max() > 1e-10:
                mismatches += 1
    _report("02 nondegeneracy dichotomy", mismatches == 0,
            f"{mismatches} verdict mismatches over 20 maps")


def test_criterion_03_symplectic_fourier():
    rng = np.random.default_rng(103)
    worst_inv = worst_iso = 0.0
    for N in (16, 32, 64):
        grid = make_grid(1, N)
        for _ in range(50):
            f = GridFunction(grid, rng.standard_normal(N * N)
                             + 1j * rng.standard_normal(N * N))
            sc = np.linalg.norm(f.values)
            tf = symplectic_fourier(f)
            worst_iso = max(worst_iso,
                            abs(np.linalg.norm(tf.values) - sc) / sc)
            worst_inv = max(worst_inv,
                            np.linalg.norm(symplectic_fourier(tf).values
                                           - f.values) / sc)
    g = gaussian(make_grid(1, 64), 1.0)
    fixed = np.abs(symplectic_fourier(g).values - g.values).max()
    ok = worst_inv <= 1e-10 and worst_iso <= 1e-10 and fixed <= 1e-8
    _report("03 symplectic Fourier", ok,
            f"involution {worst_inv:.2e}, isometry {worst_iso:.2e}, "
            f"Gaussian fixed point {fixed:.2e}")


def test_criterion_04_quantization_route_equivalence():
    worst = 0.0
    grid = make_grid(1, 64)
    fam = _symbol_family(grid, 10)
    for T in SUITE_T.values():
        ctx = make_ctx(T, N=64)
        for a in fam:
            A1 = quantize_T(ctx, a)
            A2 = quantize_weyl(ctx, lambda_transform(ctx, a))
            worst = max(worst, np.linalg.norm(A1 - A2) / np.linalg.norm(A1))
    _report("04 twisted vs normalized quantization", worst <= 1e-7,
            f"worst relative error {worst:.2e} over 5 T x 10 symbols, tol 1e-7")


def test_criterion_05_kernel_route():
    worst = 0.0
    grid = make_grid(1, 32)
    a = gaussian(grid, 1.0, center=(0.2, 0.1), tilt=0.1)
    for theta, tau in ((0.5, 0.5), (1.0, 0.0), (0.3, 0.7)):
        ctx = make_ctx(np.diag([tau, theta]), N=32)
        A1 = quantize_T(ctx, a)
        K = quantize_theta_tau_kernel(grid, theta, tau, a)
        worst = max(worst, np.linalg.norm(A1 - K) / np.linalg.norm(A1))
    _report("05 kernel route equivalence", worst <= 1e-7,
            f"worst relative error {worst:.2e} over 3 (theta, tau), tol 1e-7")


def test_criterion_06_orthogonality_relation():
    worst = 0.0
    phi, psi = unit_gaussians_1d(64)
    for T in (0.5 * np.eye(2), np.eye(2), np.diag([0.3, 0.7])):
        ctx = make_ctx(T, N=64)
        val = orthogonality_integral(ctx, phi, psi)
        want = np.sqrt(ctx.detS)  # unit-norm vectors
        worst = max(worst, abs(val - want) / want)
    _report("06 orthogonality relation", worst <= 1e-2,
            f"worst relative error {worst:.2e} over 3 T, tol 1%")


def test_criterion_07_averaging_identities():
    worst_plain = worst_mult = 0.0
    grid = make_grid(1, 32)
    b = gaussian(grid, 1.0, center=(0.5, 0.0))
    c = gaussian(grid, 1.0, center=(0.0, 0.3))
    pts = grid.points()
    chirp = np.exp(0.5j * 0.3 * pts[:, 0] * pts[:, 1]).reshape(32, 32)
    for T in SUITE_T.values():
        ctx = make_ctx(T, N=32)
        worst_plain = max(worst_plain, kato_identity_residual(ctx, b, c))
        worst_mult = max(worst_mult,
                         multiplier_identity_residual(ctx, b, c, chirp))
    ok = worst_plain <= 1e-6 and worst_mult <= 1e-6
    _report("07 averaging identities", ok,
            f"plain {worst_plain:.2e}, multiplier {worst_mult:.2e}, tol 1e-6")


def test_criterion_08_averaging_calculus():
    rng = np.random.default_rng(108)
    worst_scalar = worst_neg = 0.0
    report = NormReport()
    for seed, T in enumerate(SUITE_T.values()):
        ctx = make_ctx(T, N=32)
        M = 32
        u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        G = np.outer(u, v.conj())
        BG = kato_synthesis(ctx, lambda xi: np.ones(xi.shape[0]), G)
        want = np.sqrt(ctx.detS) * np.trace(G) * np.eye(M)
        worst_scalar = max(worst_scalar,
                           np.linalg.norm(BG - want) / np.linalg.norm(want))
        b = gaussian(ctx.phase_grid, 1.0)
        BP = kato_synthesis(ctx, b, np.outer(u, u.conj()))
        mineig = np.linalg.eigvalsh(0.5 * (BP + BP.conj().T)).min()
        worst_neg = max(worst_neg, -mineig / np.linalg.norm(BP))
        synthesis_bound_rows(ctx, report, count=20, seed=seed)
    ok = (worst_scalar <= 1e-2 and worst_neg <= 1e-9 and report.all_passed()
          and len(report.rows) == 200)
    margin = min(r.bound / r.value for r in report.rows)
    _report("08 averaging calculus", ok,
            f"scalar identity {worst_scalar:.2e}, positivity {worst_neg:.2e}, "
            f"norm inequality holds on 100 pairs x 2 exponents "
            f"(min margin {margin:.2f})")


def test_criterion_09_frozen_constant_stability():
    window = WindowSpec()
    # trace/Hilbert-Schmidt vs modulation norm over the calibration family
    cal = NormReport()
    ctx48 = make_ctx(SUITE_T["half"], N=48)
    modulation_schatten_rows(ctx48, cal, window, count=10)
    cordes_rows(ctx48, cal)
    chk = NormReport(frozen_constants=dict(cal.frozen_constants))
    ctx64 = make_ctx(SUITE_T["half"], N=64)
    modulation_schatten_rows(ctx64, chk, window, count=10)
    cordes_rows(ctx64, chk)
    ok = cal.all_passed() and chk.all_passed()
    drift = 0.0
    for p in (1, 2):
        c = cal.frozen_constants[f"thm-n7:p={p}"]
        r48 = max(r.ratio for r in cal.rows if r.quantity == "thm-n7" and r.p == p)
        r64 = max(r.ratio for r in chk.rows if r.quantity == "thm-n7" and r.p == p)
        drift = max(drift, abs(r64 * c - r48 * c) / (r48 * c))
    v48 = next(r.value for r in cal.rows if r.quantity == "cor-n13")
    v64 = next(r.value for r in chk.rows if r.quantity == "cor-n13")
    drift = max(drift, abs(v64 - v48) / v48)
    # stability of the symbol transform in modulation norm
    lam_worst = {1: [], 2: []}
    for N in (48, 64):
        grid = make_grid(1, N)
        fam = _symbol_family(grid, 4, width0=1.0, dw=0.1)
        base = {id(a): modulation_norms(a, window, [(1, 1), (2, 1)])
                for a in fam}
        for T in SUITE_T.values():
            ctx = make_ctx(T, N=N)
            for a in fam:
                tr = modulation_norms(lambda_transform(ctx, a), window,
                                      [(1, 1), (2, 1)])
                for p, q in ((1, 1), (2, 1)):
                    lam_worst[p].append(tr[(p, q)] / base[id(a)][(p, q)])
    half = len(lam_worst[1]) // 2
    for p in (1, 2):
        frozen = 2.0 * lam_worst[p][0]
        ok = ok and max(lam_worst[p]) <= frozen
        m48, m64 = max(lam_worst[p][:half]), max(lam_worst[p][half:])
        drift = max(drift, abs(m64 - m48) / m48)
    ok = ok and drift <= 0.10
    _report("09 frozen-constant stability", ok,
            f"all rows within frozen constants, worst 48->64 drift "
            f"{100 * drift:.1f}% (limit 10%)")


def test_criterion_10_embedding_bound():
    k = WeightSpec(((1, 2.0),))
    window = WindowSpec()
    bound = embedding_bound(k, window, 1, 64)
    x = (np.arange(64) - 32) * np.sqrt(2 * np.pi / 64)
    worst = 0.0
    for i in range(20):
        width = 0.7 + 0.08 * i
        u = (np.exp(-x ** 2 / (2 * width ** 2))
             * np.exp(0.3j * i * x / 10.0)).astype(complex)
        lhs = modulation_norm(u, window, np.inf, 1)
        rhs = bound * sobolev_k_norm(u, k, np.inf)
        worst = max(worst, lhs / rhs)
    rejected = False
    try:
        embedding_bound(WeightSpec(((1, 0.5),)), window, 1, 32)
    except ValueError:
        rejected = True
    ok = worst <= 1.0 and rejected
    _report("10 embedding bound", ok,
            f"worst measured/bound {worst:.3f} over 20 inputs; "
            f"non-integrable weight rejected: {rejected}")


def test_criterion_11_dilation_and_chirp():
    N = 64
    x = (np.arange(N) - N // 2) * np.sqrt(2 * np.pi / N)
    u = (np.exp(-x ** 2 / 2) * np.exp(0.4j * x)).astype(complex)
    window = WindowSpec()
    frozen = None
    ok = True
    worst = 0.0
    for lam in (0.5, 0.8, 1.25, 2.0):
        res = dilation_ratio(u, np.array([[lam]]), np.inf, 1, window)
        r = res["measured"] / res["bound_shape"]
        if frozen is None:
            frozen = 2.0 * r
        worst = max(worst, r / frozen)
        ok = ok and r <= frozen
    frozen_c = None
    base = modulation_norm(u, window, 1, 1)
    for Aval in (0.5, 1.0, 2.0):
        r = modulation_norm(chirp_TA(np.array([[Aval]]), u), window, 1, 1) / base
        if frozen_c is None:
            frozen_c = 2.0 * r
        worst = max(worst, r / frozen_c)
        ok = ok and r <= frozen_c
    A = np.array([[1.3]])
    inv = np.abs(chirp_TA(-A, chirp_TA(A, u)) - u).max()
    ok = ok and inv <= 1e-10
    sup_before = np.abs(_ord_ft(u)) > 1e-12
    sup_after = np.abs(_ord_ft(chirp_TA(A, u))) > 1e-12
    exact = bool(np.all(sup_before == sup_after))
    ok = ok and exact
    _report("11 dilation and chirp", ok,
            f"family ratios within frozen constants (worst {worst:.2f}), "
            f"inverse {inv:.2e}, support preserved: {exact}")


def test_criterion_12_deterministic_reports(tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        d = tmp_path / sub
        rc = main(["verify", "--suite", "verify-core", "--seed", "7",
                   "--out", str(d), "--json"])
        assert rc == 0
        outs.append((d / "report-verify-core.csv").read_bytes()
                    + (d / "report-verify-core.json").read_bytes())
    ok = outs[0] == outs[1]
    _report("12 deterministic reports", ok,
            f"two identical configs -> byte-identical reports: {ok}")
