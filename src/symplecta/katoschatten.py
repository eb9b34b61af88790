"""Schatten norms, operator averaging (synthesis) against conjugated Weyl
unitaries, the associated operator identities, the pairwise majorization
relation, and the norm-bound verification suites.

The synthesis of a phase-space density b against an operator G is

    b{G} = sum_xi b(xi) U(xi) G U(xi)^* w,

with U the translation-covariance conjugators of the representation context.
Sampled densities are summed over the fundamental box (zero extension);
analytic densities are summed over the full periodicity cell of xi -> U(xi),
which is generally a union of several boxes.

The sum is evaluated by shift groups.  With (y, p) = phi S^{-1} xi the
conjugator splits as U(xi) = e^{-i<y,p>/2} Mod(p) Shift(y), and
Mod(p) X Mod(p)^* = X o [e^{i<x_a - x_c, p>}], so the phase cancels and

    b{G} = w sum_y (Shift(y) G Shift(y)^*) o B_y,
    B_y[a, c] = sum_{xi in y} b(xi) e^{i<x_a - x_c, p(xi)>}.

Each distinct shift costs two M x M products and one M x M x P_y product; for
n = 1, where phi S^{-1} is diagonal, there are N shifts of N points each and
the whole sum costs O(N^4) instead of O(N^5) for one explicit unitary per point.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .calculus import quantize_T
from .grid import (GridFunction, _gaussian, apply_multiplier, sigma_convolve,
                   symplectic_fourier)
from .weylrep import _per_shift, matrix_coefficient, u_conjugator


@dataclass
class SchattenReport:
    """Singular-value summary: norm = (sum s_i^p)^{1/p}, or s_1 for p = inf."""

    p: float
    norm: float
    singular_values: np.ndarray


def schatten_norm(A, p):
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise ValueError("operator has non-finite entries")
    if not (1 <= p):
        raise ValueError("p must satisfy 1 <= p <= inf")
    s = np.linalg.svd(A, compute_uv=False)
    if p == np.inf:
        val = float(s[0]) if s.size else 0.0
    else:
        val = float((s ** p).sum() ** (1.0 / p))
    return SchattenReport(p=p, norm=val, singular_values=s)


@dataclass
class SynthesisSpec:
    ctx: object
    b: object  # GridFunction or callable on phase points
    G: np.ndarray

    def __post_init__(self):
        if isinstance(self.b, GridFunction) and self.b.grid != self.ctx.phase_grid:
            raise ValueError("density grid does not match the context grid")
        self.G = np.asarray(self.G, dtype=complex)


def _cell_reps(ctx):
    """Axis repetition counts of the U-periodicity cell, in fundamental boxes."""
    Ainv = np.linalg.inv(ctx.phi @ ctx.Sinv)
    reps = np.rint(np.diag(Ainv)).astype(int)
    if (np.abs(Ainv - np.diag(np.diag(Ainv))).max() > 1e-9
            or np.abs(np.diag(Ainv) - reps).max() > 1e-9 or np.any(reps < 1)):
        raise ValueError("U-periodicity cell is not an integer stack of boxes "
                         "for this context")
    return reps


def _accumulate(ctx, pts, bv, G):
    """sum_xi b(xi) U(xi) G U(xi)^* over the points with nonzero density."""
    live = bv != 0.0
    pts, bv = pts[live], bv[live]
    F = ctx.config.dft()
    Fh = F.conj().T
    Ghat = F @ G @ Fh
    acc = np.zeros_like(G)
    for idx, r, E in _per_shift(ctx.config, pts, ctx.phi @ ctx.Sinv):
        X = Fh @ (r[:, None] * Ghat * r.conj()[None, :]) @ F
        acc += X * ((E * bv[idx]) @ E.conj().T)
    return acc


def kato_synthesis(spec_or_ctx, b=None, G=None):
    """Average U(xi) G U(xi)^* against the density b over phase space.

    Accepts either a SynthesisSpec or (ctx, b, G).  GridFunction densities are
    summed over the fundamental box; callables over the full U-periodicity cell
    (so that b == 1 reproduces the scalar identity exactly).
    """
    if isinstance(spec_or_ctx, SynthesisSpec):
        ctx, b, G = spec_or_ctx.ctx, spec_or_ctx.b, spec_or_ctx.G
    else:
        ctx = spec_or_ctx
    G = np.asarray(G, dtype=complex)
    grid = ctx.phase_grid
    pts = grid.points()
    w = grid.weight
    if isinstance(b, GridFunction):
        if b.grid != grid:
            raise ValueError("density grid does not match the context grid")
        return _accumulate(ctx, pts, b.values.ravel(), G) * w
    if not callable(b):
        raise TypeError("b must be a GridFunction or a callable on phase points")
    reps = _cell_reps(ctx)
    L = grid.box_length
    cell = np.concatenate([pts + (np.asarray(box) - reps // 2) * L
                           for box in np.ndindex(*reps)])
    return _accumulate(ctx, cell, np.asarray(b(cell), dtype=complex).ravel(), G) * w


def kato_identity_residual(ctx, b, c):
    """Relative distance between the two assemblies of the convolution operator.

    Compares quantize_T(b * c) with the b-average of conjugates of
    quantize_T(c), and symmetrically with the roles of b and c exchanged;
    returns the larger relative Frobenius residual.
    """
    conv = sigma_convolve(b, c)
    lhs = quantize_T(ctx, conv)
    scale = np.linalg.norm(lhs)
    if scale == 0.0:
        return 0.0
    r1 = np.linalg.norm(lhs - kato_synthesis(ctx, b, quantize_T(ctx, c))) / scale
    r2 = np.linalg.norm(lhs - kato_synthesis(ctx, c, quantize_T(ctx, b))) / scale
    return float(max(r1, r2))


def multiplier_identity_residual(ctx, b, c, h_mult):
    """Residual of the identity with a frequency multiplier h applied inside.

    Compares quantize_T(h(D)(b * c)) with the b-average of conjugates of
    quantize_T(h(D) c).
    """
    conv = sigma_convolve(b, c)
    lhs = quantize_T(ctx, apply_multiplier(h_mult, conv))
    rhs = kato_synthesis(ctx, b, quantize_T(ctx, apply_multiplier(h_mult, c)))
    scale = np.linalg.norm(lhs)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(lhs - rhs) / scale)


def conjugation_coefficient_residual(ctx, a, phi_v, psi_v, sample_indices):
    """Residual of the sampled conjugation-coefficient formula.

    Checks <phi, U(xi) Op(a) U(xi)^* psi> against (a * w_hat)(-xi), where
    w(eta) = <phi, W(eta) psi> and the hat is the symplectic Fourier transform;
    xi runs over the supplied lattice index tuples.
    """
    grid = ctx.phase_grid
    N, h = grid.N, grid.h
    wfun = matrix_coefficient(ctx, phi_v, psi_v)
    what = symplectic_fourier(wfun)
    conv = sigma_convolve(a, what)
    A = quantize_T(ctx, a)
    phi_a = np.asarray(phi_v, complex).ravel()
    psi = np.asarray(psi_v, complex).ravel()
    worst = 0.0
    for idx in sample_indices:
        idx = np.asarray(idx, dtype=int)
        xi = idx * h
        U = u_conjugator(ctx, xi)
        lhs = np.vdot(phi_a, U @ A @ U.conj().T @ psi)
        rhs = conv.values[tuple(((-idx) + N // 2) % N)]
        worst = max(worst, abs(lhs - rhs))
    return float(worst)


def _check_psd(A, name):
    A = np.asarray(A, dtype=complex)
    if np.abs(A - A.conj().T).max() > 1e-9 * max(1.0, np.abs(A).max()):
        raise ValueError(f"{name} must be Hermitian")
    if np.linalg.eigvalsh(A).min() < -1e-9 * max(1.0, np.abs(A).max()):
        raise ValueError(f"{name} must be positive semidefinite")
    return A


def majorization_residual(Tm, A, B, samples):
    """Worst violation of |<u, Tm v>|^2 <= <u, A u> <v, B v> over sample pairs.

    Nonpositive differences clamp to zero, so 0 certifies the relation on the
    sampled pairs.
    """
    Tm = np.asarray(Tm, dtype=complex)
    A = _check_psd(A, "A")
    B = _check_psd(B, "B")
    worst = 0.0
    for u, v in samples:
        u = np.asarray(u, complex).ravel()
        v = np.asarray(v, complex).ravel()
        lhs = abs(np.vdot(u, Tm @ v)) ** 2
        rhs = np.real(np.vdot(u, A @ u)) * np.real(np.vdot(v, B @ v))
        worst = max(worst, max(0.0, lhs - rhs))
    return float(worst)


def polar_absolute_values(Tm):
    """(|T*|, |T|) via the singular value decomposition: U s U^* and V s V^*."""
    U, s, Vt = np.linalg.svd(np.asarray(Tm, dtype=complex))
    return (U * s) @ U.conj().T, (Vt.conj().T * s) @ Vt


# ---------------------------------------------------------------------------
# norm-bound verification suites
# ---------------------------------------------------------------------------

@dataclass
class NormRow:
    quantity: str  # anchor tag of the bound being exercised
    p: float
    q: float
    value: float
    bound: float
    ratio: float
    passed: bool


@dataclass
class NormReport:
    rows: list = field(default_factory=list)
    frozen_constants: dict = field(default_factory=dict)

    def add(self, quantity, p, q, value, bound):
        ratio = value / bound if bound > 0 else np.inf
        self.rows.append(NormRow(quantity, p, q, float(value), float(bound),
                                 float(ratio), bool(ratio <= 1.0)))

    def frozen(self, key, ratio, calibrate):
        """The frozen constant `key`; when it is missing and calibrate is on,
        twice the first member's measured ratio is frozen."""
        if key not in self.frozen_constants:
            if not calibrate:
                raise ValueError(f"no frozen constant for {key}")
            self.frozen_constants[key] = 2.0 * ratio
        return self.frozen_constants[key]

    def all_passed(self):
        return all(r.passed for r in self.rows)

    def to_csv(self):
        """The rows as CSV; a quantity holding a comma is quoted."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["quantity", "p", "q", "value", "bound", "ratio", "pass"])
        for r in self.rows:
            writer.writerow([r.quantity, f"{r.p:g}", f"{r.q:g}", f"{r.value:.17g}",
                             f"{r.bound:.17g}", f"{r.ratio:.17g}",
                             str(r.passed).lower()])
        return buf.getvalue()


def _gauss_family(grid, count):
    """Deterministic dilated/modulated Gaussian calibration family."""
    out = []
    for i in range(count):
        center = 0.3 * np.array([np.cos(0.7 * i), np.sin(0.7 * i)] * grid.n)[:grid.dim]
        freq = 0.4 * np.array([np.sin(1.1 * i), np.cos(1.1 * i)] * grid.n)[:grid.dim]
        out.append(_gaussian(grid, 1.0 + 0.06 * i, center, freq=freq))
    return out


def modulation_schatten_rows(ctx, report, window, count=10, calibrate=True):
    """Rows for the Schatten-vs-modulation bound over the calibration family."""
    from .spaces import modulation_norms

    fam = _gauss_family(ctx.phase_grid, count)
    measured = []
    for a in fam:
        A = quantize_T(ctx, a)
        s = schatten_norm(A, 1)
        mn = modulation_norms(a, window, [(1, 1), (2, 1)])
        measured.append({1: (s.norm, mn[(1, 1)]),
                         2: (float(np.sqrt((s.singular_values ** 2).sum())),
                             mn[(2, 1)])})
    for p in (1, 2):
        for m in measured:
            sn, mn = m[p]
            const = report.frozen(f"thm-n7:p={p}", sn / mn, calibrate)
            report.add("thm-n7", p, 1, sn, const * mn)
    return report


def cordes_rows(ctx, report, t=1.5, calibrate=True):
    """Trace-norm row for the separable decaying symbol class."""
    grid = ctx.phase_grid
    N = grid.N
    ax = np.asarray(grid.axis)
    ja = (1 + ax ** 2) ** (-t / 2)
    F1 = np.exp(-1j * np.outer(ax, ax)) / np.sqrt(N)
    f1 = np.real(F1.conj().T @ ja)  # inverse transform of an even symbol
    g = GridFunction(grid, np.multiply.outer(f1, f1))
    val = schatten_norm(quantize_T(ctx, g), 1).norm
    report.add("cor-n13", 1, 1, val, report.frozen("cor-n13", val, calibrate))
    return report


def synthesis_bound_rows(ctx, report, count=20, seed=5):
    """Explicit-constant rows: ||b{G}||_p <= (det S)^{(1/2)(1-1/p)} ||b||_p ||G||_1."""
    grid = ctx.phase_grid
    rng = np.random.default_rng(seed)
    M = ctx.config.M
    for _ in range(count):
        width = rng.uniform(0.8, 1.6)
        center = rng.uniform(-0.5, 0.5, grid.dim)
        amp = rng.uniform(0.5, 2.0)
        b = GridFunction(grid, amp * _gaussian(grid, width, center).values)
        u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        G = np.outer(u, v.conj())
        BG = kato_synthesis(ctx, b, G)
        g1 = schatten_norm(G, 1).norm
        for p in (1, 2):
            val = schatten_norm(BG, p).norm
            bound = ctx.detS ** (0.5 * (1 - 1.0 / p)) * b.norm_lp(p) * g1
            report.add("thm-n15-b", p, p, val, bound)
    return report


def interpolation_rows(ctx, report, mu=1.25, count=5, calibrate=True):
    """Rows for the Schatten bound by the phase-space Sobolev norm of order
    2 mu n |1 - 2/p| (mu fixed at 1.25 for reporting)."""
    from .spaces import WeightSpec, sobolev_k_norm

    fam = _gauss_family(ctx.phase_grid, count)
    n = ctx.space.n
    for p in (1, 2):
        s = 2 * mu * n * abs(1 - 2.0 / p)
        k = WeightSpec(((ctx.phase_grid.dim, s),)) if s > 0 else None
        for a in fam:
            sn = schatten_norm(quantize_T(ctx, a), p).norm
            if k is None:
                hn = a.norm_lp(2) * (2 * np.pi) ** (n / 2)  # Lebesgue L^2
            else:
                hn = sobolev_k_norm(a, k, p)
            const = report.frozen(f"interp-mu:p={p}", sn / hn, calibrate)
            report.add("interp-mu", p, p, sn, const * hn)
    return report


def bound_suite(ctx, window=None, frozen_constants=None, synthesis_count=20):
    """Run every norm-bound family and return the populated NormReport.

    With frozen_constants supplied the run is a pure check; otherwise the first
    family member calibrates each unspecified constant at twice its measured
    ratio, and the frozen values are recorded in the report for reuse.
    """
    from .spaces import WindowSpec

    if window is None:
        window = WindowSpec()
    report = NormReport(frozen_constants=dict(frozen_constants or {}))
    calibrate = not frozen_constants
    modulation_schatten_rows(ctx, report, window, calibrate=calibrate)
    cordes_rows(ctx, report, calibrate=calibrate)
    synthesis_bound_rows(ctx, report, count=synthesis_count)
    interpolation_rows(ctx, report, calibrate=calibrate)
    return report
