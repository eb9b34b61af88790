"""Schatten norms, operator averaging (synthesis) against conjugated Weyl
unitaries, the associated operator identities, the pairwise majorization
relation, and the norm-bound verification suites.

The synthesis of a phase-space density b against an operator G is

    b{G} = sum_xi b(xi) U(xi) G U(xi)^* w,

with U the translation-covariance conjugators of the representation context.
Sampled densities are summed over the fundamental box (zero extension);
analytic densities are summed over the full periodicity cell of xi -> U(xi),
which is a product of per-axis stacks of boxes.  With (y, p) = A xi,
A = phi S^{-1}, the conjugator is U(xi) = e^{-i<y,p>/2} Mod(p) Shift(y) and
the phase cancels in U G U^*.

Ambiguity domain (A diagonal, every n = 1 map).  Werner's rule -- the Fourier
transform of an operator convolution is the product of the two transforms --
turns the sum into a product over index differences.  Per axis, with
A = diag(alpha, beta), Ghat = F G F^* and m, d running over the unwrapped
differences -(N-1) .. N-1,

    K[m, d] = sum_{i,j} b[i, j] e^{-i m h alpha xi_i} e^{i d h beta xi_j},
    H[m, d] = sum_l Ghat[l + m, l] e^{i x_l d h},
    b{G}[a, a - d] = (w / N) sum_m e^{i x_a m h} K[m, d] H[m, d].

K depends on b only, H on G only; both and the sum over m are per-axis
products, O(N^3) at n = 1 and O(N^5) at n = 2, for fractional shifts too.
The exponentials act one axis at a time on the multi-indices m, d.

Shift groups (A coupled, such as an n = 2 phi with an x-p block).  The sum
is weylrep._accumulate over the distinct shifts of the shift plan of A, the
plan that orthogonality_integral reads; it counts toward the 8 plans and
32 MiB of weylrep's shift-plan cache.

The tables of the ambiguity-domain sum that do not depend on b or G (F, the
exponentials, the gather indices and masks of each chunk and the output
index) are built once per (grid, bytes of a, bytes of the density axes,
_CHUNK_ELEMS), on first use, and kept read-only in the module's
ambiguity-plan cache: at most 8 plans of 32 MiB in all, the least recently
used evicted first; a larger plan is not kept.  A plan is 0.30 MiB at N = 48
and 8.6 MiB (10.6 MiB on a two-box cell) at N = 256, n = 1, and 1.8 MiB at
N = 16, n = 2.

Norm bounds whose constant the paper leaves open take it from a NormReport:
the first member of a family freezes it at twice its measured ratio, and the
report keeps and writes it.  bound_suite fills the report it is given, so a
report built with constants frozen on one grid checks another.
"""

import csv
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .calculus import quantize_T
from .cocycle import _stack_samples
from .grid import (GridFunction, PhaseGrid, _PlanCache, _centred_roll, _check_grid, _freeze,
                   _gaussian, _is_diagonal, _lattice_index, _lp_rows, _product_points,
                   apply_multiplier, sigma_convolve, symplectic_fourier)
from .spaces import WeightSpec, WindowSpec, modulation_norms, sobolev_k_norm
from .weylrep import _accumulate, matrix_coefficient, u_conjugator_batch


@dataclass
class SchattenReport:
    """Singular-value summary: norm = (sum s_i^p)^{1/p}, or s_1 for p = inf."""

    p: float
    norm: float
    singular_values: np.ndarray


def _schatten(s, p):
    """(sum s_i^p)^{1/p} of the singular values s, s_1 for p = inf."""
    return float(_lp_rows(s[None], p, 1.0)[0])


def schatten_norm(A, p):
    A = np.asarray(A, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise ValueError("operator has non-finite entries")
    if not (1 <= p):
        raise ValueError("p must satisfy 1 <= p <= inf")
    s = np.linalg.svd(A, compute_uv=False)
    return SchattenReport(p=p, norm=_schatten(s, p), singular_values=s)


def _relative_residual(ref, x):
    """||ref - x|| / ||ref|| in the Frobenius norm; 0 when the two agree and
    inf when only ref is 0."""
    diff = np.linalg.norm(ref - x)
    if diff == 0:
        return 0.0
    scale = np.linalg.norm(ref)
    return float(diff / scale) if scale else float("inf")


def _cell_reps(ctx):
    """Axis repetition counts of the U-periodicity cell, in fundamental boxes:
    the diagonal of A^{-1} for an exactly diagonal A (grid._is_diagonal), when
    it passes the lattice test of grid._lattice_index and is positive."""
    A = ctx.A
    if _is_diagonal(A):
        reps = _lattice_index(1.0 / np.diag(A))
        if reps is not None and np.all(reps >= 1):
            return reps.astype(int)
    raise ValueError("U-periodicity cell is not an integer stack of boxes "
                     "for this context")


def _contract(arr, mats, axes):
    """Contract each listed axis of arr with the rows of its matrix, in turn."""
    for ax, mat in zip(axes, mats):
        arr = np.moveaxis(np.tensordot(arr, mat, axes=(ax, 0)), -1, ax)
    return arr


# Elements per chunk of the leading m axis, bounding the working arrays.
_CHUNK_ELEMS = 1 << 20


_AMBIGUITY_PLANS = _PlanCache()


def _ambiguity_plan(grid, a, axes):
    """The tables of _ambiguity_average for U(xi) = W_std(diag(a) xi) and a
    density on the product of the axes: F, the exponentials Ex, Ey and Ep, the
    column indices, per chunk of the leading m axis its slice, row indices and
    mask, and the output index; with their array bytes, as (nbytes, plan)."""
    n, N, h = grid.n, grid.N, grid.h
    L = 2 * N - 1
    m = np.arange(1 - N, N)
    k = m[:, None] + np.arange(N)  # row l + m of diagonal m at column l
    cols = tuple(np.arange(N).reshape([N if s == n + t else 1 for s in range(2 * n)])
                 for t in range(n))
    Ex = np.exp(1j * np.outer(grid.axis, m * h))  # e^{i x_l d h}, also e^{i x_a m h}
    Ey = tuple(np.exp(-1j * np.outer(a[t] * axes[t], m * h)) for t in range(n))
    Ep = tuple(np.exp(1j * np.outer(a[n + t] * axes[n + t], m * h)) for t in range(n))
    chunk = max(1, _CHUNK_ELEMS // L ** (2 * n - 1))
    gathers = []
    for m0 in range(0, L, chunk):
        sl = slice(m0, m0 + chunk)
        # D[m, l] = Ghat[l + m, l] per axis, zero where l + m leaves the lattice
        rows, inside = [], True
        for t, kt in enumerate([k[sl]] + [k] * (n - 1)):
            shape = [1] * 2 * n
            shape[t], shape[n + t] = kt.shape
            rows.append(np.clip(kt, 0, N - 1).reshape(shape))
            inside = inside & ((kt >= 0) & (kt < N)).reshape(shape)
        gathers.append((sl, tuple(rows) + cols, inside))
    ia = np.indices((N,) * n).reshape(n, -1)
    idx = np.ravel_multi_index(tuple(ia[:, :, None] - ia[:, None, :] + N - 1), (L,) * n)
    plan = grid.dft(), Ex, Ey, Ep, tuple(gathers), idx
    return _freeze(plan), plan


def _ambiguity_average(grid, a, axes, bv, G):
    """sum_xi b(xi) U(xi) G U(xi)^* for U(xi) = W_std(diag(a) xi), with the
    density bv sampled on the product of the 2n coordinate axes.

    Arrays over (m, d) hold the n axes of m, then the n axes of d.  The sum
    over the leading m axis runs in chunks that bound them.
    """
    n, N = grid.n, grid.N
    L = 2 * N - 1
    key = (grid, a.tobytes(), tuple(ax.tobytes() for ax in axes), _CHUNK_ELEMS)
    F, Ex, Ey, Ep, gathers, idx = _AMBIGUITY_PLANS.fetch(
        key, lambda: _ambiguity_plan(grid, a, axes))
    Ghat = (F @ G @ F.conj().T).reshape((N,) * 2 * n)
    out = np.zeros((N,) * n + (L,) * n, complex)
    for sl, index, inside in gathers:
        D = np.where(inside, Ghat[index], 0.0)
        H = _contract(D, [Ex] * n, range(n, 2 * n))
        K = _contract(bv, (Ey[0][:, sl],) + Ey[1:] + Ep, range(2 * n))
        out += _contract(K * H, [Ex.T] * (n - 1) + [Ex[:, sl].T], range(n - 1, -1, -1))
    return np.take_along_axis(out.reshape(N ** n, L ** n), idx, axis=1) / N ** n


def kato_synthesis(ctx, b, G):
    """Average U(xi) G U(xi)^* against the density b over phase space.

    GridFunction densities are summed over the fundamental box; callables over
    the full U-periodicity cell (so that b == 1 reproduces the scalar identity
    exactly), which needs phi S^{-1} diagonal with an integer inverse.  A
    diagonal phi S^{-1} takes the ambiguity-domain kernel, any other the shift
    groups.
    """
    G = np.asarray(G, dtype=complex)
    grid = ctx.phase_grid
    if G.shape != (grid.M, grid.M):
        raise ValueError(f"operator must be {grid.M} x {grid.M}, got shape {G.shape}")
    if isinstance(b, GridFunction):
        _check_grid(b, grid, "density")
        axes, bv = [grid.axis] * grid.dim, b.values
    elif callable(b):
        L = grid.box_length
        axes = [np.concatenate([grid.axis + (r - k // 2) * L for r in range(k)])
                for k in _cell_reps(ctx)]
        bv = np.asarray(b(_product_points(axes)), dtype=complex)
        bv = bv.reshape([len(ax) for ax in axes])
    else:
        raise TypeError("b must be a GridFunction or a callable on phase points")
    A = ctx.A
    if not _is_diagonal(A):
        return _accumulate(ctx, bv.ravel(), G) * grid.weight
    return _ambiguity_average(grid, np.diag(A), axes, bv, G) * grid.weight


def kato_identity_residual(ctx, b, c):
    """Relative distance between the two assemblies of the convolution operator.

    Compares quantize_T(b * c) with the b-average of conjugates of
    quantize_T(c), and symmetrically with the roles of b and c exchanged;
    returns the larger relative Frobenius residual.
    """
    lhs = quantize_T(ctx, sigma_convolve(b, c))
    return max(_relative_residual(lhs, kato_synthesis(ctx, b, quantize_T(ctx, c))),
               _relative_residual(lhs, kato_synthesis(ctx, c, quantize_T(ctx, b))))


def multiplier_identity_residual(ctx, b, c, h_mult):
    """Residual of the identity with a frequency multiplier h applied inside.

    Compares quantize_T(h(D)(b * c)) with the b-average of conjugates of
    quantize_T(h(D) c).
    """
    conv = sigma_convolve(b, c)
    lhs = quantize_T(ctx, apply_multiplier(h_mult, conv))
    rhs = kato_synthesis(ctx, b, quantize_T(ctx, apply_multiplier(h_mult, c)))
    return _relative_residual(lhs, rhs)


def conjugation_coefficient_residual(ctx, a, phi_v, psi_v, sample_indices):
    """Residual of the sampled conjugation-coefficient formula.

    Checks <phi, U(xi) Op(a) U(xi)^* psi> against (a * w_hat)(-xi), where
    w(eta) = <phi, W(eta) psi> and the hat is the symplectic Fourier transform;
    xi runs over the supplied lattice indices, shape (k, 2n).
    """
    N, h = ctx.phase_grid.N, ctx.phase_grid.h
    conv = sigma_convolve(a, symplectic_fourier(matrix_coefficient(ctx, phi_v, psi_v)))
    A = quantize_T(ctx, a)
    phi = np.asarray(phi_v, complex).ravel()
    psi = np.asarray(psi_v, complex).ravel()
    idx = _stack_samples(sample_indices, int)
    U = u_conjugator_batch(ctx, idx * h)
    lhs = np.einsum("ka,ab,kb->k", phi.conj() @ U, A, psi @ U.conj())
    rhs = conv.values[tuple(_centred_roll(0, idx, N).T)]
    return float(np.abs(lhs - rhs).max())


def _check_psd(A, name):
    A = np.asarray(A, dtype=complex)
    if np.abs(A - A.conj().T).max() > 1e-9 * max(1.0, np.abs(A).max()):
        raise ValueError(f"{name} must be Hermitian")
    if np.linalg.eigvalsh(A).min() < -1e-9 * max(1.0, np.abs(A).max()):
        raise ValueError(f"{name} must be positive semidefinite")
    return A


def majorization_residual(Tm, A, B, samples):
    """Worst violation of |<u, Tm v>|^2 <= <u, A u> <v, B v> over sample pairs
    (u, v), shape (k, 2, M).

    Nonpositive differences clamp to zero, so 0 certifies the relation on the
    sampled pairs.
    """
    Tm = np.asarray(Tm, dtype=complex)
    A = _check_psd(A, "A")
    B = _check_psd(B, "B")
    u, v = np.moveaxis(_stack_samples(samples, complex).reshape(-1, 2, len(A)), 1, 0)
    lhs = np.abs(np.einsum("ka,ab,kb->k", u.conj(), Tm, v)) ** 2
    rhs = (np.einsum("ka,ab,kb->k", u.conj(), A, u).real
           * np.einsum("ka,ab,kb->k", v.conj(), B, v).real)
    return float(max(0.0, (lhs - rhs).max()))


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
    """Norm-bound rows and the constants they are checked against.  Built
    without frozen constants the report calibrates them (see frozen); built
    with them it only checks against them.  to_csv writes it; mirror gives
    its JSON data."""

    rows: list = field(default_factory=list)
    frozen_constants: dict = field(default_factory=dict)
    calibrating: bool = field(init=False)

    _FACTOR = 2.0  # a frozen constant is this multiple of its first measured ratio

    def __post_init__(self):
        self.calibrating = not self.frozen_constants

    def add(self, quantity, p, q, value, bound):
        ratio = value / bound if bound > 0 else np.inf
        self.rows.append(NormRow(quantity, p, q, float(value), float(bound),
                                 float(ratio), bool(ratio <= 1.0)))

    def frozen(self, key, ratio):
        """The frozen constant `key`; when it is missing from a calibrating
        report, twice this first measured ratio is frozen."""
        if key not in self.frozen_constants:
            if not self.calibrating:
                raise ValueError(f"no frozen constant for {key}")
            self.frozen_constants[key] = self._FACTOR * ratio
        return self.frozen_constants[key]

    def add_calibrated(self, key, quantity, p, q, value, shape=1.0):
        """Add the row value <= C shape, with C the frozen constant `key`."""
        self.add(quantity, p, q, value, self.frozen(key, value / shape) * shape)

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

    def mirror(self, config):
        """The JSON mirror's data: the rows, the frozen constants, the
        calibration rule and the run's config."""
        rows = [{"quantity": r.quantity, "p": r.p, "q": r.q, "value": r.value,
                 "bound": r.bound, "ratio": r.ratio, "pass": r.passed} for r in self.rows]
        rule = f"frozen constant = {self._FACTOR:g}x first-member measured ratio"
        return {"rows": rows, "frozen_constants": self.frozen_constants,
                "calibration": rule, "config": config}


def _gauss_family(grid, count):
    """Deterministic dilated/modulated Gaussian calibration family.  Each
    member is a product of 1-D Gaussians, so modulation_norms takes it by
    its factors."""
    out = []
    for i in range(count):
        width = 1.0 + 0.06 * i
        center = 0.3 * np.array([np.cos(0.7 * i), np.sin(0.7 * i)] * grid.n)[:grid.dim]
        freq = 0.4 * np.array([np.sin(1.1 * i), np.cos(1.1 * i)] * grid.n)[:grid.dim]
        out.append(_gaussian(grid, width, center, freq=freq))
    return out


def modulation_schatten_rows(ctx, report, window, count=10):
    """Rows for the Schatten-vs-modulation bound over the calibration family;
    returns the singular values of each member's Op_T."""
    fam = _gauss_family(ctx.phase_grid, count)
    svals = [schatten_norm(quantize_T(ctx, a), 1).singular_values for a in fam]
    mnorms = [modulation_norms(a, window, [(1, 1), (2, 1)]) for a in fam]
    for p in (1, 2):
        for sv, mn in zip(svals, mnorms):
            sn = _schatten(sv, p)
            report.add_calibrated(f"thm-n7:p={p}", "thm-n7", p, 1, sn, mn[(p, 1)])
    return svals


def cordes_rows(ctx, report):
    """Trace-norm row for the separable decaying symbol class <x>^{-3/2}."""
    grid = ctx.phase_grid
    ja = (1 + grid.axis ** 2) ** -0.75
    f1 = np.real(PhaseGrid(1, grid.N).dft().conj().T @ ja)  # inverse transform, even
    g = GridFunction(grid, functools.reduce(np.multiply.outer, [f1] * grid.dim))
    val = schatten_norm(quantize_T(ctx, g), 1).norm
    report.add_calibrated("cor-n13", "cor-n13", 1, 1, val)
    return report


def synthesis_bound_rows(ctx, report, count=20, seed=5):
    """Explicit-constant rows: ||b{G}||_p <= (det S)^{(1/2)(1-1/p)} ||b||_p ||G||_1."""
    grid = ctx.phase_grid
    rng = np.random.default_rng(seed)
    M = grid.M
    for _ in range(count):
        width = rng.uniform(0.8, 1.6)
        center = rng.uniform(-0.5, 0.5, grid.dim)
        amp = rng.uniform(0.5, 2.0)
        b = GridFunction(grid, amp * _gaussian(grid, width, center).values)
        u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        G = np.outer(u, v.conj())
        sv = schatten_norm(kato_synthesis(ctx, b, G), 1).singular_values
        g1 = schatten_norm(G, 1).norm
        for p in (1, 2):
            val = _schatten(sv, p)
            bound = ctx.detS ** (0.5 * (1 - 1.0 / p)) * b.norm_lp(p) * g1
            report.add("thm-n15-b", p, p, val, bound)
    return report


def interpolation_rows(ctx, report, svals):
    """Rows for the Schatten bound by the phase-space Sobolev norm of order
    2 mu n |1 - 2/p|, with mu fixed at 1.25, over the first five family
    members; svals are the singular values of their Op_T, as
    modulation_schatten_rows returns them."""
    fam = _gauss_family(ctx.phase_grid, 5)
    n = ctx.space.n
    for p in (1, 2):
        s = 2 * 1.25 * n * abs(1 - 2.0 / p)
        k = WeightSpec(((ctx.phase_grid.dim, s),)) if s > 0 else None
        for a, sv in zip(fam, svals):
            sn = _schatten(sv, p)
            if k is None:
                hn = a.norm_lp(2) * (2 * np.pi) ** (n / 2)  # Lebesgue L^2
            else:
                hn = sobolev_k_norm(a, k, p)
            report.add_calibrated(f"interp-mu:p={p}", "interp-mu", p, p, sn, hn)
    return report


def bound_suite(ctx, report, synthesis_count=20):
    """Add the rows of every norm-bound family to report, with the default
    analysis window, and return it.

    A calibrating report freezes the constants; one built with frozen
    constants only checks against them (see NormReport).  Each calibration
    operator is quantized and decomposed once.
    """
    svals = modulation_schatten_rows(ctx, report, WindowSpec())
    cordes_rows(ctx, report)
    synthesis_bound_rows(ctx, report, count=synthesis_count)
    interpolation_rows(ctx, report, svals)
    return report
