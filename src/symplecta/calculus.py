"""Quantization maps and symbol transforms.

The twisted quantization of a phase-space symbol a is the synthesis

    Op_T(a) = sum_xi (F_sigma a)(xi) e^{-(i/2) sigma(xi, T xi)} W_tilde(xi) w,

with W_tilde the normalized Weyl system of the representation context.  The
companion map over the S-scaled form quantizes b directly against W_tilde;
the two are intertwined by the symbol transform

    (Lam a)(xi) = (F_sigma^{-1} [ lam . F_sigma a ])(S xi),

so that Op_T(a) = Op_tilde(Lam a).  For diagonal T = diag(tau, theta) on n=1
there is also the classical integral-kernel route, and the quantization is
inverted exactly by per-diagonal coefficient extraction.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, apply_multiplier, pullback, symplectic_fourier
from .weylrep import weyl_standard


def _synth_fast_1d(ctx, g_flat):
    """n=1 closed form for sum_xi g(xi) W_std(phi xi) over the full phase grid.

    Splitting W_std(y, p) = modulation . F^* D(y) F collapses the double sum
    into two dense N x N products: the modulation/shift phases factor as
    outer products in (x, y) and (x, p).
    """
    config = ctx.config
    N = config.N
    x = config.axis
    F = config.dft()
    eta = ctx.phase_grid.points() @ ctx.phi.T
    gy, gp = eta[:, 0], eta[:, 1]
    gt = g_flat * np.exp(-0.5j * gy * gp)
    T = (np.exp(1j * np.outer(x, gp)) * gt) @ np.exp(-1j * np.outer(x, gy)).T
    return (F.conj().T * T) @ F


def _synth_generic(ctx, g_flat):
    pts = ctx.phase_grid.points()
    M = ctx.config.M
    out = np.zeros((M, M), complex)
    for gi, xi in zip(g_flat, pts):
        if gi == 0.0:
            continue
        out += gi * weyl_standard(ctx.config, ctx.phi @ xi)
    return out


def _synthesize(ctx, g_flat):
    if ctx.space.n == 1:
        return _synth_fast_1d(ctx, g_flat)
    return _synth_generic(ctx, g_flat)


def quantize_T(ctx, a):
    """Twisted quantization Op_T(a) as a dense M x M matrix."""
    ca = symplectic_fourier(a).values.ravel()
    pts = ctx.phase_grid.points()
    g = ca * ctx.lam_values(pts) * ctx.phase_grid.weight
    return _synthesize(ctx, g)


def quantize_weyl(ctx, b):
    """Quantization of b against the normalized system (the S-scaled route).

    The synthesis coefficients are the sigma_S-Fourier transform of b, computed
    by pulling b back along S^{-1} (band-limited resampling) and rescaling;
    the scaling factor cancels against the S-scaled measure weight.
    """
    bs = pullback(np.linalg.inv(ctx.S), b, mode="resampled")
    cb = symplectic_fourier(bs).values.ravel()
    return _synthesize(ctx, cb * ctx.phase_grid.weight)


def lambda_transform(ctx, a, mode=None):
    """The symbol transform Lam: Op_T(a) = Op_tilde(Lam a).

    Multiplies the sigma-Fourier transform by lam(xi) = e^{-(i/2) sigma(xi,T xi)}
    and composes with the lattice map S.  For expanding S the composition is
    truncated (zero outside the fundamental box) rather than wrapped, since a
    wrapped expansion would fold in spurious periodic copies of the symbol.
    """
    pts = ctx.phase_grid.points()
    lam = ctx.lam_values(pts).reshape(a.values.shape)
    am = apply_multiplier(lam, a)
    if mode is None:
        mode = "exact" if np.abs(ctx.S - np.eye(ctx.space.dim)).max() < 1e-12 else "truncated"
    return pullback(ctx.S, am, mode=mode)


def inverse_lambda_transform(ctx, b):
    """Inverse of the symbol transform: divide out lam after composing with S^{-1}."""
    pts = ctx.phase_grid.points()
    bs = pullback(np.linalg.inv(ctx.S), b, mode="resampled")
    lam_conj = np.conj(ctx.lam_values(pts)).reshape(b.values.shape)
    return apply_multiplier(lam_conj, bs)


def quantize_theta_tau_kernel(grid, theta, tau, a):
    """Integral-kernel quantization for T = diag(tau, theta), n = 1.

    K(x1, x2) = (2pi)^{-1} int a(x1 - tau (x1 - x2), k) e^{i k (x1 - x2)} dk,
    discretized with the grid quadrature.  On the periodic grid the difference
    x1 - x2 is replaced by its centered representative so every matrix entry
    uses the near side of the torus.  The formula reads tau only, so it is
    Op_T only where theta + tau = 1; other pairs are rejected.
    """
    if grid.n != 1:
        raise ValueError("the kernel route is implemented for n = 1")
    if abs(theta + tau - 1.0) > 1e-12:
        raise ValueError(f"the kernel route needs theta + tau = 1, got "
                         f"theta + tau = {theta + tau!r}")
    N, h, x = grid.N, grid.h, np.asarray(grid.axis)
    av = a.values
    ph = np.exp(1j * np.outer(x, x))
    B1 = (av @ ph.T) * (h / (2 * np.pi))  # partial k-integral, indexed [x, z]
    B1k = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(B1, axes=0), axis=0), axes=0) / N
    ii = np.arange(N)
    DI = ((ii[:, None] - ii[None, :] + N // 2) % N) - N // 2
    tgt = x[:, None] - tau * (DI * h)
    zidx = DI + N // 2
    K = np.zeros((N, N), complex)
    for ki, kv in enumerate(x):
        K += B1k[ki, zidx] * np.exp(1j * kv * tgt)
    return K * h


def recover_symbol(ctx, A):
    """Invert quantize_T: recover the symbol of a dense operator matrix.

    Each centered matrix diagonal d collects the synthesis coefficients with
    shift phi_11 * y = d; solving the modulation system per diagonal yields the
    coefficient field g = w lam (F_sigma a) exactly.  When phi expands the
    shift lattice (phi_22 = s > 1) the modulation frequencies alias s:1 and the
    canonical low-frequency representatives are selected.
    """
    if ctx.space.n != 1:
        raise ValueError("symbol recovery is implemented for n = 1")
    phi = ctx.phi
    if not (abs(phi[0, 0] - 1.0) < 1e-12 and abs(phi[0, 1]) < 1e-12
            and abs(phi[1, 0]) < 1e-12):
        raise ValueError("recovery requires a diagonal normalization with unit shift block")
    s = int(round(phi[1, 1]))
    if abs(phi[1, 1] - s) > 1e-12 or s < 1:
        raise ValueError("modulation scale must be a positive integer")
    grid = ctx.phase_grid
    N, h, w = grid.N, grid.h, grid.weight
    x = np.asarray(grid.axis)
    lam = ctx.lam_values(grid.points()).reshape(N, N)
    g = np.zeros((N, N), complex)
    ii = np.arange(N)
    for dz in range(N):
        d = (dz - N // 2) * h
        x2i = (ii - (dz - N // 2)) % N
        vals = np.asarray(A)[ii, x2i]
        tv = x - d / 2
        if s == 1:
            E = np.exp(1j * np.outer(tv, x))
            g[dz, :] = np.linalg.solve(E, vals)
        else:
            reps = ii[np.abs(ii - N // 2) < N // (2 * s)]
            E = np.exp(1j * s * np.outer(tv, x[reps]))
            coef = np.zeros(N, complex)
            coef[reps], *_ = np.linalg.lstsq(E, vals, rcond=None)
            g[dz, :] = coef
    c = g / (lam * w)
    return symplectic_fourier(GridFunction(grid, c))


# ---------------------------------------------------------------------------
# operator file format: header `symplecta-op v1, M=<M>`, then re,im rows
# ---------------------------------------------------------------------------

def write_operator(A, path):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be a square matrix")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"symplecta-op v1, M={A.shape[0]}\n")
        for v in A.ravel():
            fh.write(f"{float(v.real)!r},{float(v.imag)!r}\n")


def read_operator(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("symplecta-op v1"):
            raise ValueError("not a symplecta-op v1 file")
        fields = dict(part.strip().split("=") for part in header.split(",")[1:])
        M = int(fields["M"])
        vals = np.empty(M * M, complex)
        for i in range(vals.size):
            re, im = fh.readline().split(",")
            vals[i] = float(re) + 1j * float(im)
    return vals.reshape(M, M)
