"""Quantization maps and symbol transforms.

The twisted quantization of a phase-space symbol a is the synthesis

    Op_T(a) = sum_xi (F_sigma a)(xi) e^{-(i/2) sigma(xi, T xi)} W_tilde(xi) w,

with W_tilde the normalized Weyl system of the representation context.  The
companion map over the S-scaled form quantizes b directly against W_tilde;
the two are intertwined by the symbol transform

    (Lam a)(xi) = (F_sigma^{-1} [ lam . F_sigma a ])(S xi),

so that Op_T(a) = Op_tilde(Lam a).  For diagonal T = diag(tau, theta) on n=1
there is also the classical integral-kernel route.  The synthesis and its
adjoint, the analysis tr(W^* A), live in weylrep; at n = 1 the analysis
inverts the quantization exactly.
"""

import numpy as np

from .grid import (GridFunction, _centred_diagonals, _check_grid, _is_diagonal, _lattice_index,
                   _ord_ft, _read_rows, _write_rows, apply_multiplier, pullback,
                   symplectic_fourier)
from .weylrep import _analyze, _synthesize


def quantize_T(ctx, a):
    """Twisted quantization Op_T(a) as a dense M x M matrix."""
    _check_grid(a, ctx.phase_grid)
    ca = symplectic_fourier(a).values.ravel()
    g = ca * ctx.lam * ctx.phase_grid.weight
    return _synthesize(ctx, g)


def quantize_weyl(ctx, b):
    """Quantization of b against the normalized system (the S-scaled route).

    The synthesis coefficients are the sigma_S-Fourier transform of b, computed
    by pulling b back along S^{-1} (an exact gather for a lattice S^{-1}, the
    periodic trigonometric extension of b otherwise) and rescaling; the
    scaling factor cancels against the S-scaled measure weight.
    """
    _check_grid(b, ctx.phase_grid)
    bs = pullback(ctx.Sinv, b)
    cb = symplectic_fourier(bs).values.ravel()
    return _synthesize(ctx, cb * ctx.phase_grid.weight)


def lambda_transform(ctx, a):
    """The symbol transform Lam: Op_T(a) = Op_tilde(Lam a).

    Multiplies the sigma-Fourier transform by lam(xi) = e^{-(i/2) sigma(xi,T xi)}
    and composes with S.  The composition is truncated (zero
    outside the fundamental box) rather than wrapped, since a wrapped expansion
    would fold in spurious periodic copies of the symbol; for S = I it is the
    identity gather.
    """
    _check_grid(a, ctx.phase_grid)
    return pullback(ctx.S, apply_multiplier(ctx.lam, a), truncate=True)


def inverse_lambda_transform(ctx, b):
    """Inverse of the symbol transform: divide out lam after composing with S^{-1}."""
    _check_grid(b, ctx.phase_grid)
    return apply_multiplier(np.conj(ctx.lam), pullback(ctx.Sinv, b))


def quantize_theta_tau_kernel(grid, theta, tau, a):
    """Integral-kernel quantization for T = diag(tau, theta), n = 1.

    K(x1, x2) = (2pi)^{-1} int a(x1 - tau (x1 - x2), k) e^{i k (x1 - x2)} dk,
    discretized with the grid quadrature.  On the periodic grid the difference
    x1 - x2 is replaced by its centered representative so every matrix entry
    uses the near side of the torus.  The formula reads tau only, so it is
    Op_T only where theta + tau = 1; other pairs are rejected.

    With B1k[k, z] the frequency-k coefficient of the partial integral at
    difference z, K[x1, x2] = Q[x1, z] for z = x1 - x2 centered, where
    Q = e^{i x k^T} (B1k o e^{-i tau k z^T}): the centred diagonals of Q.
    """
    if grid.n != 1:
        raise ValueError("the kernel route is implemented for n = 1")
    if not abs(theta + tau - 1.0) <= 1e-12:  # nan fails too
        raise ValueError(f"the kernel route needs theta + tau = 1, got "
                         f"theta + tau = {float(theta + tau)!r}")
    N, h, x = grid.N, grid.h, np.asarray(grid.axis)
    av = a.values
    ph = np.exp(1j * np.outer(x, x))
    B1 = (av @ ph.T) * (h / (2 * np.pi))  # partial k-integral, indexed [x, z]
    B1k = _ord_ft(B1, (0,)) / N
    Q = ph @ (B1k * np.exp(-1j * tau * np.outer(x, x)))
    return _centred_diagonals(Q, 1, N) * h


def recover_symbol(ctx, A):
    """Invert quantize_T: recover the symbol of a dense operator matrix.

    Op_T(a) is the synthesis of g = w lam F_sigma a against W_std(phi xi).  On
    the n = 1 grid with phi = diag(1, s) these unitaries are orthogonal,
    tr(W_std(phi xi)^* W_std(phi xi')) = N delta, so g = tr(W_std(phi xi)^* A) / N
    is one analysis, the adjoint of the synthesis.  When phi expands the
    modulation lattice (s > 1) the frequencies alias s:1 and only the canonical
    low-frequency representatives |j - N/2| < N/(2s) are kept; the aliased
    coefficients are set to zero.  phi must be diagonal (grid._is_diagonal) with
    phi[0, 0] == 1, and s = phi[1, 1] an integer by grid._lattice_index.
    """
    if ctx.space.n != 1:
        raise ValueError("symbol recovery is implemented for n = 1")
    phi = ctx.phi
    if not (_is_diagonal(phi) and phi[0, 0] == 1.0):
        raise ValueError("recovery requires a diagonal normalization with unit shift block")
    s = _lattice_index(phi[1, 1])
    if s is None or s < 1:
        raise ValueError("modulation scale must be a positive integer")
    grid = ctx.phase_grid
    N = grid.N
    g = _analyze(grid, phi, A).reshape(N, N) / N
    if s > 1:
        g[:, np.abs(np.arange(N) - N // 2) >= N // (2 * s)] = 0.0
    return symplectic_fourier(GridFunction(grid, g / (ctx.lam.reshape(N, N) * grid.weight)))


# ---------------------------------------------------------------------------
# operator file format: header `symplecta-op v1, M=<M>`, then re,im rows
# ---------------------------------------------------------------------------

def write_operator(A, path):
    """Write A to path; return the bytes written."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be a square matrix")
    return _write_rows(path, f"symplecta-op v1, M={A.shape[0]}", A)


def read_operator(path):
    (M,), vals = _read_rows(path, "symplecta-op v1", ("M",), lambda M: M * M)
    return vals.reshape(M, M)
