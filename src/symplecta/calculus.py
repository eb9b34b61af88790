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

import numpy as np

from .grid import (GridFunction, _centred_diagonals, _ord_ft, _ord_ift, _read_rows,
                   _write_rows, apply_multiplier, pullback, symplectic_fourier)
from .weylrep import _shift_groups

_CHUNK_ELEMS = 1 << 22  # element budget of one chunk of shifts in _synthesize


def _synthesize(ctx, g_flat):
    """sum_xi g(xi) W_std(phi xi) over the phase grid, for any n and phi.

    With (y, p) = phi xi, W_std(y, p) = e^{-i<y, p>/2} Mod(p) Shift(y), and on
    the self-dual grid Shift(y) = F^* diag(e^{-i<k, y>}) F is circulant for
    every real y: Shift(y)[a, b] = c_y[a - b], the difference taken mod N per
    axis.  Hence Op[a, b] = G[a, a - b + N/2] (the centred diagonals of G) with
    G = E (Gm C): E = e^{i x p^T} over the distinct p, C[y, :] = c_y in centred
    order over the distinct y (a centred inverse FFT of the ramp) and
    Gm[p, y] = g(xi) e^{-i<y, p>/2}.  Where the points are the
    product of their distinct y and p (every n = 1 map, block-diagonal phi at
    n = 2) this costs O(M^3).  Chunks of whole shift groups, each with only
    the p its points use, keep every intermediate within max(_CHUNK_ELEMS, M^2)
    elements for every phi.
    """
    config = ctx.config
    n, N, M = config.n, config.N, config.M
    x = config.coords()
    ys, iy, ps, ip = _shift_groups(config, ctx.phase_grid.points(), ctx.phi)
    gt = g_flat * np.exp(-0.5j * (ys[iy] * ps[ip]).sum(1))
    order = np.argsort(iy, kind="stable")
    starts = np.searchsorted(iy[order], np.arange(len(ys) + 1))
    # a chunk holds at most M shifts, and at most _CHUNK_ELEMS / M points
    # unless all the distinct p fit that budget together
    max_y = max(1, min(M, _CHUNK_ELEMS // M))
    max_pts = len(iy) if len(ps) * M <= _CHUNK_ELEMS else _CHUNK_ELEMS // M
    axes = tuple(range(1, n + 1))
    G = np.zeros((M, M), complex)
    y0 = 0
    while y0 < len(ys):
        y1 = max(y0 + 1, min(y0 + max_y, np.searchsorted(
            starts, starts[y0] + max_pts, "right") - 1))
        sel = order[starts[y0]:starts[y1]]
        pu, ipl = np.unique(ip[sel], return_inverse=True)
        Gm = np.zeros((len(pu), y1 - y0), complex)
        Gm[ipl, iy[sel] - y0] = gt[sel]
        ramps = np.exp(-1j * (ys[y0:y1] @ x.T)).reshape((-1,) + (N,) * n)
        C = _ord_ift(ramps, axes).reshape(-1, M)
        G += np.exp(1j * (x @ ps[pu].T)) @ (Gm @ C)
        y0 = y1
    return _centred_diagonals(G, n, N)


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

    With B1k[k, z] the frequency-k coefficient of the partial integral at
    difference z, K[x1, x2] = Q[x1, z] for z = x1 - x2 centered, where
    Q = e^{i x k^T} (B1k o e^{-i tau k z^T}): the centred diagonals of Q.
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
    B1k = _ord_ft(B1, (0,)) / N
    Q = ph @ (B1k * np.exp(-1j * tau * np.outer(x, x)))
    return _centred_diagonals(Q, 1, N) * h


def recover_symbol(ctx, A):
    """Invert quantize_T: recover the symbol of a dense operator matrix.

    The centred diagonal at offset d, v_d[a] = A[a, a - d/h], collects the
    synthesis coefficients g_d = (w lam F_sigma a)(d, .) of shift phi_11 y = d:
    v_d = E diag(e^{-i s d x / 2}) g_d with one matrix E = e^{i s x x^T} for
    all d, s = phi_22.  The columns of E are orthogonal with squared norm N,
    so all diagonals are solved by one product with E^* / N, and the phases
    are applied afterwards.  When phi expands the shift lattice (s > 1) the
    modulation frequencies alias s:1; E then keeps the columns of the
    canonical low-frequency representatives, and the product is their
    least-squares fit.
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
    N, w = grid.N, grid.weight
    x = np.asarray(grid.axis)
    lam = ctx.lam_values(grid.points()).reshape(N, N)
    ii = np.arange(N)
    reps = ii if s == 1 else ii[np.abs(ii - N // 2) < N // (2 * s)]
    V = _centred_diagonals(A, 1, N)  # column dz is the diagonal at d = x[dz]
    g = np.zeros((N, N), complex)
    g[:, reps] = V.T @ np.exp(-1j * s * np.outer(x, x[reps])) / N
    g *= np.exp(0.5j * s * np.outer(x, x))
    return symplectic_fourier(GridFunction(grid, g / (lam * w)))


# ---------------------------------------------------------------------------
# operator file format: header `symplecta-op v1, M=<M>`, then re,im rows
# ---------------------------------------------------------------------------

def write_operator(A, path):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be a square matrix")
    _write_rows(path, f"symplecta-op v1, M={A.shape[0]}", A)


def read_operator(path):
    (M,), vals = _read_rows(path, "symplecta-op v1", ("M",), lambda M: M * M)
    return vals.reshape(M, M)
