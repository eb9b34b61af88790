"""Finite-dimensional Weyl systems on the configuration grid.

The state space is C^M, M = N^n, holding samples of functions on the self-dual
configuration grid.  The standard Weyl operator acts by

    (W_std(y, p) v)(x) = e^{i <x - y/2, p>} v(x - y),

with the shift realized on the Fourier side (exact for lattice y, band-limited
and still unitary for fractional y) and the modulation exact pointwise.  The
T-twisted system is W_tilde(xi) = W_std(phi xi) with the deterministic
symplectomorphism phi normalizing the form built from S = T + T^sigma, and
W(xi) = e^{-(i/2) sigma(xi, T xi)} W_tilde(xi).  The conjugators are
U(xi) = W_tilde(S^{-1} xi).

One chunked kernel serves every sum over W_std(A xi): _shift_chunks groups the
points by shift and modulation, _synthesize sums g(xi) W_std(phi xi) over them
and _analyze, its exact adjoint, takes tr(W_std(A xi)^* B) at each of them.
"""

from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, PhaseGrid, _axis, _centred_diagonals, _lattice_points,
                   _ord_ift)
from .symplin import (SymplecticSpace, factor_sigma_symmetric, nondegeneracy_gate,
                      sigma_eval)


@dataclass(frozen=True)
class ConfigGrid:
    """Self-dual grid on the configuration space V = R^n; state dimension M = N^n."""

    n: int
    N: int

    @property
    def h(self):
        return np.sqrt(2 * np.pi / self.N)

    @property
    def M(self):
        return self.N ** self.n

    @property
    def axis(self):
        return _axis(self.N)

    def coords(self):
        """All M configuration points, shape (M, n); also the frequencies of dft()."""
        return _lattice_points(self.N, self.n)

    def dft(self):
        """Centered unitary DFT matrix on C^M (tensor power of the 1-D kernel)."""
        F1 = np.exp(-1j * np.outer(self.axis, self.axis)) / np.sqrt(self.N)
        F = F1
        for _ in range(self.n - 1):
            F = np.kron(F, F1)
        return F


@dataclass
class RepContext:
    """A prepared representation: T, S = T + T^sigma, the normalizing phi, grids."""

    space: SymplecticSpace
    T: np.ndarray
    S: np.ndarray
    phi: np.ndarray
    detS: float
    config: ConfigGrid
    phase_grid: PhaseGrid

    @property
    def Sinv(self):
        return np.linalg.inv(self.S)

    def lam_values(self, pts):
        """lambda(xi) = e^{-(i/2) sigma(xi, T xi)} on an array of points."""
        return np.exp(-0.5j * sigma_eval(self.space, pts, pts @ self.T.T))


def build_rep_context(space, T, config):
    """Gate nondegeneracy, factor S, and package the representation data."""
    T = np.asarray(T, dtype=float)
    gate = nondegeneracy_gate(space, T)
    if not gate.nondegenerate:
        raise ValueError(
            "degenerate multiplier: T + T^sigma is singular; kernel witness "
            f"{np.array2string(gate.kernel_witness, precision=6)}")
    phi = factor_sigma_symmetric(space, gate.S)
    if np.abs(phi.T @ space.J @ phi - space.J @ gate.S).max() > 1e-9:
        raise ArithmeticError("phi does not normalize the S-twisted form")
    if gate.detS <= 0:
        raise ArithmeticError("det S must be positive for sigma-symmetric invertible S")
    return RepContext(space=space, T=T, S=gate.S, phi=phi, detS=gate.detS,
                      config=config, phase_grid=PhaseGrid(space.n, config.N))


def weyl_standard(config, xi):
    """The standard Weyl unitary W_std(y, p) for xi = (y, p), y, p in R^n."""
    xi = np.asarray(xi, dtype=float)
    n = config.n
    y, p = xi[:n], xi[n:]
    x = config.coords()
    F = config.dft()
    shift = F.conj().T @ (np.exp(-1j * (x @ y))[:, None] * F)
    mod = np.exp(1j * ((x - y / 2) @ p))
    return mod[:, None] * shift


def weyl_tilde(ctx, xi):
    """W_tilde(xi) = W_std(phi xi): the normalized (Weyl-relation) system."""
    return weyl_standard(ctx.config, ctx.phi @ np.asarray(xi, dtype=float))


def weyl_W(ctx, xi):
    """W(xi) = e^{-(i/2) sigma(xi, T xi)} W_tilde(xi): the omega-representation."""
    xi = np.asarray(xi, dtype=float)
    lam = np.exp(-0.5j * sigma_eval(ctx.space, xi, ctx.T @ xi))
    return lam * weyl_tilde(ctx, xi)


def u_conjugator(ctx, xi):
    """U(xi) = W_tilde(S^{-1} xi): the translation-covariance conjugator."""
    return weyl_tilde(ctx, ctx.Sinv @ np.asarray(xi, dtype=float))


def field_generator(ctx, xi, t_step=1e-4):
    """Central-difference generator of the one-parameter group t -> W_tilde(t xi)."""
    if not (0 < t_step <= 1e-3):
        raise ValueError("t_step must lie in (0, 1e-3]")
    xi = np.asarray(xi, dtype=float)
    Wp = weyl_standard(ctx.config, ctx.phi @ (t_step * xi))
    Wm = weyl_standard(ctx.config, ctx.phi @ (-t_step * xi))
    return (Wp - Wm) / (2j * t_step)


def u_conjugator_batch(ctx, pts):
    """Stack of U(xi) over an array of phase points, shape (P, M, M).

    The dense reference: one explicit M x M unitary per point, O(M^3) each.
    The averaging sums use the shift-grouped kernel instead and are tested
    against this stack.
    """
    return np.stack([u_conjugator(ctx, xi) for xi in np.asarray(pts, dtype=float)])


def _distinct_rows(a):
    """np.unique(a, axis=0, return_inverse=True) through one lexsort."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.ones(len(a), bool)
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    inv = np.empty(len(a), np.intp)
    inv[order] = np.cumsum(new) - 1
    return s[new], inv


_CHUNK_ELEMS = 1 << 22  # element budget of one chunk of _shift_chunks


def _shift_chunks(config, pts, A):
    """Chunks of whole shift groups of the points, for W_std(A xi).

    With (y, p) = A xi, W_std(y, p) = e^{-i<y, p>/2} Mod(p) Shift(y), and on
    the self-dual grid Shift(y) = F^* diag(r_y) F, r_y = e^{-i<k, y>}, is
    circulant: Shift(y)[a, b] = c_y[a - b] per axis mod N, for every real y.
    y and p are grouped by exact equality, which assumes nothing about A.
    Each chunk yields (sel, ip, iy, phase, E, C, R): its points sel, their
    columns ip of E = e^{i x p^T} over the chunk's distinct p, their rows iy
    of C[y] = c_y (centred order) and R[y] = r_y, and e^{-i<y, p>/2}.  A chunk
    holds at most M shifts, and at most _CHUNK_ELEMS / M points unless all the
    distinct p fit that budget, so its arrays stay within max(_CHUNK_ELEMS, M^2).
    """
    n, N, M = config.n, config.N, config.M
    x = config.coords()
    eta = np.asarray(pts, dtype=float) @ np.asarray(A, dtype=float).T
    ys, iy = _distinct_rows(eta[:, :n])
    ps, ip = _distinct_rows(eta[:, n:])
    order = np.argsort(iy, kind="stable")
    starts = np.searchsorted(iy[order], np.arange(len(ys) + 1))
    max_y = max(1, min(M, _CHUNK_ELEMS // M))
    max_pts = len(iy) if len(ps) * M <= _CHUNK_ELEMS else _CHUNK_ELEMS // M
    axes = tuple(range(1, n + 1))
    y0 = 0
    while y0 < len(ys):
        y1 = max(y0 + 1, min(y0 + max_y, np.searchsorted(
            starts, starts[y0] + max_pts, "right") - 1))
        sel = order[starts[y0]:starts[y1]]
        pu, ipl = np.unique(ip[sel], return_inverse=True)
        phase = np.exp(-0.5j * (ys[iy[sel]] * ps[ip[sel]]).sum(1))
        R = np.exp(-1j * (ys[y0:y1] @ x.T))
        C = _ord_ift(R.reshape((-1,) + (N,) * n), axes).reshape(-1, M)
        yield sel, ipl, iy[sel] - y0, phase, np.exp(1j * (x @ ps[pu].T)), C, R
        y0 = y1


def _synthesize(ctx, g_flat):
    """sum_xi g(xi) W_std(phi xi) over the phase grid, for any n and phi.

    Op[a, b] = G[a, a - b + N/2] (the centred diagonals of G) with
    G = sum over chunks of E (Gm C), Gm[p, y] = g(xi) e^{-i<y, p>/2}.  Where
    the points are the product of their distinct y and p (every n = 1 map,
    block-diagonal phi at n = 2) this costs O(M^3).
    """
    config = ctx.config
    G = np.zeros((config.M, config.M), complex)
    for sel, ip, iy, phase, E, C, _ in _shift_chunks(config, ctx.phase_grid.points(),
                                                     ctx.phi):
        Gm = np.zeros((E.shape[1], C.shape[0]), complex)
        Gm[ip, iy] = g_flat[sel] * phase
        G += E @ (Gm @ C)
    return _centred_diagonals(G, config.n, config.N)


def _analyze(config, pts, A, B):
    """tr(W_std(A xi)^* B) at every point: the adjoint of the synthesis.

    With D the centred diagonals of B, the value at xi is
    (E^* D C^*)[p, y] e^{i<y, p>/2}, so vdot(sum_xi g W_std(A xi), B) equals
    vdot(g, _analyze(config, pts, A, B)) for every n and A.
    """
    D = _centred_diagonals(np.asarray(B, dtype=complex), config.n, config.N)
    out = np.empty(len(pts), complex)
    for sel, ip, iy, phase, E, C, _ in _shift_chunks(config, pts, A):
        out[sel] = (E.conj().T @ D @ C.conj().T)[ip, iy] * phase.conj()
    return out


def orthogonality_integral(ctx, phi_v, psi_v):
    """Grid integral of |<phi_v, U(xi) psi_v>|^2 over the whole phase grid.

    For unit vectors this approximates (det S)^{1/2} ||phi||^2 ||psi||^2.
    Each coefficient is conj(tr(U(xi)^* phi_v psi_v^*)), U(xi) = W_std(phi S^{-1} xi).
    """
    vals = _analyze(ctx.config, ctx.phase_grid.points(), ctx.phi @ ctx.Sinv,
                    np.outer(phi_v, np.conj(psi_v)))
    return float(np.sum(np.abs(vals) ** 2)) * ctx.phase_grid.weight


def matrix_coefficient(ctx, phi_v, psi_v):
    """Sample w(xi) = <phi_v, W(xi) psi_v> = lam(xi) conj(tr(W_std(phi xi)^*
    phi_v psi_v^*)) over the whole phase grid; no unitary is materialized."""
    grid = ctx.phase_grid
    pts = grid.points()
    vals = _analyze(ctx.config, pts, ctx.phi, np.outer(phi_v, np.conj(psi_v)))
    return GridFunction(grid, ctx.lam_values(pts) * np.conj(vals))
