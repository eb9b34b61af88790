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
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, PhaseGrid, _axis, _lattice_points
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


def _shift_groups(config, pts, A):
    """Distinct shifts and modulations of W_std(y, p) over points, (y, p) = A xi.

    W_std(y, p) = e^{-i<y, p>/2} Mod(p) Shift(y) with Mod(p) = diag(e^{i<x, p>})
    and Shift(y) = F^* diag(r) F, r = e^{-i<k, y>}.  Returns (ys, iy, ps, ip):
    the distinct shifts ys (Ny, n), the distinct modulations ps (Np, n) and,
    per point, the index iy of its y in ys and ip of its p in ps.  Values are
    grouped by exact equality, which assumes nothing about A.
    """
    n = config.n
    eta = np.asarray(pts, dtype=float) @ np.asarray(A, dtype=float).T
    ys, iy = _distinct_rows(eta[:, :n])
    ps, ip = _distinct_rows(eta[:, n:])
    return ys, iy, ps, ip


def _per_shift(config, pts, A):
    """For each distinct shift y of _shift_groups: the indices of its points,
    the ramp r (M,) and the modulation columns E = e^{i x p^T} (M, P_y)."""
    ys, iy, ps, ip = _shift_groups(config, pts, A)
    x = config.coords()
    groups = np.split(np.argsort(iy, kind="stable"), np.cumsum(np.bincount(iy))[:-1])
    for y, idx in zip(ys, groups):
        yield idx, np.exp(-1j * (x @ y)), np.exp(1j * (x @ ps[ip[idx]].T))


def _mod_shift_coefficients(ctx, phi_v, psi_v, A):
    """<phi_v, Mod(p) Shift(y) psi_v> at every phase grid point, (y, p) = A xi.

    Each distinct shift costs one inverse transform of psi_v and one dense
    product against the modulations of its points.
    """
    pts = ctx.phase_grid.points()
    F = ctx.config.dft()
    phi_c = np.conj(np.asarray(phi_v, complex).ravel())
    psi_hat = F @ np.asarray(psi_v, complex).ravel()
    vals = np.empty(pts.shape[0], complex)
    for idx, r, E in _per_shift(ctx.config, pts, A):
        vals[idx] = E.T @ (phi_c * (F.conj().T @ (r * psi_hat)))
    return vals


def orthogonality_integral(ctx, phi_v, psi_v):
    """Grid integral of |<phi_v, U(xi) psi_v>|^2 over the whole phase grid.

    For unit vectors this approximates (det S)^{1/2} ||phi||^2 ||psi||^2.  The
    phase e^{-i<y, p>/2} of U(xi) = W_std(phi S^{-1} xi) drops out of |.|^2.
    """
    vals = _mod_shift_coefficients(ctx, phi_v, psi_v, ctx.phi @ ctx.Sinv)
    return float(np.sum(np.abs(vals) ** 2)) * ctx.phase_grid.weight


def matrix_coefficient(ctx, phi_v, psi_v):
    """Sample w(xi) = <phi_v, W(xi) psi_v> over the whole phase grid.

    Uses the split W(xi) = lam(xi) e^{-i<y, p>/2} Mod(p) Shift(y) with
    (y, p) = phi xi, grouped by shift, so no unitary is materialized.
    """
    grid = ctx.phase_grid
    n = grid.n
    pts = grid.points()
    eta = pts @ ctx.phi.T
    half = np.exp(-0.5j * (eta[:, :n] * eta[:, n:]).sum(1))
    vals = _mod_shift_coefficients(ctx, phi_v, psi_v, ctx.phi)
    return GridFunction(grid, ctx.lam_values(pts) * half * vals)
