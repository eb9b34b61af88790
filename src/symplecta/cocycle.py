"""Schur multipliers attached to a linear map T and the regular projective
representation on phase-space grid functions.

omega(xi, eta) = e^{i sigma(xi, T eta)} is a 2-cocycle for every T; its
normalized companion omega_tilde(xi, eta) = e^{(i/2) sigma(xi, S eta)} with
S = T + T^sigma differs from omega by the coboundary of
mu(xi) = e^{(i/2) sigma(xi, T xi)}.  Nondegeneracy of the multiplier is
equivalent to invertibility of S.  The residuals of both identities take their
samples as one (k, 3, 2n) or (k, 2, 2n) array, or any iterable of such
samples, and evaluate them in one vectorized pass; an empty set raises.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, _lattice_index, translate
from .symplin import SymplecticSpace, sigma_eval, symplectic_adjoint


@dataclass(frozen=True)
class MultiplierContext:
    """The multiplier data of T; S = T + T^sigma is derived from T."""

    space: SymplecticSpace
    T: np.ndarray
    S: np.ndarray = field(init=False)

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "S", T + symplectic_adjoint(self.space, T))


def omega(ctx, xi, eta):
    """The multiplier e^{i sigma(xi, T eta)}; supports batched arguments."""
    eta = np.asarray(eta, dtype=float)
    return np.exp(1j * sigma_eval(ctx.space, xi, eta @ ctx.T.T))


def omega_tilde(ctx, xi, eta):
    """The normalized multiplier e^{(i/2) sigma(xi, S eta)}."""
    eta = np.asarray(eta, dtype=float)
    return np.exp(0.5j * sigma_eval(ctx.space, xi, eta @ ctx.S.T))


def coboundary(ctx, xi):
    """mu(xi) = e^{(i/2) sigma(xi, T xi)}: the coboundary linking the two multipliers."""
    xi = np.asarray(xi, dtype=float)
    return np.exp(0.5j * sigma_eval(ctx.space, xi, xi @ ctx.T.T))


def _stack_samples(samples, dtype=float):
    """The samples as one array, sample index first: an ndarray of them or any
    iterable of them (a list of tuples, a generator).  An empty set raises."""
    arr = np.asarray(list(samples), dtype=dtype)
    if not len(arr):
        raise ValueError("empty sample list")
    return arr


def coboundary_residual(ctx, samples):
    """Max over (xi, eta) samples, shape (k, 2, 2n), of
    |omega_tilde/omega - mu(xi) mu(eta)/mu(xi+eta)|."""
    xi, eta = np.moveaxis(_stack_samples(samples), 1, 0)
    lhs = omega_tilde(ctx, xi, eta) / omega(ctx, xi, eta)
    rhs = coboundary(ctx, xi) * coboundary(ctx, eta) / coboundary(ctx, xi + eta)
    return float(np.abs(lhs - rhs).max())


def cocycle_residual(ctx, triples):
    """Max residual over (xi, eta, zeta) samples, shape (k, 3, 2n), of the
    cocycle equation om(xi,eta)om(xi+eta,zeta) = om(xi,eta+zeta)om(eta,zeta)."""
    xi, eta, zeta = np.moveaxis(_stack_samples(triples), 1, 0)
    lhs = omega(ctx, xi, eta) * omega(ctx, xi + eta, zeta)
    rhs = omega(ctx, xi, eta + zeta) * omega(ctx, eta, zeta)
    return float(np.abs(lhs - rhs).max())


def regular_representation(ctx, xi, f):
    """(R(xi) f)(eta) = omega(eta, xi) f(eta + xi) with periodic wraparound:
    omega(., xi) times the translate of f by -xi.

    xi must be a lattice point of f's grid (exact roll); the result is unitary
    on the grid inner product and satisfies R(xi)R(eta) = omega(xi,eta)R(xi+eta).
    """
    grid = f.grid
    xi = np.asarray(xi, dtype=float)
    if _lattice_index(xi / grid.h) is None:
        raise ValueError("off-grid xi; use a lattice point (grid.translate "
                         "shifts by any xi)")
    pts = grid.points()
    phase = omega(ctx, pts, np.broadcast_to(xi, pts.shape)).reshape(f.values.shape)
    return GridFunction(grid, phase * translate(-xi, f).values)
