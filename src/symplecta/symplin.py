"""Symplectic linear algebra on (R^{2n}, sigma).

The form is sigma(xi, eta) = xi^T J eta, the standard one: in the
coordinates (x_1..x_n, k_1..k_n) it is sigma((x,k),(y,p)) = <y,k> - <x,p>, i.e.
J = [[0, -I], [I, 0]] in n x n blocks (for n=1: [[0,-1],[1,0]]).

All maps on W are plain real 2n x 2n matrices; the adjoint with respect to
sigma is T^sigma = J^{-1} T^T J and satisfies
sigma(T^sigma xi, eta) = sigma(xi, T eta).
"""

from dataclasses import dataclass, field

import numpy as np

_RANK_RTOL = 1e-10


def _singular(A):
    """True when A has a non-finite entry or its smallest singular value is at
    most _RANK_RTOL times its largest: a scale-free rank test."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        return True
    svals = np.linalg.svd(A, compute_uv=False)
    return not svals[-1] > _RANK_RTOL * svals[0]


@dataclass(frozen=True)
class SymplecticSpace:
    """(R^{2n}, sigma) with the standard form J, which n fixes (every symplectic
    space is one by Darboux's theorem); two spaces are equal when their n are."""

    n: int
    J: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "J", np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(self.n)))

    @property
    def dim(self):
        return 2 * self.n


def sigma_eval(space, xi, eta):
    """Evaluate the symplectic form sigma(xi, eta) = xi^T J eta."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape[-1] != space.dim or eta.shape[-1] != space.dim:
        raise ValueError("vector length must equal 2n")
    return np.einsum("...a,ab,...b->...", xi, space.J, eta)


def symplectic_adjoint(space, T):
    """Return T^sigma = J^{-1} T^T J, the adjoint of T with respect to sigma."""
    T = np.asarray(T, dtype=float)
    if T.shape != (space.dim, space.dim):
        raise ValueError("map dimension mismatch")
    return np.linalg.solve(space.J, T.T @ space.J)


@dataclass
class GateResult:
    S: np.ndarray
    detS: float
    nondegenerate: bool
    kernel_witness: np.ndarray = None


def nondegeneracy_gate(space, T):
    """Compute S = T + T^sigma and decide invertibility.

    A non-finite S (T + T^sigma overflows) is not representable, so it is
    degenerate without a kernel witness.  When a finite S is singular by
    _singular, a unit kernel witness xi with ||S xi|| <= tolerance is returned
    (e_0 when S = 0); such a xi has e^{i sigma(xi, T eta)} symmetric in its
    arguments for every eta.
    """
    T = np.asarray(T, dtype=float)
    with np.errstate(over="ignore"):
        S = T + symplectic_adjoint(space, T)
    if not np.isfinite(S).all():
        return GateResult(S=S, detS=np.nan, nondegenerate=False)
    nondeg = not _singular(S)
    witness = None
    if not nondeg:
        witness = np.linalg.svd(S)[2][-1] if S.any() else np.eye(space.dim)[0]
    with np.errstate(over="ignore"):  # det S of a huge finite S is inf
        detS = float(np.linalg.det(S))
    return GateResult(S=S, detS=detS, nondegenerate=nondeg, kernel_witness=witness)


def symplectic_basis(space, Om):
    """Find B with B^T Om B = J for an antisymmetric matrix Om, by symplectic
    Gram-Schmidt.

    Greedy pairing: take the first remaining vector u whose Om-pairing with
    another remaining vector is nonzero relative to max|Om|, pick the partner
    v with the largest |Om(u, v)| (ties to the lowest index), rescale so
    Om(u, v) matches the target entry of J, and project the pair out of the
    rest.  Deterministic.
    """
    Om = np.asarray(Om, dtype=float)
    d = space.dim
    if _singular(Om):
        raise ValueError("degenerate antisymmetric form")
    scale = np.abs(Om).max()

    def pair(u, v):
        return float(u @ Om @ v)

    remaining = [np.eye(d)[:, i].copy() for i in range(d)]
    a_cols, b_cols = [], []
    while remaining:
        u = remaining.pop(0)
        vals = [abs(pair(u, wv)) for wv in remaining]
        j = int(np.argmax(vals))
        if vals[j] <= _RANK_RTOL * scale:
            raise ValueError("form is degenerate on the working subspace")
        v = remaining.pop(j)
        # target: with columns ordered (a_1..a_n, b_1..b_n), J requires
        # Om(a_i, b_i) = J[i, n+i] = -1.
        v = v * (-1.0 / pair(u, v))
        puv = pair(u, v)  # = -1
        rest = []
        for wv in remaining:
            wv = wv - (pair(wv, v) / puv) * u + (pair(wv, u) / puv) * v
            rest.append(wv)
        remaining = rest
        a_cols.append(u)
        b_cols.append(v)
    B = np.column_stack(a_cols + b_cols)
    res = np.abs(B.T @ Om @ B - space.J).max()
    if res > 1e-10:
        raise ArithmeticError(f"symplectic Gram-Schmidt residual {res:.3e}")
    return B


def factor_sigma_symmetric(space, S):
    """Factor a sigma-symmetric invertible S as S = phi^sigma phi.

    phi = B^{-1} where B is the symplectic basis of the antisymmetric form
    (u, v) -> sigma(u, S v) (matrix J S); then phi^T J phi = J S, equivalently
    phi^sigma phi = S.  The output is the deterministic Gram-Schmidt factor;
    it is not unique and only the defining identity is contractual.  Both
    checks are relative to max|S|, so a scalar multiple of S factors alike.
    """
    S = np.asarray(S, dtype=float)
    scale = np.abs(S).max()
    if np.abs(S - symplectic_adjoint(space, S)).max() > 1e-10 * scale:
        raise ValueError("S is not sigma-symmetric")
    if _singular(S):
        raise ValueError("S is singular")
    B = symplectic_basis(space, space.J @ S)
    phi = np.linalg.inv(B)
    res = np.abs(symplectic_adjoint(space, phi) @ phi - S).max()
    if res > 1e-9 * scale:
        raise ArithmeticError(f"factorization residual {res:.3e}")
    return phi
