"""Symplectic linear algebra on (R^{2n}, sigma).

The form is sigma(xi, eta) = xi^T J eta.  In the default coordinates
(x_1..x_n, k_1..k_n) the form is sigma((x,k),(y,p)) = <y,k> - <x,p>, i.e.
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


def _default_J(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


@dataclass(frozen=True)
class SymplecticSpace:
    """An even-dimensional real vector space with an antisymmetric invertible form."""

    n: int
    J: np.ndarray = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.J is None:
            object.__setattr__(self, "J", _default_J(self.n))
        J = np.asarray(self.J, dtype=float)
        if J.shape != (2 * self.n, 2 * self.n):
            raise ValueError("J must be 2n x 2n")
        if np.abs(J + J.T).max() != 0.0:
            raise ValueError("J must be exactly antisymmetric")
        if abs(np.linalg.det(J)) == 0.0:
            raise ValueError("J must be invertible")
        object.__setattr__(self, "J", J)

    @property
    def dim(self):
        return 2 * self.n


@dataclass(frozen=True)
class BilinearForm:
    """A real bilinear form B(u, v) = u^T B v with a declared symmetry kind."""

    B: np.ndarray
    kind: str  # "antisymmetric" | "symmetric" | "inner-product"

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "B", B)
        if self.kind == "antisymmetric":
            if np.abs(B + B.T).max() > 1e-12:
                raise ValueError("form is not antisymmetric")
        elif self.kind in ("symmetric", "inner-product"):
            if np.abs(B - B.T).max() > 1e-12:
                raise ValueError("form is not symmetric")
            if self.kind == "inner-product":
                if np.linalg.eigvalsh(B).min() <= 0:
                    raise ValueError("inner-product form must be positive definite")
        else:
            raise ValueError(f"unknown form kind {self.kind!r}")


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

    When S is singular by _singular, a unit kernel witness xi with
    ||S xi|| <= tolerance is returned (e_0 when S = 0); such a xi has
    e^{i sigma(xi, T eta)} symmetric in its arguments for every eta.
    """
    T = np.asarray(T, dtype=float)
    S = T + symplectic_adjoint(space, T)
    nondeg = not _singular(S)
    witness = None
    if not nondeg:
        witness = np.linalg.svd(S)[2][-1] if S.any() else np.eye(space.dim)[0]
    return GateResult(S=S, detS=float(np.linalg.det(S)), nondegenerate=nondeg,
                      kernel_witness=witness)


def symplectic_basis(space, Omega):
    """Find B with B^T Omega B = J (the default block form) by symplectic Gram-Schmidt.

    Greedy pairing: take the first remaining vector u whose Omega-pairing with
    another remaining vector is nonzero, pick the partner v with the largest
    |Omega(u, v)| (ties to the lowest index), rescale so Omega(u, v) matches the
    target entry of J, and project the pair out of the rest.  Deterministic.
    """
    if isinstance(Omega, BilinearForm):
        if Omega.kind != "antisymmetric":
            raise ValueError("symplectic_basis needs an antisymmetric form")
        Om = Omega.B
    else:
        Om = np.asarray(Omega, dtype=float)
    d = space.dim
    if _singular(Om):
        raise ValueError("degenerate antisymmetric form")

    def pair(u, v):
        return float(u @ Om @ v)

    remaining = [np.eye(d)[:, i].copy() for i in range(d)]
    a_cols, b_cols = [], []
    while remaining:
        u = remaining.pop(0)
        vals = [abs(pair(u, wv)) for wv in remaining]
        j = int(np.argmax(vals))
        if vals[j] <= _RANK_RTOL:
            raise ValueError("form is degenerate on the working subspace")
        v = remaining.pop(j)
        # target: with columns ordered (a_1..a_n, b_1..b_n), J requires
        # Omega(a_i, b_i) = J[i, n+i] = -1.
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
    it is not unique and only the defining identity is contractual.
    """
    S = np.asarray(S, dtype=float)
    Ssig = symplectic_adjoint(space, S)
    if np.abs(S - Ssig).max() > 1e-10:
        raise ValueError("S is not sigma-symmetric")
    if _singular(S):
        raise ValueError("S is singular")
    B = symplectic_basis(space, space.J @ S)
    phi = np.linalg.inv(B)
    res = np.abs(symplectic_adjoint(space, phi) @ phi - S).max()
    if res > 1e-9:
        raise ArithmeticError(f"factorization residual {res:.3e}")
    return phi


def compatible_from_inner(space, g):
    """Build a compatible complex structure from an inner product.

    Solves sigma(u, v) = g(A u, v) for A, then normalizes by the polar
    decomposition in g-orthonormal coordinates: Jc = A (A^T A)^{-1/2} there.
    Returns (Jc, gJ) where gJ(u, v) = sigma(u, Jc v) is again an inner product
    and Jc^2 = -I.
    """
    if isinstance(g, BilinearForm):
        if g.kind != "inner-product":
            raise ValueError("g must be an inner product")
        G = g.B
    else:
        G = np.asarray(g, dtype=float)
        if np.abs(G - G.T).max() > 1e-12 or np.linalg.eigvalsh(G).min() <= 0:
            raise ValueError("g must be symmetric positive definite")
    # sigma(u,v) = u^T J v = (A u)^T G v  =>  A^T G = J  =>  A = G^{-1} J^T
    A = np.linalg.solve(G, space.J.T)
    M = np.linalg.cholesky(G).T  # G = M^T M, g-orthonormal coords via M
    At = M @ A @ np.linalg.inv(M)
    # polar unitary factor of the g-skew matrix At
    U_, s_, Vt_ = np.linalg.svd(At)
    Jt = U_ @ Vt_
    Jc = np.linalg.inv(M) @ Jt @ M
    if np.abs(Jc @ Jc + np.eye(space.dim)).max() > 1e-10:
        raise ArithmeticError("compatible structure does not square to -I")
    gJ = space.J @ Jc
    gJ = 0.5 * (gJ + gJ.T)  # symmetrize roundoff
    return Jc, BilinearForm(gJ, "inner-product")
