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

One chunked kernel serves every sum over W_std(A xi): _shift_chunks groups
the grid points by shift and modulation and cuts the groups into chunks;
_synthesize sums g(xi) W_std(phi xi) over them, _analyze, its exact adjoint,
takes tr(W_std(A xi)^* B) at each of them, and _accumulate sums
b(xi) U(xi) G U(xi)^* over those of A = phi S^{-1}.

The chunks depend on the grid and A only, so they are built once per (grid,
bytes of A, _CHUNK_ELEMS), on first use, and kept read-only in the module's
shift-plan cache: at most 8 plans of 32 MiB in all, the least recently used
evicted first.  Every chunk is laid out before any is built, so a plan's size
is exact before it is built; a plan over 32 MiB is streamed and holds no chunk.
A diagonal map's plan is 0.16 MiB at N = 48 and 4.5 MiB at N = 256 (n = 1) or
N = 16 (n = 2); the coupled n = 2 map of the tests at N = 12 has a streamed
45.3 MiB plan of phi and a kept 20.6 MiB plan of A, the one that
orthogonality_integral and _accumulate share.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .cocycle import MultiplierContext, coboundary
from .grid import (_PLAN_BYTES, _PLAN_ENTRIES, GridFunction, PhaseGrid, _PlanCache,
                   _centred_diagonals, _ord_ft, _ord_ift)
from .symplin import factor_sigma_symmetric, nondegeneracy_gate


# The configuration lattice is the first n axes of the phase grid.  The old name
# stays because the benchmark workloads build contexts from ConfigGrid(n, N).
ConfigGrid = PhaseGrid


@dataclass(frozen=True)
class RepContext(MultiplierContext):
    """A prepared representation: the multiplier data of T with S = T + T^sigma
    as the nondegeneracy gate computed it, the normalizing phi, det S and the
    phase grid."""

    S: np.ndarray
    phi: np.ndarray
    detS: float
    phase_grid: PhaseGrid

    def __post_init__(self):
        pass  # S is given, not derived from T a second time

    @functools.cached_property
    def Sinv(self):
        return np.linalg.inv(self.S)

    @functools.cached_property
    def A(self):
        """phi S^{-1}: U(xi) = W_std(A xi)."""
        return self.phi @ self.Sinv

    @functools.cached_property
    def lam(self):
        """lambda(xi) = e^{-(i/2) sigma(xi, T xi)} = conj(mu(xi)) at every
        phase-grid point, flat and read-only: 16 N^{2n} bytes, on first use."""
        lam = np.conj(coboundary(self, self.phase_grid.points()))
        lam.flags.writeable = False
        return lam


def build_rep_context(space, T, grid):
    """Gate nondegeneracy, factor S, and package the representation data."""
    if grid.n != space.n:
        raise ValueError(f"grid has n={grid.n} but the phase space has n={space.n}")
    T = np.asarray(T, dtype=float)
    gate = nondegeneracy_gate(space, T)
    if not gate.nondegenerate:
        if gate.kernel_witness is None:
            raise ValueError("S = T + T^sigma is not finite: T is too large to represent S")
        raise ValueError(
            "degenerate multiplier: T + T^sigma is singular; kernel witness "
            f"{np.array2string(gate.kernel_witness, precision=6)}")
    if not 0 < gate.detS < np.inf:
        raise ArithmeticError(f"det S = {gate.detS:g} must be positive and finite")
    phi = factor_sigma_symmetric(space, gate.S)
    return RepContext(space=space, T=T, S=gate.S, phi=phi, detS=gate.detS,
                      phase_grid=grid)


def weyl_standard(grid, xi):
    """The standard Weyl unitary W_std(y, p) for xi = (y, p), y, p in R^n."""
    xi = np.asarray(xi, dtype=float)
    n = grid.n
    y, p = xi[:n], xi[n:]
    x = grid.coords()
    F = grid.dft()
    shift = F.conj().T @ (np.exp(-1j * (x @ y))[:, None] * F)
    mod = np.exp(1j * ((x - y / 2) @ p))
    return mod[:, None] * shift


def weyl_tilde(ctx, xi):
    """W_tilde(xi) = W_std(phi xi): the normalized (Weyl-relation) system."""
    return weyl_standard(ctx.phase_grid, ctx.phi @ np.asarray(xi, dtype=float))


def weyl_W(ctx, xi):
    """W(xi) = e^{-(i/2) sigma(xi, T xi)} W_tilde(xi): the omega-representation."""
    return np.conj(coboundary(ctx, xi)) * weyl_tilde(ctx, xi)


def u_conjugator(ctx, xi):
    """U(xi) = W_tilde(S^{-1} xi): the translation-covariance conjugator."""
    return weyl_tilde(ctx, ctx.Sinv @ np.asarray(xi, dtype=float))


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


def _shift_chunks(grid, A):
    """(nbytes, chunks): the chunks of whole shift groups of the grid points
    for W_std(A xi), and the exact array bytes of all of them.

    The points are grouped by exact equality of (y, p) = A xi, which assumes
    nothing about A.  W_std(y, p) = e^{-i<y, p>/2} Mod(p) Shift(y), and on the
    self-dual grid Shift(y) = F^* diag(r_y) F, r_y = e^{-i<k, y>}, is
    circulant: Shift(y)[a, b] = c_y[a - b] per axis mod N, for every real y.
    Each chunk is (sel, ip, iy, phase, E, C): its points sel, their columns ip
    of E = e^{i x p^T} over the chunk's distinct p, their rows iy of
    C[y] = c_y (centred order), and e^{-i<y, p>/2}.  A chunk holds at most M
    shifts, and at most _CHUNK_ELEMS / M points unless all the distinct p fit
    that budget, so its arrays stay within max(_CHUNK_ELEMS, M^2).

    Every chunk is laid out before any is built, so nbytes is exact: 40 per
    point, 16 M per distinct y (its row of C) and 16 M per column of E,
    summed over the chunks.
    """
    n, N, M = grid.n, grid.N, grid.M
    x = grid.coords()
    eta = grid.points() @ np.asarray(A, dtype=float).T
    (ys, iy), (ps, ip) = _distinct_rows(eta[:, :n]), _distinct_rows(eta[:, n:])
    order = np.argsort(iy, kind="stable")
    starts = np.searchsorted(iy[order], np.arange(len(ys) + 1))
    max_y = max(1, min(M, _CHUNK_ELEMS // M))
    max_pts = len(iy) if len(ps) * M <= _CHUNK_ELEMS else _CHUNK_ELEMS // M
    layout, y0 = [], 0
    while y0 < len(ys):
        y1 = max(y0 + 1, min(y0 + max_y, np.searchsorted(
            starts, starts[y0] + max_pts, "right") - 1))
        sel = order[starts[y0]:starts[y1]]
        layout.append((y0, y1, sel) + tuple(np.unique(ip[sel], return_inverse=True)))
        y0 = y1
    nbytes = 40 * len(iy) + 16 * M * (len(ys) + sum(len(pu) for *_, pu, _ in layout))

    def chunks():
        axes = tuple(range(1, n + 1))
        for y0, y1, sel, pu, ipl in layout:
            phase = np.exp(-0.5j * (ys[iy[sel]] * ps[ip[sel]]).sum(1))
            R = np.exp(-1j * (ys[y0:y1] @ x.T))
            C = _ord_ift(R.reshape((-1,) + (N,) * n), axes).reshape(-1, M)
            E = 1j * (x @ ps[pu].T)
            yield sel, ipl, iy[sel] - y0, phase, np.exp(E, out=E), C

    return nbytes, chunks()


_SHIFT_PLANS = _PlanCache(_PLAN_ENTRIES, _PLAN_BYTES)


def _grid_chunks(grid, A):
    """The chunks of _shift_chunks over the whole phase grid: the cached plan,
    or the plan built and kept when its exact size fits the cache, or else the
    chunks streamed one at a time, none of them held."""
    A = np.asarray(A, dtype=float)
    key = (grid, A.tobytes(), _CHUNK_ELEMS)
    plan = _SHIFT_PLANS.get(key)
    if plan is None:
        nbytes, plan = _shift_chunks(grid, A)
        if nbytes <= _SHIFT_PLANS.nbytes:
            plan = tuple(plan)
            _SHIFT_PLANS.put(key, plan)
    return plan


def _synthesize(ctx, g_flat):
    """sum_xi g(xi) W_std(phi xi) over the phase grid, for any n and phi.

    Op[a, b] = G[a, a - b + N/2] (the centred diagonals of G) with
    G = sum over chunks of E (Gm C), Gm[p, y] = g(xi) e^{-i<y, p>/2}.  Where
    the points are the product of their distinct y and p (every n = 1 map,
    block-diagonal phi at n = 2) this costs O(M^3).
    """
    grid = ctx.phase_grid
    G = np.zeros((grid.M, grid.M), complex)
    for sel, ip, iy, phase, E, C in _grid_chunks(grid, ctx.phi):
        Gm = np.zeros((E.shape[1], C.shape[0]), complex)
        Gm[ip, iy] = g_flat[sel] * phase
        G += E @ (Gm @ C)
    return _centred_diagonals(G, grid.n, grid.N)


def _analyze(grid, A, B):
    """tr(W_std(A xi)^* B) at every grid point: the adjoint of the synthesis.

    With D the centred diagonals of B, the value at xi is
    (E^* D C^*)[p, y] e^{i<y, p>/2}, so vdot(sum_xi g W_std(A xi), B) equals
    vdot(g, _analyze(grid, A, B)) for every n and A.
    """
    D = _centred_diagonals(np.asarray(B, dtype=complex), grid.n, grid.N)
    out = np.empty(grid.N ** grid.dim, complex)
    for sel, ip, iy, phase, E, C in _grid_chunks(grid, A):
        out[sel] = (E.conj().T @ D @ C.conj().T)[ip, iy] * phase.conj()
    return out


def _accumulate(ctx, bv, G):
    """sum_xi b(xi) U(xi) G U(xi)^* over the phase grid, U(xi) = W_std(A xi),
    for any n and A = phi S^{-1}, with b given at the grid points by bv.

    The phase of U(xi) cancels, so the sum runs over the shifts y of the
    A-plan: sum_y (Shift(y) G Shift(y)^*) o B_y with B_y = E_y diag(b) E_y^*
    over the points of y, Shift(y) = F^* diag(r_y) F and r_y the centred DFT
    of c_y.  A shift whose densities are all zero is skipped.
    """
    grid = ctx.phase_grid
    axes = tuple(range(1, grid.n + 1))
    F = grid.dft()
    Fh = F.conj().T
    Ghat = F @ G @ Fh
    acc = np.zeros_like(G)
    for sel, ip, iy, _, E, C in _grid_chunks(grid, ctx.A):
        R = _ord_ft(C.reshape((-1,) + (grid.N,) * grid.n), axes).reshape(C.shape)
        bounds = np.searchsorted(iy, np.arange(len(R) + 1))
        for r, lo, hi in zip(R, bounds[:-1], bounds[1:]):
            b = bv[sel[lo:hi]]
            if not b.any():
                continue
            X = Fh @ (r[:, None] * Ghat * r.conj()[None, :]) @ F
            Ey = E[:, ip[lo:hi]]
            acc += X * ((Ey * b) @ Ey.conj().T)
    return acc


def orthogonality_integral(ctx, phi_v, psi_v):
    """Grid integral of |<phi_v, U(xi) psi_v>|^2 over the whole phase grid.

    For unit vectors this approximates (det S)^{1/2} ||phi||^2 ||psi||^2.
    Each coefficient is conj(tr(U(xi)^* phi_v psi_v^*)), U(xi) = W_std(phi S^{-1} xi).
    """
    vals = _analyze(ctx.phase_grid, ctx.A, np.outer(phi_v, np.conj(psi_v)))
    return float(np.sum(np.abs(vals) ** 2)) * ctx.phase_grid.weight


def matrix_coefficient(ctx, phi_v, psi_v):
    """Sample w(xi) = <phi_v, W(xi) psi_v> = lam(xi) conj(tr(W_std(phi xi)^*
    phi_v psi_v^*)) over the whole phase grid; no unitary is materialized."""
    grid = ctx.phase_grid
    vals = _analyze(grid, ctx.phi, np.outer(phi_v, np.conj(psi_v)))
    return GridFunction(grid, ctx.lam * np.conj(vals))
