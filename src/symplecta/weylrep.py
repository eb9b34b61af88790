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

One chunked kernel serves every sum over W_std(A xi): _shift_groups groups the
points by shift and modulation, _shift_chunks cuts the groups into chunks,
_synthesize sums g(xi) W_std(phi xi) over them and _analyze, its exact
adjoint, takes tr(W_std(A xi)^* B) at each of them.

The chunks over the whole phase grid depend on the grid and A only, so they
are built once per (grid, bytes of A, _CHUNK_ELEMS), on first use, and kept
read-only in the module's shift-plan cache: at most 8 plans of 32 MiB in all,
the least recently used evicted first.  A plan that cannot fit is streamed
chunk by chunk and not kept: before the first chunk is built, its size is
bounded below from the counts of points, distinct shifts and distinct
modulations, and a plan whose bound exceeds 32 MiB holds no chunk; one that
outgrows 32 MiB while it is built drops those it holds.  A diagonal map's
plan is 0.16 MiB at N = 48 and 4.5 MiB at N = 256 (n = 1) or N = 16 (n = 2);
a coupled n = 2 map at N = 16 takes up to 246 MiB (bounded below by
34.5 MiB) and is never kept.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .cocycle import MultiplierContext, coboundary
from .grid import (_PLAN_BYTES, _PLAN_ENTRIES, GridFunction, PhaseGrid, _PlanCache,
                   _centred_diagonals, _ord_ift)
from .symplin import factor_sigma_symmetric, nondegeneracy_gate


# The configuration lattice is the first n axes of the phase grid.  The old name
# stays because the benchmark workloads and the package exports build contexts
# from ConfigGrid(n, N).
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

    def lam_values(self, pts):
        """lambda(xi) = e^{-(i/2) sigma(xi, T xi)}, the conjugate of the
        coboundary mu, on an array of points."""
        return np.conj(coboundary(self, pts))


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
    return ctx.lam_values(np.asarray(xi, dtype=float)) * weyl_tilde(ctx, xi)


def u_conjugator(ctx, xi):
    """U(xi) = W_tilde(S^{-1} xi): the translation-covariance conjugator."""
    return weyl_tilde(ctx, ctx.Sinv @ np.asarray(xi, dtype=float))


def field_generator(ctx, xi, t_step=1e-4):
    """Central-difference generator of the one-parameter group t -> W_tilde(t xi)."""
    if not (0 < t_step <= 1e-3):
        raise ValueError("t_step must lie in (0, 1e-3]")
    xi = np.asarray(xi, dtype=float)
    return (weyl_tilde(ctx, t_step * xi) - weyl_tilde(ctx, -t_step * xi)) / (2j * t_step)


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


def _shift_groups(grid, pts, A):
    """(ys, iy, ps, ip): with (y, p) = A xi over the points, the distinct y
    and p and each point's index into them, grouped by exact equality, which
    assumes nothing about A."""
    n = grid.n
    eta = np.asarray(pts, dtype=float) @ np.asarray(A, dtype=float).T
    return _distinct_rows(eta[:, :n]) + _distinct_rows(eta[:, n:])


def _plan_bytes_floor(grid, groups):
    """A lower bound on the array bytes of the chunks of _shift_chunks over
    groups, without R: 40 per point (sel, ip, iy, phase), and 16 M per
    distinct y (its row of C) and per distinct p (a column of E in at least
    one chunk)."""
    ys, iy, ps, _ = groups
    return 40 * len(iy) + 16 * grid.M * (len(ys) + len(ps))


def _shift_chunks(grid, groups):
    """Chunks of whole shift groups of the points, for W_std(A xi), from
    their _shift_groups.

    With (y, p) = A xi, W_std(y, p) = e^{-i<y, p>/2} Mod(p) Shift(y), and on
    the self-dual grid Shift(y) = F^* diag(r_y) F, r_y = e^{-i<k, y>}, is
    circulant: Shift(y)[a, b] = c_y[a - b] per axis mod N, for every real y.
    Each chunk yields (sel, ip, iy, phase, E, C, R): its points sel, their
    columns ip of E = e^{i x p^T} over the chunk's distinct p, their rows iy
    of C[y] = c_y (centred order) and R[y] = r_y, and e^{-i<y, p>/2}.  A chunk
    holds at most M shifts, and at most _CHUNK_ELEMS / M points unless all the
    distinct p fit that budget, so its arrays stay within max(_CHUNK_ELEMS, M^2).
    """
    n, N, M = grid.n, grid.N, grid.M
    x = grid.coords()
    ys, iy, ps, ip = groups
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


_SHIFT_PLANS = _PlanCache(_PLAN_ENTRIES, _PLAN_BYTES)


def _grid_chunks(grid, A):
    """The chunks of _shift_chunks over the whole phase grid, without R: from
    the shift-plan cache, or built as they are consumed and then kept if they
    fit.  A plan whose _plan_bytes_floor already exceeds the cache is streamed
    without holding a chunk."""
    A = np.asarray(A, dtype=float)
    key = (grid, A.tobytes(), _CHUNK_ELEMS)
    plan = _SHIFT_PLANS.get(key)
    if plan is not None:
        yield from plan
        return
    groups = _shift_groups(grid, grid.points(), A)
    kept = [] if _plan_bytes_floor(grid, groups) <= _SHIFT_PLANS.nbytes else None
    size = 0
    for chunk in _shift_chunks(grid, groups):
        chunk = chunk[:-1]
        size += sum(a.nbytes for a in chunk)
        if kept is not None and size <= _SHIFT_PLANS.nbytes:
            kept.append(chunk)
        else:
            kept = None
        yield chunk
    if kept is not None:
        _SHIFT_PLANS.put(key, tuple(kept))


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
    return GridFunction(grid, ctx.lam_values(grid.points()) * np.conj(vals))
