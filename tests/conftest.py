import os

import numpy as np
import pytest

from symplecta.grid import (PhaseGrid, _centred_roll, _gauss_hermite, _lattice_points,
                            _spec_params)
from symplecta.grid import _gaussian as gaussian  # noqa: F401 (shared with the tests)
from symplecta.symplin import SymplecticSpace
from symplecta import katoschatten, weylrep
from symplecta.weylrep import build_rep_context, weyl_standard

SUITE_T = {
    "half": 0.5 * np.eye(2),
    "unit": np.eye(2),
    "upper": np.diag([0.0, 1.0]),
    "diag37": np.diag([0.3, 0.7]),
    "general": np.array([[0.2, 0.5], [-0.3, 0.8]]),
}

# n = 2 map whose phi has a nonzero x-p block: the shift of W_std(phi xi)
# varies with the modulation coordinates of xi
MIXED_T2 = 0.5 * np.eye(4) + 0.2 * np.random.default_rng(0).standard_normal((4, 4))

# n = 2 map whose A = phi S^{-1} has a single off-diagonal entry, of 2.5e-14:
# a coupled map, summed by the shift groups, though A^{-1} is diagonal to 1e-13
NEAR_DIAGONAL_T2 = np.eye(4) + np.diag([1e-13], k=3)

# (T, n, N) inputs small enough to check a grouped sum against the dense
# stack of explicit unitaries
DENSE_ORACLE_CASES = ([pytest.param(SUITE_T[k], 1, 12, id=k) for k in sorted(SUITE_T)]
                      + [pytest.param(0.5 * np.eye(4), 2, 4, id="half-n2"),
                         pytest.param(MIXED_T2, 2, 4, id="mixed-n2"),
                         pytest.param(NEAR_DIAGONAL_T2, 2, 4, id="near-diagonal-n2"),
                         pytest.param(MIXED_T2, 2, 6, id="mixed-n2-N6"),
                         pytest.param(NEAR_DIAGONAL_T2, 2, 6, id="near-diagonal-n2-N6")])


@pytest.fixture(autouse=True)
def empty_plan_caches():
    """Start every test with empty kernel-plan caches, so that no plan built
    by an earlier test hides a build that a test counts."""
    weylrep._SHIFT_PLANS.clear()
    katoschatten._AMBIGUITY_PLANS.clear()


def set_workers(monkeypatch, k):
    """Make the modulation-norm chunk runner see k cores in this process's
    affinity set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                        raising=False)


def make_ctx(T, N=32, n=1):
    return build_rep_context(SymplecticSpace(n), np.asarray(T, dtype=float),
                             PhaseGrid(n, N))


def count_shift_chunks(monkeypatch, budget):
    """Set the element budget of weylrep._shift_chunks; return the list that
    collects every chunk it yields, so a test can tell that the split ran."""
    chunks, shift_chunks = [], weylrep._shift_chunks

    def counted(*args):
        nbytes, built = shift_chunks(*args)

        def collected():
            for chunk in built:
                chunks.append(chunk)
                yield chunk

        return nbytes, collected()

    monkeypatch.setattr(weylrep, "_CHUNK_ELEMS", budget)
    monkeypatch.setattr(weylrep, "_shift_chunks", counted)
    return chunks


def unit_gaussians_1d(N):
    x = (np.arange(N) - N // 2) * np.sqrt(2 * np.pi / N)
    phi = np.exp(-x ** 2 / 2) * (1 + 0.1 * x)
    phi = phi / np.linalg.norm(phi)
    psi = np.exp(-x ** 2 / 2) * (1 - 0.2 * x ** 2)
    psi = psi / np.linalg.norm(psi)
    return phi.astype(complex), psi.astype(complex)


def dense_stft_lp(uvals, chivals, ps, shifts=None):
    """Reference modulation-norm slices: for each shift (flat index, all by
    default) the rolled window is gathered by index, multiplied into the
    centered spectrum and inverse-transformed with the centered shifts."""
    d = uvals.ndim
    N = uvals.shape[0]
    h = np.sqrt(2 * np.pi / N)
    P = N ** d
    axes = tuple(range(1, d + 1))
    uhat = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(uvals))).reshape(-1)
    chif = chivals.reshape(-1)
    grids = np.indices((N,) * d).reshape(d, -1)
    shifts = np.arange(P) if shifts is None else np.asarray(shifts)
    out = {p: np.empty(len(shifts)) for p in ps}
    chunk = max(1, (1 << 20) // P)
    for i0 in range(0, len(shifts), chunk):
        sh = grids[:, shifts[i0:i0 + chunk]]
        src = _centred_roll(grids[:, None, :], sh[:, :, None], N)
        flat = np.ravel_multi_index(tuple(src), (N,) * d)
        V = (chif[flat] * uhat[None, :]).reshape((-1,) + (N,) * d)
        v = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(V, axes=axes), axes=axes),
                            axes=axes).reshape(len(flat), P)
        a = np.abs(v)
        for p in ps:
            if p == np.inf:
                out[p][i0:i0 + chunk] = a.max(axis=1)
            else:
                out[p][i0:i0 + chunk] = (a ** p).sum(axis=1) ** (1.0 / p) * h ** (d / p)
    return out


def dense_window(window, d, N):
    """A WindowSpec sampled from its d-dimensional definition at every lattice
    point, without splitting it into per-axis factors."""
    center, cov, hermite = _spec_params(window, d)
    return _gauss_hermite(_lattice_points(N, d) - center, cov, hermite).reshape((N,) * d)


def dense_modulation_norms(uvals, window, pairs):
    """modulation_norms through dense_stft_lp and the sampled window."""
    d = uvals.ndim
    N = uvals.shape[0]
    h = np.sqrt(2 * np.pi / N)
    slices = dense_stft_lp(uvals, dense_window(window, d, N), {p for p, _ in pairs})
    out = {}
    for p, q in pairs:
        s = slices[p]
        out[(p, q)] = float(s.max() if q == np.inf
                            else (np.sum(s ** q) * h ** d) ** (1.0 / q))
    return out


def synth_fast_1d(ctx, g_flat):
    """Reference n = 1 synthesis sum_xi g(xi) W_std(phi xi) over the phase grid.

    Splitting W_std(y, p) = modulation . F^* D(y) F collapses the double sum
    into two dense N x N products: the modulation/shift phases factor as
    outer products in (x, y) and (x, p).
    """
    config = ctx.phase_grid
    x = config.axis
    F = config.dft()
    eta = ctx.phase_grid.points() @ ctx.phi.T
    gy, gp = eta[:, 0], eta[:, 1]
    gt = g_flat * np.exp(-0.5j * gy * gp)
    T = (np.exp(1j * np.outer(x, gp)) * gt) @ np.exp(-1j * np.outer(x, gy)).T
    return (F.conj().T * T) @ F


def synth_generic(ctx, g_flat):
    """Reference synthesis for any n: one dense W_std(phi xi) per phase point."""
    pts = ctx.phase_grid.points()
    M = ctx.phase_grid.M
    out = np.zeros((M, M), complex)
    for gi, xi in zip(g_flat, pts):
        if gi == 0.0:
            continue
        out += gi * weyl_standard(ctx.phase_grid, ctx.phi @ xi)
    return out


def kernel_route_loop(grid, tau, a):
    """Reference integral-kernel route for T = diag(tau, 1 - tau), n = 1: one
    pass per frequency over the centered difference of every matrix entry."""
    N, h, x = grid.N, grid.h, np.asarray(grid.axis)
    ph = np.exp(1j * np.outer(x, x))
    B1 = (a.values @ ph.T) * (h / (2 * np.pi))
    B1k = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(B1, axes=0), axis=0), axes=0) / N
    ii = np.arange(N)
    DI = ((ii[:, None] - ii[None, :] + N // 2) % N) - N // 2
    tgt = x[:, None] - tau * (DI * h)
    K = np.zeros((N, N), complex)
    for ki, kv in enumerate(x):
        K += B1k[ki, DI + N // 2] * np.exp(1j * kv * tgt)
    return K * h
