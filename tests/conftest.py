import numpy as np
import pytest

from symplecta.grid import GridFunction, make_grid
from symplecta.symplin import SymplecticSpace
from symplecta.weylrep import ConfigGrid, build_rep_context

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

# (T, n, N) inputs small enough to check a grouped sum against the dense
# stack of explicit unitaries
DENSE_ORACLE_CASES = ([pytest.param(SUITE_T[k], 1, 12, id=k) for k in sorted(SUITE_T)]
                      + [pytest.param(MIXED_T2, 2, 4, id="mixed-n2")])


def make_ctx(T, N=32, n=1):
    return build_rep_context(SymplecticSpace(n), np.asarray(T, dtype=float),
                             ConfigGrid(n, N))


def gaussian(grid, width=1.0, center=None, tilt=0.0, freq=None):
    pts = grid.points()
    c = np.zeros(grid.dim) if center is None else np.asarray(center, float)
    z = pts - c
    vals = np.exp(-(z ** 2).sum(1) / (2 * width ** 2)) * (1 + tilt * pts[:, 0])
    vals = vals.astype(complex)
    if freq is not None:
        vals *= np.exp(1j * (pts @ np.asarray(freq, float)))
    return GridFunction(grid, vals)


def unit_gaussians_1d(N):
    x = (np.arange(N) - N // 2) * np.sqrt(2 * np.pi / N)
    phi = np.exp(-x ** 2 / 2) * (1 + 0.1 * x)
    phi = phi / np.linalg.norm(phi)
    psi = np.exp(-x ** 2 / 2) * (1 - 0.2 * x ** 2)
    psi = psi / np.linalg.norm(psi)
    return phi.astype(complex), psi.astype(complex)
