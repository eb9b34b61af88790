import weakref

import numpy as np
import pytest

from conftest import (DENSE_ORACLE_CASES, MIXED_T2, SUITE_T, count_shift_chunks,
                      make_ctx, unit_gaussians_1d)
from symplecta import weylrep
from symplecta.cocycle import MultiplierContext, omega, omega_tilde
from symplecta.grid import GridFunction
from symplecta.symplin import SymplecticSpace
from symplecta.weylrep import (ConfigGrid, _distinct_rows, build_rep_context,
                               field_generator, matrix_coefficient,
                               orthogonality_integral, u_conjugator,
                               u_conjugator_batch, weyl_standard, weyl_tilde,
                               weyl_W)

rng = np.random.default_rng(41)
SP = SymplecticSpace(1)


def test_config_grid_basics():
    c = ConfigGrid(1, 16)
    assert c.M == 16
    assert abs(c.h ** 2 * 16 - 2 * np.pi) < 1e-12
    F = c.dft()
    assert np.abs(F @ F.conj().T - np.eye(16)).max() < 1e-12


def test_standard_weyl_unitary_for_any_real_shift():
    c = ConfigGrid(1, 16)
    for xi in [np.array([2 * c.h, -3 * c.h]), np.array([0.37, 1.21])]:
        W = weyl_standard(c, xi)
        assert np.abs(W @ W.conj().T - np.eye(16)).max() < 1e-10


def test_build_context_rejects_degenerate_multiplier():
    with pytest.raises(ValueError, match="witness"):
        build_rep_context(SP, SP.J, ConfigGrid(1, 16))


def test_build_context_rejects_grid_of_another_dimension():
    with pytest.raises(ValueError, match="n=2.*n=1"):
        build_rep_context(SP, 0.5 * np.eye(2), ConfigGrid(2, 8))


@pytest.mark.parametrize("name", sorted(SUITE_T))
def test_normalized_system_satisfies_weyl_relation(name):
    ctx = make_ctx(SUITE_T[name], N=16)
    mctx = MultiplierContext(SP, SUITE_T[name])
    h = ctx.phase_grid.h
    for _ in range(5):
        xi = rng.integers(-4, 5, 2) * h
        eta = rng.integers(-4, 5, 2) * h
        lhs = weyl_tilde(ctx, xi) @ weyl_tilde(ctx, eta)
        rhs = omega_tilde(mctx, xi, eta) * weyl_tilde(ctx, xi + eta)
        assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("name", ["half", "unit", "general"])
def test_twisted_system_satisfies_multiplier_relation(name):
    ctx = make_ctx(SUITE_T[name], N=16)
    mctx = MultiplierContext(SP, SUITE_T[name])
    h = ctx.phase_grid.h
    for _ in range(5):
        xi = rng.integers(-4, 5, 2) * h
        eta = rng.integers(-4, 5, 2) * h
        lhs = weyl_W(ctx, xi) @ weyl_W(ctx, eta)
        rhs = omega(mctx, xi, eta) * weyl_W(ctx, xi + eta)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_conjugator_at_origin_is_identity():
    ctx = make_ctx(SUITE_T["unit"], N=16)
    assert np.abs(u_conjugator(ctx, np.zeros(2)) - np.eye(16)).max() < 1e-12


def test_conjugator_batch_matches_single():
    ctx = make_ctx(SUITE_T["unit"], N=16)
    pts = rng.integers(-4, 5, (6, 2)) * ctx.phase_grid.h
    batch = u_conjugator_batch(ctx, pts)
    for k in range(6):
        assert np.abs(batch[k] - u_conjugator(ctx, pts[k])).max() < 1e-10


def test_field_generator_is_hermitian_and_consistent():
    ctx = make_ctx(SUITE_T["half"], N=16)
    xi = np.array([1.0, -0.5])
    G1 = field_generator(ctx, xi, t_step=1e-4)
    G2 = field_generator(ctx, xi, t_step=5e-5)
    # (W(t) - W(-t)) / (2it) is Hermitian since W(-t) = W(t)^*
    assert np.abs(G1 - G1.conj().T).max() < 1e-6
    assert np.abs(G1 - G2).max() < 1e-5 * max(1.0, np.abs(G1).max())
    with pytest.raises(ValueError):
        field_generator(ctx, xi, t_step=0.1)


@pytest.mark.parametrize("name", ["half", "unit", "general"])
def test_matrix_coefficient_matches_direct_inner_products(name):
    ctx = make_ctx(SUITE_T[name], N=8)
    phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w = matrix_coefficient(ctx, phi, psi)
    pts = ctx.phase_grid.points()
    direct = np.array([np.vdot(phi, weyl_W(ctx, xi) @ psi) for xi in pts])
    assert np.abs(w.values.ravel() - direct).max() < 1e-10


def test_matrix_coefficient_with_mixed_shift_block():
    # phi has a nonzero x-p block, so the shift is not constant over runs
    # of N^n consecutive grid points
    ctx = make_ctx(MIXED_T2, N=4, n=2)
    phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    w = matrix_coefficient(ctx, phi, psi)
    pts = ctx.phase_grid.points()
    direct = np.array([np.vdot(phi, weyl_W(ctx, xi) @ psi) for xi in pts])
    assert np.abs(w.values.ravel() - direct).max() < 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("T,n,N", DENSE_ORACLE_CASES)
def test_orthogonality_integral_matches_dense_sum(T, n, N):
    ctx = make_ctx(T, N=N, n=n)
    M = ctx.phase_grid.M
    phi = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    psi = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    U = u_conjugator_batch(ctx, ctx.phase_grid.points())
    want = (np.sum(np.abs(np.einsum("a,iab,b->i", phi.conj(), U, psi)) ** 2)
            * ctx.phase_grid.weight)
    assert abs(orthogonality_integral(ctx, phi, psi) - want) < 1e-12 * want


def test_coefficients_over_many_shift_chunks_match_dense_oracles(monkeypatch):
    # a budget of 2 M elements holds two shifts per chunk
    ctx = make_ctx(MIXED_T2, N=4, n=2)
    chunks = count_shift_chunks(monkeypatch, 2 * ctx.phase_grid.M)
    phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    pts = ctx.phase_grid.points()
    w = matrix_coefficient(ctx, phi, psi)
    direct = np.array([np.vdot(phi, weyl_W(ctx, xi) @ psi) for xi in pts])
    assert np.abs(w.values.ravel() - direct).max() < 1e-12 * np.abs(direct).max()
    assert len(chunks) > 1
    del chunks[:]
    U = u_conjugator_batch(ctx, pts)
    want = (np.sum(np.abs(np.einsum("a,iab,b->i", phi.conj(), U, psi)) ** 2)
            * ctx.phase_grid.weight)
    assert abs(orthogonality_integral(ctx, phi, psi) - want) < 1e-12 * want
    assert len(chunks) > 1


@pytest.mark.parametrize("name", ["half", "unit", "diag37"])
def test_orthogonality_integral_value(name):
    ctx = make_ctx(SUITE_T[name], N=32)
    phi, psi = unit_gaussians_1d(32)
    val = orthogonality_integral(ctx, phi, psi)
    want = np.sqrt(ctx.detS)
    assert abs(val - want) / want < 1e-2


def test_distinct_rows_match_numpy_unique():
    rows = rng.integers(-3, 4, (200, 2)) * 0.5
    rows[rows == 0.0] = -0.0  # equal to 0.0, as in np.unique
    rows[::7] = 0.0
    want, want_inv = np.unique(rows, axis=0, return_inverse=True)
    got, inv = _distinct_rows(rows)
    assert np.array_equal(got, want) and np.array_equal(inv, want_inv.ravel())


@pytest.mark.parametrize("T, n, N", [pytest.param(SUITE_T[k], 1, 16, id=k)
                                     for k in sorted(SUITE_T)]
                         + [pytest.param(0.5 * np.eye(4), 2, 4, id="half-n2"),
                            pytest.param(MIXED_T2, 2, 4, id="mixed-n2")])
def test_plan_bytes_floor_is_a_lower_bound(T, n, N):
    ctx = make_ctx(T, N=N, n=n)
    grid = ctx.phase_grid
    for A in (ctx.phi, ctx.A):
        groups = weylrep._shift_groups(grid, grid.points(), A)
        size = sum(a.nbytes for chunk in weylrep._shift_chunks(grid, groups)
                   for a in chunk[:-1])
        assert 0 < weylrep._plan_bytes_floor(grid, groups) <= size


def test_a_plan_whose_floor_exceeds_the_cache_holds_no_chunk():
    # MIXED_T2 at n = 2, N = 16: phi's plan is 246 MiB in 16 chunks of 9 MiB
    # and more; its floor, 34.5 MiB, is over the 32 MiB of the cache, so the
    # first chunk is gone once the second is built
    ctx = make_ctx(MIXED_T2, N=16, n=2)
    grid = ctx.phase_grid
    groups = weylrep._shift_groups(grid, grid.points(), ctx.phi)
    assert weylrep._plan_bytes_floor(grid, groups) > weylrep._SHIFT_PLANS.nbytes
    chunks = weylrep._grid_chunks(grid, ctx.phi)
    first = next(chunks)
    assert first[4].nbytes < weylrep._SHIFT_PLANS.nbytes
    E = weakref.ref(first[4])
    del first
    next(chunks)
    assert E() is None
    chunks.close()
    assert len(weylrep._SHIFT_PLANS) == 0
