import weakref

import numpy as np
import pytest

from conftest import (DENSE_ORACLE_CASES, MIXED_T2, SUITE_T, count_shift_chunks,
                      make_ctx, unit_gaussians_1d)
from symplecta import weylrep
from symplecta.calculus import recover_symbol
from symplecta.cocycle import MultiplierContext, omega, omega_tilde
from symplecta.grid import PhaseGrid
from symplecta.symplin import SymplecticSpace
from symplecta.weylrep import (_distinct_rows, build_rep_context, matrix_coefficient,
                               orthogonality_integral, u_conjugator,
                               u_conjugator_batch, weyl_standard, weyl_tilde,
                               weyl_W)

rng = np.random.default_rng(41)
SP = SymplecticSpace(1)


def test_config_grid_basics():
    c = PhaseGrid(1, 16)
    assert c.M == 16
    assert abs(c.h ** 2 * 16 - 2 * np.pi) < 1e-12
    F = c.dft()
    assert np.abs(F @ F.conj().T - np.eye(16)).max() < 1e-12


def test_standard_weyl_unitary_for_any_real_shift():
    c = PhaseGrid(1, 16)
    for xi in [np.array([2 * c.h, -3 * c.h]), np.array([0.37, 1.21])]:
        W = weyl_standard(c, xi)
        assert np.abs(W @ W.conj().T - np.eye(16)).max() < 1e-10


def test_build_context_rejects_degenerate_multiplier():
    with pytest.raises(ValueError, match="witness"):
        build_rep_context(SP, SP.J, PhaseGrid(1, 16))


def test_build_context_rejects_grid_of_another_dimension():
    with pytest.raises(ValueError, match="n=2.*n=1"):
        build_rep_context(SP, 0.5 * np.eye(2), PhaseGrid(2, 8))


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


@pytest.mark.parametrize("call", [
    lambda ctx, v: recover_symbol(ctx, np.eye(len(v))),
    lambda ctx, v: orthogonality_integral(ctx, v, v),
    lambda ctx, v: matrix_coefficient(ctx, v, v)],
    ids=["recover_symbol", "orthogonality_integral", "matrix_coefficient"])
def test_the_analysis_refuses_an_operator_of_another_shape(call):
    ctx = make_ctx(SUITE_T["half"], N=16)
    with pytest.raises(ValueError, match=r"operator must be 16 x 16, got shape \(15, 15\)"):
        call(ctx, np.ones(15))


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
                            pytest.param(MIXED_T2, 2, 4, id="mixed-n2"),
                            pytest.param(MIXED_T2, 2, 8, id="mixed-n2-N8")])
def test_plan_bytes_are_exact(T, n, N):
    ctx = make_ctx(T, N=N, n=n)
    for A in (ctx.phi, ctx.A):
        nbytes, chunks = weylrep._shift_chunks(ctx.phase_grid, A)
        assert nbytes == sum(a.nbytes for chunk in chunks for a in chunk)


@pytest.mark.parametrize("N", [12, 16])
def test_a_plan_over_the_cache_holds_no_chunk(N):
    # MIXED_T2 at n = 2: phi's plan is 45.3 MiB at N = 12 and 246 MiB in 16
    # chunks at N = 16, both over the 32 MiB of the cache, so the first chunk
    # is gone once the second is built
    ctx = make_ctx(MIXED_T2, N=N, n=2)
    grid = ctx.phase_grid
    assert weylrep._shift_chunks(grid, ctx.phi)[0] > weylrep._SHIFT_PLANS.nbytes
    chunks = iter(weylrep._grid_chunks(grid, ctx.phi))
    first = next(chunks)
    assert first[4].nbytes < weylrep._SHIFT_PLANS.nbytes
    E = weakref.ref(first[4])
    del first
    next(chunks)
    assert E() is None
    chunks.close()
    assert len(weylrep._SHIFT_PLANS) == 0
