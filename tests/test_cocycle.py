import numpy as np
import pytest

from conftest import SUITE_T, gaussian
from symplecta.cocycle import (MultiplierContext, coboundary, coboundary_residual,
                               cocycle_residual, omega, omega_tilde,
                               regular_representation)
from symplecta.grid import GridFunction, make_grid, translate
from symplecta.symplin import SymplecticSpace

rng = np.random.default_rng(23)
SP = SymplecticSpace(1)


def random_ctx():
    return MultiplierContext(SP, rng.standard_normal((2, 2)))


def test_cocycle_equation_random_maps():
    for _ in range(5):
        ctx = random_ctx()
        triples = [tuple(rng.standard_normal((3, 2)) * 3) for _ in range(200)]
        assert cocycle_residual(ctx, triples) < 1e-12


def test_normalized_multiplier_antidiagonal_is_one():
    for T in SUITE_T.values():
        ctx = MultiplierContext(SP, T)
        for xi in rng.standard_normal((20, 2)) * 5:
            assert abs(omega_tilde(ctx, xi, -xi) - 1.0) < 1e-12


def test_cohomology_link_between_multipliers():
    for _ in range(5):
        ctx = random_ctx()
        pairs = [tuple(rng.standard_normal((2, 2)) * 2) for _ in range(200)]
        assert coboundary_residual(ctx, pairs) < 1e-12


def test_coboundary_trivial_for_scalar_maps():
    ctx = MultiplierContext(SP, 0.7 * np.eye(2))
    for xi in rng.standard_normal((20, 2)) * 5:
        assert abs(coboundary(ctx, xi) - 1.0) < 1e-14


def test_coboundary_residual_rejects_empty_samples():
    with pytest.raises(ValueError, match="empty sample list"):
        coboundary_residual(random_ctx(), [])


def test_cocycle_residual_rejects_empty_samples():
    with pytest.raises(ValueError, match="empty sample list"):
        cocycle_residual(random_ctx(), [])


def test_batched_multiplier_evaluation_matches_scalar():
    ctx = random_ctx()
    xi = rng.standard_normal(2)
    etas = rng.standard_normal((7, 2))
    batch = omega(ctx, xi, etas)
    for k in range(7):
        assert abs(batch[k] - omega(ctx, xi, etas[k])) < 1e-14


def test_regular_representation_is_unitary_and_projective():
    grid = make_grid(1, 16)
    ctx = MultiplierContext(SP, SUITE_T["general"])
    f = GridFunction(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    xi = np.array([1.0, -1.0]) * grid.h
    eta = np.array([2.0, 1.0]) * grid.h
    rf = regular_representation(ctx, xi, f)
    assert abs(np.linalg.norm(rf.values) - np.linalg.norm(f.values)) < 1e-10
    lhs = regular_representation(ctx, xi, regular_representation(ctx, eta, f))
    rhs = omega(ctx, xi, eta) * regular_representation(ctx, xi + eta, f).values
    # compare away from the rows whose lattice translates wrap around the box
    idx = np.arange(16) - 8
    I, J = np.meshgrid(idx, idx, indexing="ij")

    def inbox(a, b):
        return (a >= -8) & (a < 8) & (b >= -8) & (b < 8)

    mask = inbox(I + 1, J - 1) & inbox(I + 3, J + 0)
    assert np.abs((lhs.values - rhs)[mask]).max() < 1e-12


def test_regular_representation_gathers_the_lattice_translate():
    grid = make_grid(1, 16)
    ctx = MultiplierContext(SP, SUITE_T["general"])
    f = GridFunction(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    xi = np.array([2.0, -3.0]) * grid.h
    pts = grid.points()
    phase = omega(ctx, pts, np.broadcast_to(xi, pts.shape)).reshape(16, 16)
    # (R(xi) f)(eta) = omega(eta, xi) f(eta + xi): index (i, j) reads (i + 2, j - 3)
    want = phase * np.roll(f.values, (-2, 3), axis=(0, 1))
    assert np.array_equal(regular_representation(ctx, xi, f).values, want)


def test_regular_representation_rejects_off_grid_shift():
    grid = make_grid(1, 16)
    ctx = MultiplierContext(SP, SUITE_T["half"])
    f = gaussian(grid)
    for xi in ([0.5 * grid.h, 0.0], [grid.h]):  # off the lattice; not of 2n entries
        with pytest.raises(ValueError, match="off-grid xi"):
            regular_representation(ctx, np.array(xi), f)


def test_a_non_finite_shift_raises_its_error_without_a_warning():
    # the lattice test of an infinite shift is a nan residual, not a numpy
    # warning (the suite turns RuntimeWarning into an error)
    grid = make_grid(1, 16)
    f = gaussian(grid)
    xi = np.array([np.inf, 0.0])
    with pytest.raises(ValueError, match=r"off-grid xi \[inf, 0\.0\]"):
        translate(xi, f)
    with pytest.raises(ValueError, match=r"off-grid xi \[inf, 0\.0\]"):
        regular_representation(MultiplierContext(SP, SUITE_T["half"]), xi, f)
