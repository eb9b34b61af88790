import warnings

import numpy as np
import pytest

from symplecta.symplin import (SymplecticSpace, _singular, factor_sigma_symmetric,
                               nondegeneracy_gate, sigma_eval, symplectic_adjoint,
                               symplectic_basis)

rng = np.random.default_rng(11)


def test_default_form_block_structure():
    sp = SymplecticSpace(1)
    assert np.array_equal(sp.J, np.array([[0.0, -1.0], [1.0, 0.0]]))
    sp2 = SymplecticSpace(2)
    assert np.array_equal(sp2.J[:2, 2:], -np.eye(2))
    assert np.array_equal(sp2.J[2:, :2], np.eye(2))


def test_space_validation():
    with pytest.raises(ValueError):
        SymplecticSpace(0)


def test_n_fixes_the_form():
    assert SymplecticSpace(2) == SymplecticSpace(2)
    assert SymplecticSpace(1) != SymplecticSpace(2)
    assert len({SymplecticSpace(1), SymplecticSpace(1)}) == 1
    with pytest.raises(TypeError):
        SymplecticSpace(1, J=np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("n", [1, 2])
def test_adjoint_defining_identity(n):
    sp = SymplecticSpace(n)
    T = rng.standard_normal((sp.dim, sp.dim))
    Ts = symplectic_adjoint(sp, T)
    for _ in range(20):
        xi = rng.standard_normal(sp.dim)
        eta = rng.standard_normal(sp.dim)
        assert abs(sigma_eval(sp, Ts @ xi, eta)
                   - sigma_eval(sp, xi, T @ eta)) < 1e-12


def test_adjoint_is_involutive_and_antihomomorphic():
    sp = SymplecticSpace(1)
    T = rng.standard_normal((2, 2))
    R = rng.standard_normal((2, 2))
    assert np.abs(symplectic_adjoint(sp, symplectic_adjoint(sp, T)) - T).max() < 1e-12
    lhs = symplectic_adjoint(sp, T @ R)
    rhs = symplectic_adjoint(sp, R) @ symplectic_adjoint(sp, T)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_gate_random_maps_nondegenerate_with_positive_det():
    sp = SymplecticSpace(1)
    for _ in range(20):
        gate = nondegeneracy_gate(sp, rng.standard_normal((2, 2)))
        if gate.nondegenerate:
            assert gate.detS > 0


def test_gate_flags_fully_antisymmetric_multiplier():
    sp = SymplecticSpace(1)
    gate = nondegeneracy_gate(sp, sp.J)
    assert not gate.nondegenerate
    assert np.linalg.norm(gate.S) < 1e-12
    assert abs(np.linalg.norm(gate.kernel_witness) - 1.0) < 1e-12


def test_gate_gives_the_zero_map_the_witness_e0():
    sp = SymplecticSpace(2)
    gate = nondegeneracy_gate(sp, np.zeros((4, 4)))
    assert not gate.nondegenerate
    assert np.array_equal(gate.kernel_witness, np.eye(4)[0])


def test_symplectic_basis_normalizes_random_form():
    sp = SymplecticSpace(2)
    M = rng.standard_normal((4, 4)) + 0.5 * np.eye(4)
    Om = M.T @ sp.J @ M
    B = symplectic_basis(sp, Om)
    assert np.abs(B.T @ Om @ B - sp.J).max() < 1e-10


def test_symplectic_basis_rejects_degenerate():
    sp = SymplecticSpace(1)
    with pytest.raises(ValueError):
        symplectic_basis(sp, np.zeros((2, 2)))


def test_factorization_of_symmetrized_map():
    sp = SymplecticSpace(1)
    for _ in range(10):
        T = rng.standard_normal((2, 2))
        gate = nondegeneracy_gate(sp, T)
        if not gate.nondegenerate:
            continue
        phi = factor_sigma_symmetric(sp, gate.S)
        assert np.abs(symplectic_adjoint(sp, phi) @ phi - gate.S).max() < 1e-9
        assert abs(np.linalg.det(phi) ** 2 - gate.detS) < 1e-8 * abs(gate.detS)


def test_factorization_of_scaled_identity_is_lattice_compatible():
    sp = SymplecticSpace(1)
    phi = factor_sigma_symmetric(sp, 2 * np.eye(2))
    assert np.abs(symplectic_adjoint(sp, phi) @ phi - 2 * np.eye(2)).max() < 1e-12
    # the deterministic factor is an integer lattice map (diagonal here)
    assert np.abs(phi - np.rint(phi)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("scale", [2e-12, 2e200, 2e300])
def test_factorization_is_scale_free(n, scale):
    # every threshold is relative to max|S|, so a tiny or huge multiple of I factors
    sp = SymplecticSpace(n)
    S = scale * np.eye(sp.dim)
    phi = factor_sigma_symmetric(sp, S)
    assert np.abs(symplectic_adjoint(sp, phi) @ phi - S).max() <= 1e-9 * scale


def test_factorization_rejects_asymmetric_input():
    sp = SymplecticSpace(1)
    with pytest.raises(ValueError):
        factor_sigma_symmetric(sp, np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_singular_is_scale_free_and_rejects_non_finite_entries():
    assert not _singular([[1e-13]])
    assert not _singular(1e-7 * np.eye(2))
    assert not _singular(np.diag([1e8, 1e-1]))
    assert _singular(np.diag([1e8, 1e-5]))  # condition 1e13
    assert _singular(np.zeros((2, 2)))
    assert _singular([[np.inf, 0.0], [0.0, 1.0]])
    assert _singular([[np.nan]])


def test_gate_gives_a_non_finite_S_no_kernel_witness():
    # S = 2e308 I overflows: not singular, but not representable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gate = nondegeneracy_gate(SymplecticSpace(1), 1e308 * np.eye(2))
    assert not gate.nondegenerate
    assert gate.kernel_witness is None
    assert not np.isfinite(gate.S).all()


def test_factor_rejects_a_non_finite_S():
    with pytest.raises(ValueError, match="S is singular"):
        factor_sigma_symmetric(SymplecticSpace(1), np.full((2, 2), np.nan))


def test_form_and_adjoint_reject_vectors_and_maps_of_another_dimension():
    sp = SymplecticSpace(1)
    with pytest.raises(ValueError, match="vector length must equal 2n"):
        sigma_eval(sp, np.ones(3), np.ones(2))
    with pytest.raises(ValueError, match="vector length must equal 2n"):
        sigma_eval(sp, np.ones(2), np.ones((5, 4)))
    with pytest.raises(ValueError, match="map dimension mismatch"):
        symplectic_adjoint(sp, np.eye(4))
