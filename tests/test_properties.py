"""Property tests of the centred-lattice helpers, the quantization routes, the
operator-averaging kernels and the multiplier identities.

Symbols and matrices are drawn from a seeded generator, so every example is a
rough (unresolved) input: the identities below are exact on the grid, not
approximations that need a smooth symbol.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import MIXED_T2, kernel_route_loop, make_ctx
from symplecta.calculus import quantize_T, quantize_theta_tau_kernel, recover_symbol
from symplecta.cocycle import (MultiplierContext, coboundary, coboundary_residual,
                               cocycle_residual, omega, omega_tilde)
from symplecta.grid import GridFunction, _centred_diagonals, make_grid, symplectic_fourier
from symplecta.katoschatten import _ambiguity_average
from symplecta.symplin import SymplecticSpace, sigma_eval
from symplecta.weylrep import _accumulate, _analyze, _synthesize

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

seeds = st.integers(0, 2 ** 32 - 1)
even_N = st.integers(4, 16).map(lambda k: 2 * k)  # even N in 8..32
taus = st.floats(0.0, 1.0)


def random_complex(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@PROPERTY
@given(n=st.sampled_from([1, 2]), half=st.integers(2, 8), seed=seeds)
def test_centred_diagonals_is_an_involution(n, half, seed):
    N = 2 * half
    A = random_complex(seed, (N ** n, N ** n))
    D = _centred_diagonals(A, n, N)
    # column N/2 (per axis) is the main diagonal
    assert np.array_equal(D[:, np.ravel_multi_index((half,) * n, (N,) * n)], np.diag(A))
    assert np.array_equal(_centred_diagonals(D, n, N), A)


@PROPERTY
@given(tau=taus, N=even_N, seed=seeds)
def test_kernel_route_equals_synthesis(tau, N, seed):
    ctx = make_ctx(np.diag([tau, 1.0 - tau]), N=N)
    a = GridFunction(ctx.phase_grid, random_complex(seed, (N, N)))
    A1 = quantize_T(ctx, a)
    A2 = quantize_theta_tau_kernel(ctx.phase_grid, 1.0 - tau, tau, a)
    assert np.abs(A1 - A2).max() / np.abs(A1).max() < 1e-7
    # the same sums as the per-frequency loop, in another order
    K = kernel_route_loop(ctx.phase_grid, tau, a)
    assert np.linalg.norm(A2 - K) / np.linalg.norm(K) < 1e-13


@PROPERTY
@given(tau=taus, N=even_N, seed=seeds)
def test_recover_symbol_inverts_quantize_T(tau, N, seed):
    ctx = make_ctx(np.diag([tau, 1.0 - tau]), N=N)
    a = GridFunction(ctx.phase_grid, random_complex(seed, (N, N)))
    back = recover_symbol(ctx, quantize_T(ctx, a))
    assert np.abs(back.values - a.values).max() < 1e-8


@PROPERTY
@given(case=st.one_of(
    st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(
        lambda t: np.reshape(t, (2, 2))), st.just(1), even_N),
    st.just((MIXED_T2, 2, 4))), seed=seeds)
def test_analysis_is_the_adjoint_of_synthesis(case, seed):
    T, n, N = case
    assume(abs(np.trace(T)) > 0.1 or n == 2)  # n = 1: S = tr(T) I
    ctx = make_ctx(T, N=N, n=n)
    g = random_complex(seed, ctx.phase_grid.N ** ctx.phase_grid.dim)
    B = random_complex(seed + 1, (ctx.phase_grid.M,) * 2)
    lhs = np.vdot(_synthesize(ctx, g), B)
    rhs = np.vdot(g, _analyze(ctx.phase_grid, ctx.phi, B))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


@PROPERTY
@given(t=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       half=st.integers(4, 24), seed=seeds)
def test_ambiguity_kernel_equals_shift_groups(t, half, seed):
    assume(abs(t[0] + t[1]) > 0.25)  # S = (t0 + t1) I, nondegenerate
    N = 2 * half  # even N in 8..48
    ctx = make_ctx(np.diag(t), N=N)
    A = ctx.phi @ ctx.Sinv
    assert np.count_nonzero(A - np.diag(np.diag(A))) == 0
    b = random_complex(seed, (N, N))
    G = random_complex(seed + 1, (N, N))
    want = _accumulate(ctx, b.ravel(), G)
    got = _ambiguity_average(ctx.phase_grid, np.diag(A), [ctx.phase_grid.axis] * 2, b, G)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


@PROPERTY
@given(T=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), N=even_N)
def test_unit_symbol_quantizes_to_identity(T, N):
    T = np.reshape(T, (2, 2))
    assume(abs(np.trace(T)) > 0.1)  # n = 1: S = T + T^sigma = tr(T) I
    ctx = make_ctx(T, N=N)
    ones = GridFunction(ctx.phase_grid, np.ones((N, N)))
    assert np.abs(quantize_T(ctx, ones) - np.eye(N)).max() < 1e-9


@PROPERTY
@given(n=st.sampled_from([1, 2]), half=st.integers(2, 8), seed=seeds)
def test_symplectic_fourier_is_an_involution(n, half, seed):
    g = make_grid(n, 2 * half)
    f = GridFunction(g, random_complex(seed, (2 * half,) * g.dim))
    ff = symplectic_fourier(symplectic_fourier(f))
    assert np.linalg.norm(ff.values - f.values) / np.linalg.norm(f.values) < 1e-10


@PROPERTY
@given(n=st.sampled_from([1, 2]), seed=seeds)
def test_cocycle_and_coboundary_identities(n, seed):
    rng = np.random.default_rng(seed)
    d = 2 * n
    ctx = MultiplierContext(SymplecticSpace(n), rng.standard_normal((d, d)))
    assert cocycle_residual(ctx, list(rng.standard_normal((20, 3, d)))) < 1e-12
    assert coboundary_residual(ctx, list(rng.standard_normal((20, 2, d)))) < 1e-12


def cocycle_oracle(ctx, triples):
    """cocycle_residual one sample at a time, in scalar arithmetic."""
    worst = 0.0
    for xi, eta, zeta in triples:
        lhs = omega(ctx, xi, eta) * omega(ctx, xi + eta, zeta)
        rhs = omega(ctx, xi, eta + zeta) * omega(ctx, eta, zeta)
        worst = max(worst, abs(lhs - rhs))
    return worst


def coboundary_oracle(ctx, pairs):
    """coboundary_residual one sample at a time, in scalar arithmetic."""
    worst = 0.0
    for xi, eta in pairs:
        lhs = omega_tilde(ctx, xi, eta) / omega(ctx, xi, eta)
        rhs = coboundary(ctx, xi) * coboundary(ctx, eta) / coboundary(ctx, xi + eta)
        worst = max(worst, abs(lhs - rhs))
    return worst


@st.composite
def multiplier_maps(draw):
    n = draw(st.sampled_from([1, 2]))
    return n, draw(arrays(float, (2 * n, 2 * n), elements=st.floats(-2.0, 2.0)))


def largest_phase(ctx, samples):
    """max |sigma(a, X b)| over the sample vectors a, b and X in {T, S}: both
    residuals are the rounding of phases of this size."""
    v = samples.reshape(-1, samples.shape[-1])
    return max(np.abs(sigma_eval(ctx.space, v[:, None], v[None] @ X.T)).max()
               for X in (ctx.T, ctx.S))


@PROPERTY
@given(nT=multiplier_maps(), scale=st.floats(0.0, 5.0), seed=seeds)
@example(nT=(2, np.array([
    [1.6072061032366416, -1.4117422914556967, -0.15203193479214994, -1.2081347732078407],
    [-0.8165815240870056, -0.5251579232086034, 0.5227087554496919, -1.6172757657701533],
    [1.7114457432620043, 1.105068151421765, -1.8244518606945217, -1.936597169398047],
    [0.6726536373767908, 0.3302003114010139, -0.03965882130414311, 0.6006380157002873]])),
    scale=5.0, seed=3664490901)
def test_array_residuals_match_a_one_sample_oracle(nT, scale, seed):
    n, T = nT
    ctx = MultiplierContext(SymplecticSpace(n), T)
    rng = np.random.default_rng(seed)
    for residual, oracle, k in ((cocycle_residual, cocycle_oracle, 3),
                                (coboundary_residual, coboundary_oracle, 2)):
        samples = rng.standard_normal((20, k, 2 * n)) * scale
        got, want = residual(ctx, samples), oracle(ctx, samples)
        assert abs(got - want) <= 4 * np.finfo(float).eps * max(1.0, largest_phase(ctx, samples))
        assert max(got, want) <= 1e-12
        # the same samples as a list of tuples and as a generator
        assert residual(ctx, [tuple(s) for s in samples]) == got
        assert residual(ctx, (tuple(s) for s in samples)) == got
