import warnings

import numpy as np
import pytest

from conftest import (MIXED_T2, SUITE_T, count_shift_chunks, gaussian, make_ctx,
                      synth_fast_1d, synth_generic)
from symplecta.calculus import (_synthesize, inverse_lambda_transform,
                                lambda_transform, quantize_T,
                                quantize_theta_tau_kernel, quantize_weyl,
                                read_operator, recover_symbol, write_operator)
from symplecta import weylrep
from symplecta.cocycle import coboundary
from symplecta.grid import (GridFunction, make_grid, read_grid_function, sigma_convolve,
                            symplectic_fourier, write_grid_function)
from symplecta.katoschatten import kato_synthesis
from symplecta.weylrep import matrix_coefficient

rng = np.random.default_rng(53)


@pytest.mark.parametrize("name", sorted(SUITE_T))
def test_unit_symbol_quantizes_to_identity(name):
    ctx = make_ctx(SUITE_T[name], N=32)
    ones = GridFunction(ctx.phase_grid, np.ones((32, 32)))
    A = quantize_T(ctx, ones)
    assert np.abs(A - np.eye(32)).max() < 1e-9


@pytest.mark.parametrize("name,N,width", [("half", 32, 1.0),
                                          ("general", 32, 1.0),
                                          ("unit", 64, 1.5)])
def test_two_quantization_routes_agree(name, N, width):
    ctx = make_ctx(SUITE_T[name], N=N)
    a = gaussian(ctx.phase_grid, width, center=(0.4, -0.2), tilt=0.1)
    A1 = quantize_T(ctx, a)
    A2 = quantize_weyl(ctx, lambda_transform(ctx, a))
    scale = np.abs(A1).max()
    assert np.abs(A1 - A2).max() / scale < 1e-7


def test_weyl_quantization_reads_the_samples_along_a_lattice_s_inverse():
    # T = I/2 gives S^{-1} = I: the pullback is the identity gather, so the
    # synthesis coefficients are the plain transform of b
    ctx = make_ctx(SUITE_T["half"], N=16)
    b = gaussian(ctx.phase_grid, 1.1, tilt=0.3)
    want = _synthesize(ctx, symplectic_fourier(b).values.ravel() * ctx.phase_grid.weight)
    assert np.array_equal(quantize_weyl(ctx, b), want)


def test_symbol_transform_round_trip_unit_scaling():
    # S = identity: the transform is a pure multiplier, inverted exactly
    ctx = make_ctx(SUITE_T["general"], N=32)
    a = gaussian(ctx.phase_grid, 1.1, tilt=0.3)
    back = inverse_lambda_transform(ctx, lambda_transform(ctx, a))
    assert np.abs(back.values - a.values).max() < 1e-9


def test_symbol_transform_round_trip_expanding_scaling():
    # S = 2I: truncation + band-limited resampling, accurate for decaying symbols
    ctx = make_ctx(SUITE_T["unit"], N=64)
    a = gaussian(ctx.phase_grid, 1.5)
    back = inverse_lambda_transform(ctx, lambda_transform(ctx, a))
    assert np.abs(back.values - a.values).max() < 1e-6


@pytest.mark.parametrize("theta,tau", [(0.5, 0.5), (1.0, 0.0), (0.3, 0.7)])
def test_kernel_route_matches_synthesis(theta, tau):
    T = np.diag([tau, theta])
    ctx = make_ctx(T, N=32)
    a = gaussian(ctx.phase_grid, 1.0, center=(0.2, 0.1))
    A1 = quantize_T(ctx, a)
    A2 = quantize_theta_tau_kernel(ctx.phase_grid, theta, tau, a)
    assert np.abs(A1 - A2).max() / np.abs(A1).max() < 1e-7


def test_kernel_route_unit_symbol_is_identity():
    g = make_grid(1, 32)
    ones = GridFunction(g, np.ones((32, 32)))
    K = quantize_theta_tau_kernel(g, 0.5, 0.5, ones)
    assert np.abs(K - np.eye(32)).max() < 1e-9


def test_kernel_route_rejects_theta_plus_tau_not_one():
    # the kernel formula reads tau only: for T = I it would not be Op_T
    g = make_grid(1, 32)
    a = gaussian(g, 1.0, center=(0.2, 0.1))
    # the sum prints as a plain number, whatever the type of theta and tau
    for one in (1.0, np.float64(1.0)):
        with pytest.raises(ValueError, match=r"theta \+ tau = 2\.0$"):
            quantize_theta_tau_kernel(g, one, one, a)


@pytest.mark.parametrize("theta,tau", [(np.nan, 0.5), (0.5, np.nan)])
def test_kernel_route_rejects_nan(theta, tau):
    g = make_grid(1, 16)
    with pytest.raises(ValueError, match=r"theta \+ tau = nan$"):
        quantize_theta_tau_kernel(g, theta, tau, gaussian(g, 1.0))


def test_kernel_route_requires_one_degree_of_freedom():
    g = make_grid(2, 8)
    with pytest.raises(ValueError):
        quantize_theta_tau_kernel(g, 0.5, 0.5,
                                  GridFunction(g, np.ones((8,) * 4)))


@pytest.mark.parametrize("name,N,width,tol", [("half", 32, 1.0, 1e-8),
                                              ("diag37", 32, 1.0, 1e-8),
                                              ("general", 32, 1.0, 1e-8),
                                              ("unit", 64, 1.4, 1e-6)])
def test_symbol_recovery_round_trip(name, N, width, tol):
    ctx = make_ctx(SUITE_T[name], N=N)
    a = gaussian(ctx.phase_grid, width, center=(0.3, -0.1), tilt=0.2)
    back = recover_symbol(ctx, quantize_T(ctx, a))
    assert np.abs(back.values - a.values).max() < tol


def test_symbol_recovery_takes_a_modulation_scale_near_one():
    # phi[1, 1] - 1 is 1.00009e-12: an integer scale by the lattice test
    ctx = make_ctx(np.diag([0.5, 0.5 + 1e-12]), N=64)
    assert 0 < abs(ctx.phi[1, 1] - 1.0) < 1e-9
    a = gaussian(ctx.phase_grid, 1.0, center=(0.3, -0.1), tilt=0.2)
    back = recover_symbol(ctx, quantize_T(ctx, a))
    assert np.abs(back.values - a.values).max() < 1e-10


def test_symbol_recovery_of_identity_is_unit_symbol():
    ctx = make_ctx(SUITE_T["half"], N=32)
    back = recover_symbol(ctx, np.eye(32))
    assert np.abs(back.values - 1.0).max() < 1e-9


@pytest.mark.parametrize("T, n, message", [
    (0.5 * np.eye(4), 2, "symbol recovery is implemented for n = 1"),
    (0.75 * np.eye(2), 1, "modulation scale must be a positive integer")],
    ids=["n2", "scale-1.5"])
def test_symbol_recovery_rejects_contexts_it_cannot_invert(T, n, message):
    ctx = make_ctx(T, N=8, n=n)
    with pytest.raises(ValueError, match=message):
        recover_symbol(ctx, np.eye(ctx.phase_grid.M))


@pytest.mark.parametrize("T, n, N", [(SUITE_T["general"], 1, 16), (MIXED_T2, 2, 4)],
                         ids=["general-n1", "mixed-n2"])
def test_lambda_is_evaluated_once_per_context(monkeypatch, T, n, N):
    calls = []

    def counted(ctx, xi):
        calls.append(np.shape(xi))
        return coboundary(ctx, xi)

    monkeypatch.setattr(weylrep, "coboundary", counted)
    ctx = make_ctx(T, N=N, n=n)
    assert not calls  # not at setup
    grid, M = ctx.phase_grid, ctx.phase_grid.M
    a = gaussian(grid, 1.0, center=(0.2,) * grid.dim)
    v = np.exp(-np.arange(M) / M) + 0j
    A = quantize_T(ctx, a)
    quantize_T(ctx, a)
    inverse_lambda_transform(ctx, lambda_transform(ctx, a))
    matrix_coefficient(ctx, v, v[::-1])
    if n == 1:
        recover_symbol(ctx, A)
    assert calls == [(M ** 2, grid.dim)]
    assert not ctx.lam.flags.writeable
    assert np.array_equal(ctx.lam, np.conj(coboundary(ctx, grid.points())))


@pytest.mark.parametrize("call", [
    quantize_T, quantize_weyl, lambda_transform, inverse_lambda_transform,
    lambda ctx, a: sigma_convolve(gaussian(ctx.phase_grid), a),
    lambda ctx, a: kato_synthesis(ctx, a, np.eye(ctx.phase_grid.M)),
    lambda ctx, a: quantize_theta_tau_kernel(ctx.phase_grid, 0.5, 0.5, a)],
    ids=["quantize_T", "quantize_weyl", "lambda_transform", "inverse_lambda_transform",
         "sigma_convolve", "kato_synthesis", "quantize_theta_tau_kernel"])
def test_a_symbol_on_another_grid_of_as_many_points_is_refused(call):
    # PhaseGrid(1, 16) and PhaseGrid(2, 4) both have 256 points
    ctx = make_ctx(0.5 * np.eye(4), N=4, n=2)
    other = gaussian(make_grid(1, 16))
    with pytest.raises(ValueError, match=r"on PhaseGrid\(n=1, N=16\), "
                                         r"not on PhaseGrid\(n=2, N=4\)"):
        call(ctx, other)


def test_quantization_is_linear():
    ctx = make_ctx(SUITE_T["general"], N=16)
    a = gaussian(ctx.phase_grid, 1.0)
    b = gaussian(ctx.phase_grid, 0.8, center=(0.5, 0.5))
    comb = GridFunction(ctx.phase_grid, 2.0 * a.values - 1j * b.values)
    lhs = quantize_T(ctx, comb)
    rhs = 2.0 * quantize_T(ctx, a) - 1j * quantize_T(ctx, b)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_symmetric_quantization_of_real_symbol_is_hermitian():
    ctx = make_ctx(SUITE_T["half"], N=32)
    a = gaussian(ctx.phase_grid, 1.0, center=(0.3, 0.2), tilt=0.4)
    A = quantize_T(ctx, a)
    assert np.abs(A - A.conj().T).max() < 1e-10


def test_operator_file_round_trip(tmp_path):
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    path = tmp_path / "op.txt"
    write_operator(A, path)
    assert np.array_equal(read_operator(path), A)


def test_operator_file_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("matrix 8x8\n")
    with pytest.raises(ValueError):
        read_operator(path)
    with pytest.raises(ValueError):
        write_operator(np.ones((2, 3)), tmp_path / "rect.txt")


def _random_coefficients(ctx):
    P = ctx.phase_grid.points().shape[0]
    return rng.standard_normal(P) + 1j * rng.standard_normal(P)


def _assert_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() < rel * np.abs(want).max()


@pytest.mark.parametrize("N", [12, 16])
@pytest.mark.parametrize("name", sorted(SUITE_T))
def test_synthesis_matches_dense_oracle_n1(name, N):
    ctx = make_ctx(SUITE_T[name], N=N)
    g = _random_coefficients(ctx)
    _assert_close(_synthesize(ctx, g), synth_fast_1d(ctx, g))


@pytest.mark.parametrize("N", [4, 6])
@pytest.mark.parametrize("T", [pytest.param(0.5 * np.eye(4), id="half"),
                               pytest.param(MIXED_T2, id="mixed")])
def test_synthesis_matches_dense_oracle_n2(T, N):
    # MIXED_T2's phi has a nonzero x-p block: its points are no product of
    # their distinct shifts and modulations
    ctx = make_ctx(T, N=N, n=2)
    g = _random_coefficients(ctx)
    _assert_close(_synthesize(ctx, g), synth_generic(ctx, g))


def test_synthesis_split_into_shift_chunks(monkeypatch):
    # the 12 distinct p need 12 M elements, over a budget of 3 M: the N = 12
    # map is summed one shift group at a time (MIXED_T2 at N = 4 above splits
    # its 64 shifts into chunks of M = 16 under the real budget)
    ctx = make_ctx(SUITE_T["general"], N=12)
    chunks = count_shift_chunks(monkeypatch, 3 * ctx.phase_grid.M)
    g = _random_coefficients(ctx)
    _assert_close(_synthesize(ctx, g), synth_fast_1d(ctx, g))
    assert len(chunks) > 1


@pytest.mark.parametrize("name", sorted(SUITE_T))
def test_symbol_recovery_inverts_quantization_of_rough_symbols(name):
    # recovery is exact on every coefficient it can see: all of them for
    # s = phi_22 = 1, the modulation indices |j - N/2| < N/(2s) for the
    # expanding T = I (s = 2)
    N = 16
    ctx = make_ctx(SUITE_T[name], N=N)
    s = int(round(ctx.phi[1, 1]))
    coef = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    coef[:, np.abs(np.arange(N) - N // 2) >= N // (2 * s)] = 0.0
    a = symplectic_fourier(GridFunction(ctx.phase_grid, coef))
    back = recover_symbol(ctx, quantize_T(ctx, a))
    _assert_close(back.values, a.values, 1e-10)


@pytest.mark.parametrize("T", [
    pytest.param(0.5 * np.eye(4), id="half"),
    # the n = 1 map "general" on each (x_i, p_i) pair
    pytest.param(np.kron(SUITE_T["general"], np.eye(2)), id="general-pairs")])
def test_two_quantization_routes_agree_n2_N16(T):
    ctx = make_ctx(T, N=16, n=2)
    a = gaussian(ctx.phase_grid, 1.0, center=(0.3, -0.2, 0.1, 0.0), tilt=0.1)
    A1 = quantize_T(ctx, a)
    A2 = quantize_weyl(ctx, lambda_transform(ctx, a))
    assert np.linalg.norm(A1 - A2) / np.linalg.norm(A1) < 1e-7


CODECS = {
    "grid": (lambda v, path: write_grid_function(GridFunction(make_grid(1, 4), v), path),
             lambda path: read_grid_function(path).values.ravel()),
    "operator": (lambda v, path: write_operator(v.reshape(4, 4), path),
                 lambda path: read_operator(path).ravel()),
}


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_text_codec_round_trip_is_bit_exact(tmp_path, codec):
    write, read = CODECS[codec]
    special = [complex(-0.0, 5e-324), complex(1e308, -1e308), complex(0.0, -0.0),
               complex(-5e-324, 2.2250738585072014e-308)]
    v = np.concatenate([special, rng.standard_normal(12) * 10.0 ** rng.integers(-300, 300, 12)
                        + 1j * rng.standard_normal(12)])
    path = tmp_path / "f.txt"
    write(v, path)
    assert path.read_text().splitlines()[1:3] == ["-0.0,5e-324", "1e+308,-1e+308"]
    back = read(path)
    assert np.array_equal(back.view(np.int64), v.view(np.int64))


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_text_codec_rejects_truncated_and_overlong_files(tmp_path, codec):
    write, read = CODECS[codec]
    path = tmp_path / "f.txt"
    write(rng.standard_normal(16) + 1j * rng.standard_normal(16), path)
    text = path.read_text()
    header, *lines = text.splitlines(keepends=True)
    for bad, message in (
            (text[:len(text) // 2], None),                      # cut inside a row
            (header + "".join(lines[:-1]), None),                # one row short
            (text + lines[-1], None),                            # one row too many
            (header, "found no rows"),                           # no body: no numpy warning
            (header + "1.0,2.0,3.0\n" * 16, "16 rows of width 3"),
            (header.rsplit("=", 1)[0] + "=\u00b2\n" + "".join(lines),  # a non-ASCII digit
             "not a symplecta-(grid|op) v1 file")):
        path.write_text(bad, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                read(path)
