import functools

import numpy as np
import pytest

from conftest import gaussian
from symplecta.grid import (GridFunction, PhaseGrid, SymbolSpec, _lp_rows, _spec_params,
                            _write_rows, apply_multiplier, make_grid, pullback,
                            read_grid_function, sample_symbol, sigma_convolve,
                            symplectic_fourier, translate, write_grid_function)
from symplecta.katoschatten import schatten_norm

rng = np.random.default_rng(37)


def test_grid_self_duality_and_weight():
    g = make_grid(1, 32)
    assert abs(g.h ** 2 * g.N - 2 * np.pi) < 1e-12
    assert g.weight == 1.0 / 32
    assert abs(g.box_length - g.N * g.h) < 1e-12
    g2 = make_grid(2, 8)
    assert g2.weight == 8.0 ** (-2)
    assert g2.points().shape == (8 ** 4, 4)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(3, 32)
    with pytest.raises(ValueError):
        make_grid(1, 31)
    with pytest.raises(ValueError):
        make_grid(1, 2)


def test_grid_limits_name_the_value_given():
    with pytest.raises(ValueError, match="n must be 1 or 2, got 3"):
        make_grid(3, 32)
    with pytest.raises(ValueError, match=r"N must be even and in \[4, 256\], got 31"):
        make_grid(1, 31)


@pytest.mark.parametrize("n, N, name", [(1, 32.0, "N"), (1, np.float64(32), "N"),
                                         (True, 32, "n"), (1.0, 32, "n"), (1, "32", "N")])
def test_grid_rejects_a_non_integer_n_or_N(n, N, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        PhaseGrid(n, N)


def test_grid_takes_numpy_integers():
    g = PhaseGrid(np.int64(1), np.int32(16))
    assert g.points().shape == (256, 2)
    assert repr(g) == "PhaseGrid(n=1, N=16)" and type(g.n) is int and type(g.N) is int
    # both plan caches key on the grid
    assert g == PhaseGrid(1, 16) and hash(g) == hash(PhaseGrid(1, 16))


@pytest.mark.parametrize("p", [0, -1, np.nan])
def test_norm_lp_rejects_exponents_outside_zero_inf(p):
    f = gaussian(make_grid(1, 16), 1.0, [0.3, -0.2])
    with pytest.raises(ValueError, match=f"exponent p = {p} is not in"):
        f.norm_lp(p)


def test_grid_function_validation():
    g = make_grid(1, 8)
    with pytest.raises(ValueError):
        GridFunction(g, np.ones(63))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(64, np.nan))


def test_norm_matches_gaussian_integral():
    g = make_grid(1, 64)
    # normalized measure: integral of a width-1 Gaussian over the plane is 1
    assert abs(gaussian(g, 1.0).norm_lp(1) - 1.0) < 1e-10
    ones = GridFunction(g, np.ones(64 * 64))
    assert ones.norm_lp(np.inf) == 1.0


@pytest.mark.parametrize("p", [0.5, 1, 2, 3, np.inf])
@pytest.mark.parametrize("N", [16, 32, 64])
def test_norms_take_the_bits_of_the_one_lp_reduction(N, p):
    """norm_lp and the Schatten norms are grid._lp_rows, bit for bit; a 0 x 0
    operator has Schatten norm 0 for every p."""
    g = make_grid(1, N)
    r = np.random.default_rng(N)
    f = GridFunction(g, r.standard_normal(N * N) + 1j * r.standard_normal(N * N))
    assert f.norm_lp(p) == _lp_rows(f.values.reshape(1, -1), p, g.weight)[0]
    if p in (1, 2, np.inf):
        s = np.linalg.svd(f.values, compute_uv=False)
        assert schatten_norm(f.values, p).norm == _lp_rows(s[None], p, 1.0)[0]
        assert schatten_norm(np.zeros((0, 0)), p).norm == 0.0


@pytest.mark.parametrize("N", [16, 32, 64])
def test_symplectic_fourier_involution_and_isometry(N):
    g = make_grid(1, N)
    for _ in range(5):
        f = GridFunction(g, rng.standard_normal(N * N)
                         + 1j * rng.standard_normal(N * N))
        ff = symplectic_fourier(symplectic_fourier(f))
        sc = np.linalg.norm(f.values)
        assert np.linalg.norm(ff.values - f.values) / sc < 1e-10
        assert abs(np.linalg.norm(symplectic_fourier(f).values) - sc) / sc < 1e-10


def test_standard_gaussian_is_transform_fixed_point():
    g = make_grid(1, 64)
    f = gaussian(g, 1.0)
    assert np.abs(symplectic_fourier(f).values - f.values).max() < 1e-8


def test_apply_multiplier_identity_and_error():
    g = make_grid(1, 16)
    f = gaussian(g, 1.1)
    out = apply_multiplier(np.ones((16, 16)), f)
    assert np.abs(out.values - f.values).max() < 1e-12
    lam = np.ones((16, 16))
    lam[3, 5] = np.inf
    with pytest.raises(ArithmeticError):
        apply_multiplier(lam, f)


def test_exact_pullback_composes_contravariantly():
    g = make_grid(1, 16)
    f = GridFunction(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [-2.0, 1.0]])
    lhs = pullback(A, pullback(B, f))
    rhs = pullback(B @ A, f)
    assert np.abs(lhs.values - rhs.values).max() == 0.0


# maps of each route of grid._resample: lattice maps gather, other diagonal
# maps interpolate per axis, and the rest take the dense sum; one
# off-diagonal entry of 1e-15 makes "coupled" take the dense sum
RESAMPLE_MAPS = {
    "I": (np.eye(2), True),
    "2I": (2 * np.eye(2), True),
    "shear": (np.array([[1.0, 1.0], [0.0, 1.0]]), True),
    "half": (0.5 * np.eye(2), False),
    "diag": (np.diag([0.5, 2.0]), False),
    "coupled": (np.array([[0.5, 1e-15], [0.0, 2.0]]), False),
}


@functools.lru_cache(maxsize=None)
def dense_resample(name, n, N):
    """Random samples f on the n-dimensional grid, the map A (+) ... (+) A and
    f's trigonometric extension evaluated point by point at A xi, its sum over
    the frequencies k taken one axis of k at a time."""
    g = make_grid(n, N)
    f = GridFunction(g, np.random.default_rng(5).standard_normal(N ** g.dim) + 0j)
    A = np.kron(np.eye(n), RESAMPLE_MAPS[name][0])
    dense = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values))).reshape(1, -1)
    tgt = g.points() @ A.T
    for j in range(g.dim):
        E = np.exp(1j * np.outer(tgt[:, j], g.axis))  # (point, k_j)
        dense = (E[:, None, :] @ dense.reshape(len(dense), N, -1))[:, 0]
    dense = dense.reshape(f.values.shape) / N ** g.dim
    L = g.box_length
    inside = np.all((tgt >= -L / 2 - 1e-9) & (tgt < L / 2 - 1e-9), axis=1)
    return f, A, dense, inside.reshape(f.values.shape)


@pytest.mark.parametrize("truncate", [False, True], ids=["wrap", "truncate"])
@pytest.mark.parametrize("n, N", [(1, 16), (2, 8)], ids=["n1", "n2"])
@pytest.mark.parametrize("name", sorted(RESAMPLE_MAPS))
def test_pullback_matches_the_dense_trigonometric_sum(name, n, N, truncate):
    f, A, dense, inside = dense_resample(name, n, N)
    if truncate:
        dense = np.where(inside, dense, 0.0)
    out = pullback(A, f, truncate=truncate).values
    assert np.abs(out - dense).max() < 1e-9
    if RESAMPLE_MAPS[name][1]:
        # a lattice map reads the samples themselves: the plain index gather
        m = np.indices(f.values.shape).reshape(f.grid.dim, -1).T - N // 2
        idx = (m @ A.astype(int).T + N // 2) % N
        gather = f.values[tuple(idx.T)].reshape(f.values.shape)
        assert np.array_equal(out, np.where(inside, gather, 0.0) if truncate else gather)


def test_exact_pullback_requires_lattice_map():
    # every non-singular map is evaluated now; the zero map is still refused
    f = gaussian(make_grid(1, 8))
    with pytest.raises(ValueError, match="singular"):
        pullback(np.zeros((2, 2)), f)


def test_pullback_takes_no_positional_mode():
    f = gaussian(make_grid(1, 8))
    with pytest.raises(TypeError):
        pullback(np.eye(2), f, "exact")


def test_truncated_pullback_zeroes_escaping_points():
    g = make_grid(1, 8)
    f = GridFunction(g, np.ones(64))
    out = pullback(2 * np.eye(2), f, truncate=True)
    # 2*xi stays in the box only for indices in [-2, 2)
    v = out.values
    assert v[4 - 2, 4] == 1.0 and v[4, 4 + 1] == 1.0
    assert v[0, 4] == 0.0 and v[7, 4] == 0.0


def test_truncated_pullback_along_a_huge_lattice_map_keeps_only_the_origin():
    # 2e200 is integer-valued but no index type holds it: every point but the
    # origin leaves the box instead of gathering from an overflowed index
    g = make_grid(1, 16)
    f = gaussian(g)
    with np.errstate(all="raise"):
        v = pullback(2e200 * np.eye(2), f, truncate=True).values.copy()
    assert abs(v[8, 8] - f.values[8, 8]) < 1e-12
    v[8, 8] = 0.0
    assert np.abs(v).max() == 0.0


def test_pullback_singularity_test_is_scale_free():
    g = make_grid(1, 16)
    f = gaussian(g)
    # a tiny but well-conditioned map collapses every point onto the origin
    out = pullback(1e-8 * np.eye(2), f)
    assert np.abs(out.values - f.values[8, 8]).max() < 1e-6
    for A in (np.diag([1.0, 1e-12]), np.diag([1.0, np.inf])):
        with pytest.raises(ValueError, match="singular"):
            pullback(A, f)


@pytest.mark.filterwarnings("error")
def test_translate_rolls_a_lattice_xi_and_refuses_any_other():
    for n, N in ((1, 16), (2, 8)):
        g = make_grid(n, N)
        f = gaussian(g, 1.0, tilt=0.3)
        k = [3, -1, 1, 5][:g.dim]
        assert np.array_equal(translate(np.array(k) * g.h, f).values,
                              np.roll(f.values, k, axis=tuple(range(g.dim))))
    g = make_grid(1, 16)
    f = gaussian(g)
    # off the lattice, not finite, or of other than 2n entries (no broadcast)
    for xi in ([0.5 * g.h, 0.0], [0.0, np.nan], [g.h], [g.h, 0.0, 0.0]):
        with pytest.raises(ValueError, match=r"^off-grid xi .* on PhaseGrid\(n=1, N=16\)"):
            translate(xi, f)


def test_convolution_identity_element():
    g = make_grid(1, 32)
    f = gaussian(g, 1.3, tilt=0.4)
    dv = np.zeros((32, 32))
    dv[16, 16] = 1.0 / g.weight
    delta = GridFunction(g, dv)
    out = sigma_convolve(delta, f)
    assert np.abs(out.values - f.values).max() < 1e-12
    out2 = sigma_convolve(f, delta)
    assert np.abs(out2.values - f.values).max() < 1e-12


def test_convolution_grid_mismatch():
    with pytest.raises(ValueError):
        sigma_convolve(gaussian(make_grid(1, 16)), gaussian(make_grid(1, 32)))


def test_symbol_sampling_kinds():
    g = make_grid(1, 32)
    gauss = sample_symbol(SymbolSpec(kind="gaussian", center=(0.5, -0.5)), g)
    pk = np.unravel_index(np.argmax(np.abs(gauss.values)), gauss.values.shape)
    pts = g.points().reshape(32, 32, 2)
    assert np.abs(pts[pk] - np.array([0.5, -0.5])).max() < g.h
    chirp = sample_symbol(SymbolSpec(kind="chirp-gaussian",
                                     chirp=(0.0, 1.0, 1.0, 0.0)), g)
    assert np.abs(np.abs(chirp.values)
                  - sample_symbol(SymbolSpec(kind="gaussian"), g).values).max() < 1e-12
    herm = sample_symbol(SymbolSpec(kind="hermite-gaussian",
                                    hermite_index=(1, 0)), g)
    assert np.abs(herm.values[1:, :] + herm.values[:0:-1, :]).max() < 1e-10
    poly = sample_symbol(SymbolSpec(kind="polynomial-times-gaussian",
                                    poly_coeffs=(1.0, 2.0)), g)
    mid = poly.values[16, 16]
    assert abs(mid - 1.0) < 1e-12
    with pytest.raises(ValueError):
        sample_symbol(SymbolSpec(kind="plane-wave"), g)
    with pytest.raises(ValueError):
        sample_symbol(SymbolSpec(kind="gaussian",
                                 covariance=(1.0, 1e-9)), g)


def test_grid_file_round_trip(tmp_path):
    g = make_grid(1, 16)
    f = GridFunction(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    path = tmp_path / "f.sgrid"
    write_grid_function(f, path)
    back = read_grid_function(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_row_writer_matches_the_per_row_formatter(tmp_path):
    # one format pass over the interleaved floats writes the bytes that one
    # f-string per row wrote: signed zero, the smallest subnormal, the
    # largest exponents, both sides of the switch to exponent notation at
    # 1e16, and random exponents in +-300
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e15, 1e16, -1e16, 0.1]
    r = np.random.default_rng(5)
    rand = r.standard_normal(200) * 10.0 ** r.integers(-300, 301, 200)
    re = np.concatenate([special, rand])
    v = np.empty(len(re), complex)
    v.real, v.imag = re, np.roll(re, 7)
    want = "h, M=3\n" + "".join(f"{a!r},{b!r}\n"
                                for a, b in zip(v.real.tolist(), v.imag.tolist()))
    path = tmp_path / "rows.txt"
    data = _write_rows(path, "h, M=3", v)
    assert data == want.encode("utf-8") and path.read_bytes() == data


def test_grid_file_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.sgrid"
    path.write_text("something else\n1,2\n")
    with pytest.raises(ValueError):
        read_grid_function(path)


@pytest.mark.filterwarnings("error")
def test_grid_file_rejects_a_header_without_values(tmp_path):
    path = tmp_path / "empty.sgrid"
    path.write_text("symplecta-grid v1, n=1, N=0\n")
    with pytest.raises(ValueError, match="'symplecta-grid v1, n=1, N=0' declares no values"):
        read_grid_function(path)


def test_spec_params_defaults_and_validation():
    center, cov, hermite = _spec_params(SymbolSpec(kind="gaussian"), 2)
    assert np.array_equal(center, np.zeros(2)) and np.array_equal(cov, np.eye(2))
    assert hermite == ()
    center, cov, hermite = _spec_params(
        SymbolSpec(kind="hermite-gaussian", center=(0.5, -0.5), covariance=(2.0, 0.5)), 2)
    assert np.array_equal(center, [0.5, -0.5])
    assert np.array_equal(cov, np.diag([4.0, 0.25])) and hermite == (1, 1)
    with pytest.raises(ValueError, match="center must have 2 entries"):
        _spec_params(SymbolSpec(kind="gaussian", center=(0.5,)), 2)
    with pytest.raises(ValueError, match="hermite_index must have at most 2 entries"):
        _spec_params(SymbolSpec(kind="hermite-gaussian", hermite_index=(1, 1, 1)), 2)
