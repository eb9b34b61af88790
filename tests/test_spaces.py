import functools
import re
import threading

import numpy as np
import pytest

from symplecta import spaces
from symplecta.calculus import lambda_transform
from symplecta.grid import GridFunction, make_grid, pullback
from symplecta.spaces import (_CHUNK_ELEMS, WeightSpec, WindowSpec, _run_chunks,
                              _fd_derivatives, _stft_lp, _window_factors, chirp_TA,
                              dilation_ratio, embedding_bound, modulation_norm,
                              modulation_norms, sobolev_k_norm, trig_resample,
                              window_values)

from conftest import (SUITE_T, dense_modulation_norms, dense_stft_lp, dense_window, make_ctx,
                      set_workers)

rng = np.random.default_rng(61)
H = lambda N: np.sqrt(2 * np.pi / N)


def axis(N):
    return (np.arange(N) - N // 2) * H(N)


def gauss1d(N, width=1.0, center=0.0, freq=0.0):
    x = axis(N)
    return (np.exp(-(x - center) ** 2 / (2 * width ** 2))
            * np.exp(1j * freq * x)).astype(complex)


def test_window_validation():
    with pytest.raises(ValueError):
        WindowSpec(kind="boxcar")
    with pytest.raises(ValueError):
        window_values(WindowSpec(center=(1e6,)), 1, 16)


def test_weight_spec_peetre_defaults_and_validation():
    k = WeightSpec(((1, 2.0),))
    assert k.dim == 1
    assert abs(k.C - 2.0) < 1e-12
    assert abs(k.Nexp - 2.0) < 1e-12
    pts = np.array([[0.0], [1.0], [3.0]])
    want = (1 + pts[:, 0] ** 2) ** 1.0
    assert np.abs(k.values(pts) - want).max() < 1e-12
    with pytest.raises(ValueError):
        WeightSpec(())


def test_anisotropic_weight_blocks():
    k = WeightSpec(((2, 1.0), (1, -0.5)))
    assert k.dim == 3
    p = np.array([1.0, 2.0, 3.0])
    want = (1 + 5.0) ** 0.5 * (1 + 9.0) ** (-0.25)
    assert abs(k.values(p) - want) < 1e-12


@pytest.mark.parametrize("t", [3000.0, -3000.0, 1000.0, np.inf, np.nan])
def test_weight_spec_rejects_exponents_it_cannot_represent(t):
    with pytest.raises(ValueError, match=re.escape(f"weight anisotropy {((1, t),)}")):
        WeightSpec(((1, t),))


def test_weight_spec_keeps_the_constants_of_representable_exponents():
    assert WeightSpec(((1, 2.0),)).C == 2.0
    assert WeightSpec(((2, 1.0), (1, -0.5))).C == 2.0 ** 0.5 * 2.0 ** 0.25
    assert WeightSpec(((1, 100.0),)).C == 2.0 ** 50


def test_stft_matches_dense_oracle():
    # independent reference: explicit loop over shifts with a dense DFT
    N = 16
    u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    chi = dense_window(WindowSpec(), 1, N)
    h = H(N)
    x = axis(N)
    F = np.exp(-1j * np.outer(x, x)) / np.sqrt(N)
    uhat = F @ np.fft.fftshift(np.fft.ifftshift(u))  # == centered DFT of u
    slices = np.empty(N)
    for s in range(N):
        win = chi[(np.arange(N) - (s - N // 2)) % N]
        v = F.conj().T @ (win * uhat)
        slices[s] = (np.abs(v) ** 2).sum() ** 0.5 * h ** 0.5
    want = (np.sum(slices ** 2) * h) ** 0.5
    got = modulation_norm(u, WindowSpec(), 2, 2)
    assert abs(got - want) / want < 1e-10


# (d, window) cases for the dense oracle; modulation_norms takes product
# windows only, so every covariance is diagonal
ORACLE_WINDOWS = [
    pytest.param(1, WindowSpec(), id="d1-default"),
    pytest.param(1, WindowSpec(center=(0.4,), covariance=(1.3,)), id="d1-off-centre"),
    pytest.param(1, WindowSpec(kind="hermite-gaussian", hermite_index=(2,)),
                 id="d1-hermite"),
    pytest.param(2, WindowSpec(), id="d2-default"),
    pytest.param(2, WindowSpec(center=(0.4, -0.3), covariance=(1.3, 0.8)),
                 id="d2-off-centre"),
    pytest.param(2, WindowSpec(kind="hermite-gaussian", hermite_index=(1, 2)),
                 id="d2-hermite"),
]
ORACLE_PAIRS = [(p, q) for p in (1, 2, 3, np.inf) for q in (1, 2, np.inf)]


def oracle_input(N, d, seed=7):
    """A tilted, modulated, off-centre Gaussian plus complex noise."""
    mesh = np.meshgrid(*([axis(N)] * d), indexing="ij")
    z = sum((m - 0.2 * (j + 1)) ** 2 for j, m in enumerate(mesh))
    phase = sum((0.3 - 0.2 * j) * m for j, m in enumerate(mesh))
    noise = np.random.default_rng(seed).standard_normal((2,) + (N,) * d)
    return (np.exp(-z / 2.4) * (1 + 0.2 * mesh[0]) * np.exp(1j * phase)
            + 0.01 * (noise[0] + 1j * noise[1]))


@pytest.mark.parametrize("d, window", ORACLE_WINDOWS)
def test_modulation_norms_match_dense_oracle(d, window):
    N = 24 if d == 1 else 16
    u = oracle_input(N, d)
    got = modulation_norms(u, window, ORACLE_PAIRS)
    want = dense_modulation_norms(u, window, ORACLE_PAIRS)
    for pq in ORACLE_PAIRS:
        assert abs(got[pq] - want[pq]) <= 1e-12 * want[pq], pq


def test_modulation_norms_reject_a_full_covariance_window():
    # a non-diagonal covariance does not factor over the axes; a product
    # input takes the product route and must be rejected all the same
    full = WindowSpec(covariance=(1.2, 0.3, 0.3, 0.9))
    for u in (oracle_input(16, 2), product(16, 2)):
        with pytest.raises(ValueError, match="window covariance must be diagonal"):
            modulation_norms(u, full, ORACLE_PAIRS)


def test_modulation_norms_reject_a_window_that_grows():
    # a negative variance makes the window grow along its axis
    grows = WindowSpec(covariance=(1, 0, 0, -1))
    with pytest.raises(ValueError, match=r"covariance \(1, 0, 0, -1\) is not a finite"):
        modulation_norms(oracle_input(16, 2), grows, ORACLE_PAIRS)


def test_embedding_bound_rejects_a_full_covariance_window():
    full = WindowSpec(covariance=(1.2, 0.3, 0.3, 0.9))
    with pytest.raises(ValueError, match="window covariance must be diagonal"):
        embedding_bound(WeightSpec(((2, 3.0),)), full, 1, 16)


def test_window_factors_only_for_diagonal_covariance():
    full = WindowSpec(covariance=(1.2, 0.3, 0.3, 0.9))
    with pytest.raises(ValueError, match="window covariance must be diagonal"):
        _window_factors(full, 2, 16)
    diag = WindowSpec(kind="hermite-gaussian", center=(0.4, -0.3),
                      covariance=(1.2, 0.0, 0.0, 0.9))
    f = _window_factors(diag, 2, 16)
    want = dense_window(diag, 2, 16)
    assert np.abs(np.multiply.outer(f[0], f[1]) - want).max() < 1e-15
    assert np.abs(window_values(diag, 2, 16) - want).max() < 1e-15
    with pytest.raises(ValueError):
        _window_factors(WindowSpec(center=(1e6, 0.0)), 2, 16)


def test_stft_chunk_boundaries_match_dense_oracle_at_n128():
    # N = 128, d = 2 runs in chunks of the leading shift axis; a single chunk
    # would hold N^4 complex values (4 GB), so the rows on either side of the
    # chunk boundaries are checked against the oracle instead
    N, ps = 128, [1]
    chunk = max(1, _CHUNK_ELEMS // N ** 3)
    assert 1 <= chunk < N
    u = oracle_input(N, 2)
    got = _stft_lp(u, _window_factors(WindowSpec(), 2, N), ps)
    rows = [0, chunk - 1, chunk, N // 2 - 1, N // 2, N - 1]
    shifts = (np.asarray(rows)[:, None] * N + np.arange(N)).ravel()
    want = dense_stft_lp(u, dense_window(WindowSpec(), 2, N), ps, shifts)
    for p in ps:
        assert np.abs(got[p][shifts] - want[p]).max() <= 1e-12 * want[p].max(), p


def test_stft_sub_range_boundaries_match_dense_oracle_at_n128():
    # one leading shift of N = 128, d = 2 is N^3 values, above the budget, so
    # the last stage runs over sub-ranges of the last shift axis; the shifts
    # on either side of a sub-range boundary are checked against the oracle
    N, ps = 128, [1]
    sub = min(N, max(1, _CHUNK_ELEMS // N ** 2))
    assert 1 <= sub < N
    u = oracle_input(N, 2)
    got = _stft_lp(u, _window_factors(WindowSpec(), 2, N), ps)
    shifts = [s0 * N + t for s0 in (0, 1, N - 1) for t in (0, sub - 1, sub, N - 1)]
    want = dense_stft_lp(u, dense_window(WindowSpec(), 2, N), ps, shifts)
    for p in ps:
        assert np.abs(got[p][shifts] - want[p]).max() <= 1e-12 * want[p].max(), p


@pytest.mark.parametrize("d, N", [(1, 40), (2, 40), (2, 64), (3, 8)])
def test_stft_is_identical_for_any_chunk_budget(monkeypatch, d, N):
    # each value comes from the same multiply, row FFT and row reduction
    # however the shifts are cut into chunks and sub-ranges
    ps = [1, 3, np.inf]
    u = oracle_input(N, d)
    factors = _window_factors(WindowSpec(), d, N)
    got = {}
    for budget in (1 << 10, 1 << 16, 1 << 22):
        monkeypatch.setattr(spaces, "_CHUNK_ELEMS", budget)
        got[budget] = _stft_lp(u, factors, ps)
    for p in ps:
        assert np.array_equal(got[1 << 10][p], got[1 << 16][p]), p
        assert np.array_equal(got[1 << 22][p], got[1 << 16][p]), p


def test_stft_keeps_every_transform_within_the_chunk_budget(monkeypatch):
    # N = 64, d = 2: one row of N^2 = 4096 values fits a budget of 1 << 12,
    # so no array handed to the inverse FFT may be larger
    N, budget = 64, 1 << 12
    monkeypatch.setattr(spaces, "_CHUNK_ELEMS", budget)
    sizes, ifft = [], np.fft.ifft

    def recorded(a, *args, **kwargs):
        sizes.append(a.size)
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recorded)
    _stft_lp(oracle_input(N, 2), _window_factors(WindowSpec(), 2, N), [1])
    assert sizes and max(sizes) <= budget


def test_stft_is_identical_for_one_and_two_workers(monkeypatch):
    # N = 40, d = 2 runs in forty chunks of one leading shift each
    N, ps = 40, [1, 3, np.inf]
    u = oracle_input(N, 2)
    factors = _window_factors(WindowSpec(), 2, N)
    got = {}
    for k in (1, 2):
        set_workers(monkeypatch, k)
        got[k] = _stft_lp(u, factors, ps)
    for p in ps:
        assert np.array_equal(got[1][p], got[2][p]), p


def test_chunk_runner_uses_the_pool_and_reraises(monkeypatch):
    set_workers(monkeypatch, 2)
    seen = []

    def body(s0):
        seen.append((s0, threading.get_ident()))

    _run_chunks(body, range(0, 12, 3))
    assert sorted(s0 for s0, _ in seen) == [0, 3, 6, 9]
    assert threading.get_ident() not in {t for _, t in seen}

    def failing(s0):
        if s0 == 6:
            raise FloatingPointError(f"chunk {s0}")

    with pytest.raises(FloatingPointError, match="chunk 6"):
        _run_chunks(failing, range(0, 12, 3))


BAD_EXPONENTS = [(0, 1), (1, 0), (-1, 1), (1, -2), (np.nan, 1), (1, np.nan)]


@pytest.mark.parametrize("p, q", BAD_EXPONENTS)
def test_modulation_norms_reject_exponents_outside_zero_inf(p, q):
    bad = "p" if not 0 < p <= np.inf else "q"
    u = gauss1d(16)
    with pytest.raises(ValueError, match=f"exponent {bad} ="):
        modulation_norms(u, WindowSpec(), [(1, 1), (p, q)])
    with pytest.raises(ValueError, match=f"exponent {bad} ="):
        modulation_norm(u, WindowSpec(), p, q)


# (d, N) of the product-rule cases: every d-dimensional pass at d = 2, and
# d = 4 at the N of the n = 2 report
PRODUCT_CASES = [(2, 16), (2, 40), (2, 64), (4, 8)]
PRODUCT_PAIRS = [(p, q) for p in (1, 2, 3, np.inf) for q in (1, 2, 3, np.inf)]


def product_factors(N, d):
    """d different off-centre, modulated 1-D Gaussians plus complex noise."""
    noise = np.random.default_rng(d * N).standard_normal((2, d, N))
    return [gauss1d(N, 0.9 + 0.15 * a, center=0.3 - 0.2 * a, freq=0.5 - 0.3 * a)
            + 0.01 * (noise[0, a] + 1j * noise[1, a]) for a in range(d)]


def product(N, d):
    return functools.reduce(np.multiply.outer, product_factors(N, d))


def product_windows(d):
    return [WindowSpec(),
            WindowSpec(kind="hermite-gaussian", center=tuple(0.4 - 0.3 * np.arange(d)),
                       covariance=tuple(1.3 - 0.2 * np.arange(d)),
                       hermite_index=(1,) * d)]


def full_pass(monkeypatch):
    """Make modulation_norms take the d-dimensional pass for every input."""
    monkeypatch.setattr(spaces, "_tensor_factors", lambda uvals: None)


@pytest.mark.parametrize("d, N", PRODUCT_CASES)
def test_product_path_matches_the_full_pass(monkeypatch, d, N):
    u = product(N, d)
    for window in product_windows(d):
        dims = stft_dims(monkeypatch)
        got = modulation_norms(u, window, PRODUCT_PAIRS)
        assert dims == [1] * d
        full_pass(monkeypatch)
        want = modulation_norms(u, window, PRODUCT_PAIRS)
        monkeypatch.undo()
        assert got.keys() == want.keys()
        for pq in PRODUCT_PAIRS:
            assert abs(got[pq] - want[pq]) <= 1e-14 * want[pq], (window.kind, pq)


def test_product_path_rejects_a_full_covariance_window():
    cov = np.diag([1.2, 0.9, 1.1, 0.8])
    cov[0, 3] = cov[3, 0] = 0.3
    with pytest.raises(ValueError, match="window covariance must be diagonal"):
        modulation_norms(product(8, 4), WindowSpec(covariance=tuple(cov.ravel())),
                         PRODUCT_PAIRS)


@pytest.mark.parametrize("p, q", BAD_EXPONENTS)
def test_product_path_rejects_the_exponents_the_full_pass_rejects(p, q):
    bad = "p" if not 0 < p <= np.inf else "q"
    u = product(8, 4)
    with pytest.raises(ValueError, match=f"exponent {bad} ="):
        modulation_norms(u, WindowSpec(), [(1, 1), (p, q)])
    with pytest.raises(ValueError, match=f"exponent {bad} ="):
        modulation_norm(u, WindowSpec(), p, q)


def test_a_repeated_pair_is_taken_once_on_both_routes():
    for u in (product(16, 2), oracle_input(16, 2)):
        once = modulation_norms(u, WindowSpec(), [(1, 1)])
        assert modulation_norms(u, WindowSpec(), [(1, 1), (1, 1)]) == once


def stft_dims(monkeypatch):
    """Spy on spaces._stft_lp; return the list of the input dimensions it sees."""
    dims, stft = [], spaces._stft_lp

    def recorded(uvals, *args):
        dims.append(uvals.ndim)
        return stft(uvals, *args)

    monkeypatch.setattr(spaces, "_stft_lp", recorded)
    return dims


@pytest.mark.parametrize("d, N", [(2, 16), (2, 40), (4, 8)])
def test_exact_products_take_the_product_route(monkeypatch, d, N):
    u = product(N, d)
    dims = stft_dims(monkeypatch)
    got = modulation_norms(u, WindowSpec(), ORACLE_PAIRS)
    assert dims == [1] * d
    want = dense_modulation_norms(u, WindowSpec(), ORACLE_PAIRS)
    for pq in ORACLE_PAIRS:
        assert abs(got[pq] - want[pq]) <= 1e-12 * want[pq], pq


def moved_product(N, d):
    """An exact product with one value moved by 1e-12 max |u|."""
    u = product(N, d)
    u[(1,) * d] += 1e-12 * np.abs(u).max()
    return u


@pytest.mark.parametrize("u", [moved_product(16, 2), moved_product(40, 2), moved_product(8, 4),
                               oracle_input(16, 2)],
                         ids=["moved-d2-N16", "moved-d2-N40", "moved-d4-N8", "oracle-input"])
def test_a_non_product_takes_the_full_pass(monkeypatch, u):
    dims = stft_dims(monkeypatch)
    modulation_norms(u, WindowSpec(), PRODUCT_PAIRS)
    assert dims == [u.ndim]


def criterion09_member(N):
    """A tilted, modulated, off-centre Gaussian symbol in the shape of
    acceptance criterion 09: a product of functions of x and of xi."""
    pg = make_grid(1, N)
    pts = pg.points()
    z = pts - np.array([0.3, -0.1])
    vals = (np.exp(-(z ** 2).sum(1) / (2 * 1.1 ** 2)) * (1 + 0.2 * pts[:, 0])
            * np.exp(1j * (pts @ np.array([0.2, 0.25]))))
    return GridFunction(pg, vals)


@pytest.mark.parametrize("T, route", [("half", [1, 1]), ("unit", [1, 1]), ("upper", [2]),
                                      ("diag37", [2]), ("general", [2])])
def test_lambda_transform_route_follows_sigma_self_adjointness(monkeypatch, T, route):
    # T = T^sigma (T = I/2, I) gives lam = 1 and a scalar S, so the transform
    # a o S of a product is a product; the other maps mix the axes
    b = lambda_transform(make_ctx(SUITE_T[T], N=40), criterion09_member(40))
    dims = stft_dims(monkeypatch)
    got = modulation_norms(b, WindowSpec(), [(1, 1), (2, 1)])
    assert dims == route
    if route == [1, 1]:
        full_pass(monkeypatch)
        want = modulation_norms(b, WindowSpec(), [(1, 1), (2, 1)])
        for pq in got:
            assert abs(got[pq] - want[pq]) <= 1e-14 * want[pq], pq


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("where", [(0, 0), (3, 5), "pivot"])
def test_a_nan_takes_the_full_pass(monkeypatch, where):
    u = product(16, 2)
    u[np.unravel_index(np.argmax(np.abs(u)), u.shape) if where == "pivot" else where] = np.nan
    dims = stft_dims(monkeypatch)
    got = modulation_norms(u, WindowSpec(), ORACLE_PAIRS)
    assert dims == [2]
    full_pass(monkeypatch)
    want = modulation_norms(u, WindowSpec(), ORACLE_PAIRS)
    assert got.keys() == want.keys()
    assert np.array_equal(list(got.values()), list(want.values()), equal_nan=True)


@pytest.mark.filterwarnings("error")
def test_an_all_zero_array_takes_the_full_pass(monkeypatch):
    dims = stft_dims(monkeypatch)
    got = modulation_norms(np.zeros((16, 16)), WindowSpec(), ORACLE_PAIRS)
    assert dims == [2]
    assert got == dict.fromkeys(ORACLE_PAIRS, 0.0)


def test_a_non_cubical_product_is_rejected():
    u = np.multiply.outer(gauss1d(16), gauss1d(12))
    with pytest.raises(ValueError, match="expected a cubical lattice"):
        modulation_norms(u, WindowSpec(), ORACLE_PAIRS)


@pytest.mark.parametrize("p, q", BAD_EXPONENTS)
def test_a_product_is_checked_for_its_exponents_first(monkeypatch, p, q):
    bad = "p" if not 0 < p <= np.inf else "q"
    dims = stft_dims(monkeypatch)
    u = product(16, 2)
    with pytest.raises(ValueError, match=f"exponent {bad} ="):
        modulation_norms(u, WindowSpec(), [(1, 1), (p, q)])
    assert dims == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u", [product(16, 2),
                               oracle_input(16, 2)], ids=["product", "non-product"])
def test_a_window_that_overflows_is_rejected_on_both_routes(u):
    # He_400 overflows on the lattice; both routes read _window_factors
    window = WindowSpec(kind="hermite-gaussian", hermite_index=(400, 1))
    with pytest.raises(ValueError, match=r"window WindowSpec\(.*400, 1\)\) is not finite"):
        modulation_norms(u, window, [(1, 1)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u", [product(40, 2),
                               oracle_input(40, 2)], ids=["product", "non-product"])
def test_a_window_whose_norms_overflow_is_rejected_on_both_routes(monkeypatch, u):
    # He_150 peaks near 6e130 at N = 40: finite, but |.|^3 of its transform is
    # not; the non-product pass runs its chunks on a pool of two workers
    set_workers(monkeypatch, 2)
    window = WindowSpec(kind="hermite-gaussian", hermite_index=(150, 150))
    with pytest.raises(ValueError, match=r"finite input is not finite under window "
                                         r"WindowSpec\(.*150, 150\)\)"):
        modulation_norms(u, window, [(1, 1), (3, 1), (2, 2)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u", [product(16, 4),
                               oracle_input(16, 4)], ids=["product", "non-product"])
def test_a_window_whose_peak_overflows_is_rejected_on_both_routes(u):
    # every factor is finite, but their peaks multiply past the float range
    window = WindowSpec(kind="hermite-gaussian", hermite_index=(150,) * 4)
    with pytest.raises(ValueError, match=r"window WindowSpec\(.*150\)\) is not finite"):
        modulation_norms(u, window, [(1, 1)])


@pytest.mark.parametrize("p", [0, -1, np.nan])
def test_sobolev_norm_rejects_exponents_outside_zero_inf(p):
    with pytest.raises(ValueError, match="exponent p ="):
        sobolev_k_norm(gauss1d(16), WeightSpec(((1, 2.0),)), p)


def test_sobolev_norm_rejects_a_weight_of_another_dimension():
    u = np.outer(gauss1d(16), gauss1d(16))
    with pytest.raises(ValueError, match="weight dimension mismatch"):
        sobolev_k_norm(u, WeightSpec(((1, 2.0),)), 2)


@pytest.mark.parametrize("u", [np.complex128(1), np.zeros(0)], ids=["0-d", "empty"])
@pytest.mark.parametrize("call", [
    lambda u: modulation_norms(u, WindowSpec(), [(2, 2)]),
    lambda u: sobolev_k_norm(u, WeightSpec(((1, 2.0),)), 2),
    lambda u: dilation_ratio(u, 2.0, 2, 2),
    lambda u: chirp_TA(np.eye(1), u)],
    ids=["modulation_norms", "sobolev_k_norm", "dilation_ratio", "chirp_TA"])
def test_a_0d_or_empty_input_is_rejected(call, u):
    with pytest.raises(ValueError, match=rf"got shape {re.escape(str(u.shape))}"):
        call(u)


def test_m22_proportional_to_l2():
    N = 32
    h = H(N)
    ratios = []
    for _ in range(4):
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        l2 = (np.abs(u) ** 2).sum() ** 0.5 * h ** 0.5
        ratios.append(modulation_norm(u, WindowSpec(), 2, 2) / l2)
    assert max(ratios) - min(ratios) < 1e-6 * max(ratios)


def test_modulation_norm_nesting_for_gaussians():
    N = 32
    for k in range(4):
        u = gauss1d(N, 1.0 + 0.2 * k, center=0.3 * k, freq=0.4 * k)
        m = modulation_norms(u, WindowSpec(), [(1, 1), (2, 1), (np.inf, np.inf)])
        assert m[(np.inf, np.inf)] <= m[(2, 1)] <= m[(1, 1)]


def test_modulation_norm_of_zero_and_shared_pass():
    u = np.zeros(16, complex)
    assert modulation_norm(u, WindowSpec(), 2, 2) == 0.0
    v = gauss1d(16)
    both = modulation_norms(v, WindowSpec(), [(1, 1), (2, 1)])
    assert abs(both[(1, 1)] - modulation_norm(v, WindowSpec(), 1, 1)) < 1e-12
    assert abs(both[(2, 1)] - modulation_norm(v, WindowSpec(), 2, 1)) < 1e-12


def test_window_independence_of_norm_up_to_constants():
    # equivalent norms: the ratio across two fixed windows stays in a narrow band
    N = 32
    w1 = WindowSpec()
    w2 = WindowSpec(covariance=(1.5,))
    ratios = []
    for k in range(5):
        u = gauss1d(N, 0.9 + 0.2 * k, center=0.2 * k, freq=0.3 * k)
        ratios.append(modulation_norm(u, w1, 1, 1) / modulation_norm(u, w2, 1, 1))
    assert max(ratios) / min(ratios) < 1.5


def test_sobolev_norm_matches_dense_frequency_oracle():
    N = 32
    k = WeightSpec(((1, 2.0),))
    u = gauss1d(N, 1.1, center=0.2)
    x = axis(N)
    F = np.exp(-1j * np.outer(x, x)) / np.sqrt(N)
    uhat = F @ u
    out = F.conj().T @ ((1 + x ** 2) * uhat)
    want = ((np.abs(out) ** 2).sum() * H(N)) ** 0.5
    got = sobolev_k_norm(u, k, 2)
    assert abs(got - want) / want < 1e-8


def test_embedding_bound_dominates_modulation_norm():
    N = 64
    k = WeightSpec(((1, 2.0),))
    w = WindowSpec()
    c = embedding_bound(k, w, 1, N)
    for j in range(5):
        u = gauss1d(N, 1.0 + 0.1 * j, center=0.3 * j, freq=0.4 * j)
        lhs = modulation_norm(u, w, np.inf, 1)
        rhs = c * sobolev_k_norm(u, k, np.inf)
        assert lhs <= rhs


def test_embedding_precondition_rejects_non_integrable_weight():
    with pytest.raises(ValueError, match="block"):
        embedding_bound(WeightSpec(((1, 0.5),)), WindowSpec(), 1, 32)


@pytest.mark.parametrize("q", [np.nan, 0, -1])
def test_embedding_bound_rejects_exponents_outside_zero_inf(q):
    with pytest.raises(ValueError, match="exponent q ="):
        embedding_bound(WeightSpec(((1, 2.0),)), WindowSpec(), q, 16)


def test_dilation_identity_and_validation():
    u = gauss1d(32)
    out = dilation_ratio(u, 1.0, 1, 1)
    assert abs(out["measured"] - 1.0) < 1e-10
    assert abs(out["bound_shape"] - 2.0) < 1e-12
    with pytest.raises(ValueError):
        dilation_ratio(u, 0.0, 1, 1)
    with pytest.raises(ValueError):
        dilation_ratio(np.zeros(32, complex), 1.0, 1, 1)


def test_dilation_bound_shape_exponents():
    u = gauss1d(32)
    out = dilation_ratio(u, 2.0, 2, 1)
    # |det|^{-1/p - 1/q'} (1 + ||lam||)^d with q' = inf
    assert abs(out["bound_shape"] - 2.0 ** (-0.5) * 3.0) < 1e-12


def test_trig_resample_identity_and_diagonal_vs_dense():
    N = 16
    u = np.outer(gauss1d(N, 1.2), gauss1d(N, 0.8))
    assert np.abs(trig_resample(u, np.eye(2)) - u).max() < 1e-10
    A = np.diag([0.5, 1.5])
    fast = trig_resample(u, A)
    B = A + 1e-5 * np.array([[0.0, 1.0], [1.0, 0.0]])  # forces the dense path
    dense = trig_resample(u, B)
    assert np.abs(fast - dense).max() < 1e-3


@pytest.mark.parametrize("A", [np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]],
                               np.full((2, 2), np.nan)], ids=["zero", "rank-one", "nan"])
def test_trig_resample_rejects_a_singular_or_non_finite_map(A):
    u = np.outer(gauss1d(8), gauss1d(8))
    with pytest.raises(ValueError, match="singular"):
        trig_resample(u, A)


@pytest.mark.parametrize("call, A", [
    (lambda u, A: pullback(A, GridFunction(make_grid(1, 8), u)), np.eye(3)),
    (lambda u, A: pullback(A, GridFunction(make_grid(1, 8), u)), 2 * np.eye(1)),
    (trig_resample, np.eye(3)),
    (lambda u, A: dilation_ratio(u, A, 1, 1), np.eye(3))],
    ids=["pullback-3x3", "pullback-1x1", "trig_resample", "dilation_ratio"])
def test_resampling_refuses_a_map_of_another_shape(call, A):
    u = np.outer(gauss1d(8), gauss1d(8))
    with pytest.raises(ValueError, match=r"^resampling map must be 2 x 2, got shape "
                                         rf"\({', '.join(map(str, A.shape))},?\)"):
        call(u, A)
    # the scalar lambda of dilation_ratio is the multiple of the identity
    assert dilation_ratio(u, 2.0, 1, 1) == dilation_ratio(u, 2.0 * np.eye(2), 1, 1)


def test_chirp_is_invertible_and_support_preserving():
    N = 32
    uhat = np.zeros((N, N), complex)
    uhat[10:20, 12:18] = rng.standard_normal((10, 6))
    sh = np.fft.fftshift, np.fft.ifftshift
    u = sh[0](np.fft.ifftn(sh[1](uhat)))
    A = np.array([[1.0, 0.3], [0.3, 2.0]])
    v = chirp_TA(A, u)
    back = chirp_TA(-A, v)
    assert np.abs(back - u).max() < 1e-10
    # Fourier-side multiplier: the frequency support is preserved exactly...
    vhat = sh[0](np.fft.fftn(sh[1](v)))
    mask = uhat == 0.0
    assert np.abs(vhat[mask]).max() < 1e-10
    # ...and the operator is unitary
    assert abs(np.linalg.norm(v) - np.linalg.norm(u)) < 1e-10


def test_chirp_validation():
    u = np.ones((8, 8), complex)
    with pytest.raises(ValueError):
        chirp_TA(np.array([[1.0, 0.5], [0.0, 1.0]]), u)  # not symmetric
    with pytest.raises(ValueError):
        chirp_TA(np.zeros((2, 2)), u)
    with pytest.raises(ValueError):
        chirp_TA(np.eye(3), u[0])
    with pytest.raises(ValueError, match="A must be square"):
        chirp_TA(np.ones((2, 3)), u)


def test_chirped_gaussians_stay_modulation_bounded():
    N = 32
    u = gauss1d(N).reshape(1, N) * gauss1d(N).reshape(N, 1)
    base = modulation_norm(u, WindowSpec(), 1, 1)
    for t in (0.5, 1.0, 2.0):
        A = np.array([[t, 0.0], [0.0, 1.0 / t]])
        v = chirp_TA(A, u)
        assert modulation_norm(v, WindowSpec(), 1, 1) < 20 * base


def test_fd_derivatives_order_and_core():
    N, h = 16, H(16)
    x = axis(N)
    vals = np.add.outer(x ** 3, x)  # x^3 + y
    out = list(_fd_derivatives(vals, h, 2, margin=2))
    assert [alpha for alpha, _, _ in out] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
                                              (2, 0)]
    for alpha, core, da in out:
        assert core == (slice(2, N - 2),) * 2 and da.shape == (N - 4, N - 4)
    xc = x[2:N - 2]
    dx = dict((alpha, da) for alpha, _, da in out)
    assert np.abs(dx[(0, 1)] - 1).max() < 1e-12
    assert np.abs(dx[(1, 0)] - (3 * xc ** 2 + h ** 2)[:, None]).max() < 1e-12
    assert np.abs(dx[(1, 1)]).max() < 1e-12


def test_embedding_bound_needs_a_lattice_interior():
    with pytest.raises(ValueError, match="N = 6 leaves no lattice interior"):
        embedding_bound(WeightSpec(((1, 2.0),)), WindowSpec(), 1, 6)
    assert np.isfinite(embedding_bound(WeightSpec(((1, 2.0),)), WindowSpec(), 1, 8))


def test_singularity_test_is_scale_free():
    u = np.ones((8, 8), complex)
    # uniformly tiny but well conditioned: accepted, and the chirp stays unitary
    v = chirp_TA(np.array([[1e-13]]), u[0])
    assert abs(np.linalg.norm(v) - np.linalg.norm(u[0])) < 1e-10
    out = dilation_ratio(np.outer(gauss1d(16), gauss1d(16)), 1e-7 * np.eye(2), 1, 1)
    assert np.isfinite(out["measured"]) and np.isfinite(out["bound_shape"])
    # large determinant but condition 1e13: rejected
    with pytest.raises(ValueError, match="A must be invertible"):
        chirp_TA(np.diag([1e8, 1e-5]), u)
    with pytest.raises(ValueError, match="A must be invertible"):
        chirp_TA(np.array([[np.nan]]), u[0])
