import numpy as np
import pytest

from conftest import (DENSE_ORACLE_CASES, NEAR_DIAGONAL_T2, SUITE_T, gaussian, make_ctx,
                      unit_gaussians_1d)
from symplecta import katoschatten, spaces
from symplecta.calculus import quantize_T
from symplecta.grid import (GridFunction, make_grid, sigma_convolve, symplectic_fourier,
                            translate)
from symplecta.katoschatten import (NormReport, _cell_reps, _relative_residual, bound_suite,
                                    conjugation_coefficient_residual,
                                    kato_identity_residual, kato_synthesis,
                                    majorization_residual,
                                    multiplier_identity_residual,
                                    polar_absolute_values, schatten_norm)
from symplecta.weylrep import matrix_coefficient, u_conjugator, u_conjugator_batch

rng = np.random.default_rng(71)


def test_schatten_norm_rank_one():
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    A = np.outer(u, v.conj())
    want = np.linalg.norm(u) * np.linalg.norm(v)
    for p in (1, 2, 3, np.inf):
        assert abs(schatten_norm(A, p).norm - want) < 1e-10


def test_schatten_norm_diagonal_values():
    A = np.diag([3.0, 4.0])
    assert abs(schatten_norm(A, 1).norm - 7.0) < 1e-12
    assert abs(schatten_norm(A, 2).norm - 5.0) < 1e-12
    assert abs(schatten_norm(A, np.inf).norm - 4.0) < 1e-12


def test_schatten_norm_unitary_and_monotonicity():
    N = 16
    x = (np.arange(N) - N // 2) * np.sqrt(2 * np.pi / N)
    F = np.exp(-1j * np.outer(x, x)) / np.sqrt(N)
    s = schatten_norm(F, 2).singular_values
    assert np.abs(s - 1.0).max() < 1e-10
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    norms = [schatten_norm(A, p).norm for p in (1, 2, 4, np.inf)]
    assert norms == sorted(norms, reverse=True)
    assert abs(schatten_norm(A, 2).norm - np.linalg.norm(A)) < 1e-10


def test_schatten_norm_validation():
    with pytest.raises(ValueError):
        schatten_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]), 2)
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.5)


def test_synthesis_linearity_and_zero_density():
    ctx = make_ctx(SUITE_T["half"], N=16)
    g = ctx.phase_grid
    G = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    zero = GridFunction(g, np.zeros((16, 16)))
    assert np.abs(kato_synthesis(ctx, zero, G)).max() == 0.0
    b1 = gaussian(g, 1.0)
    b2 = gaussian(g, 0.8, center=(0.4, 0.0))
    comb = GridFunction(g, 2.0 * b1.values - 0.5j * b2.values)
    lhs = kato_synthesis(ctx, comb, G)
    rhs = (2.0 * kato_synthesis(ctx, b1, G)
           - 0.5j * kato_synthesis(ctx, b2, G))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_synthesis_spec_grid_mismatch():
    ctx = make_ctx(SUITE_T["half"], N=16)
    other = gaussian(make_grid(1, 32))
    with pytest.raises(ValueError):
        kato_synthesis(ctx, other, np.eye(16))
    with pytest.raises(TypeError):
        kato_synthesis(ctx, 3.0, np.eye(16))


@pytest.mark.parametrize("name", ["half", "unit", "general"])
def test_constant_density_gives_scalar_identity(name):
    # averaging the identity's conjugates against b == 1 over the periodicity
    # cell returns detS^... * I; with the cell summation it is exactly the
    # scalar covariance integral, proportional to the identity
    ctx = make_ctx(SUITE_T[name], N=16)
    out = kato_synthesis(ctx, lambda pts: np.ones(pts.shape[0]), np.eye(16))
    off = out - np.diag(np.diag(out))
    assert np.abs(off).max() < 1e-9 * np.abs(np.diag(out)).max()
    d = np.diag(out)
    assert np.abs(d - d.mean()).max() < 1e-9 * abs(d.mean())


@pytest.mark.parametrize("T,n,N", DENSE_ORACLE_CASES)
def test_synthesis_matches_dense_conjugator_sum(T, n, N):
    ctx = make_ctx(T, N=N, n=n)
    g = ctx.phase_grid
    M = ctx.phase_grid.M
    G = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))

    def dense(pts, bv):
        U = u_conjugator_batch(ctx, pts)
        return np.einsum("i,iab,bc,idc->ad", bv, U, G, U.conj(), optimize=True) * g.weight

    b = gaussian(g, 1.0, center=(0.3,) + (-0.2,) * (g.dim - 1), tilt=0.2)
    # exact zeros at 4 in 5 points: a shift group whose densities all vanish
    # is skipped
    zeros = np.random.default_rng(5).random(b.values.shape) < 0.8
    for dens in (b, GridFunction(g, np.where(zeros, 0.0, b.values))):
        want = dense(g.points(), dens.values.ravel())
        got = kato_synthesis(ctx, dens, G)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    # callables sum over the periodicity cell (two boxes for T = I); the n = 2
    # map's cell is no integer stack of boxes, so it takes sampled densities only
    if n == 1:
        f = lambda pts: np.exp(-(pts ** 2).sum(1) / 3) * (1 + 0.1j * pts[:, 0])
        reps = _cell_reps(ctx)
        cell = np.concatenate([g.points() + (np.asarray(box) - reps // 2) * g.box_length
                               for box in np.ndindex(*reps)])
        want = dense(cell, f(cell))
        got = kato_synthesis(ctx, f, G)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_callable_density_needs_a_cell_of_whole_boxes():
    # T = 0.75 I gives A^{-1} = diag(1.5, 1): no integer stack of boxes to sum over
    ctx = make_ctx(0.75 * np.eye(2), N=16)
    assert np.allclose(np.linalg.inv(ctx.A), np.diag([1.5, 1.0]))
    with pytest.raises(ValueError, match="not an integer stack of boxes"):
        kato_synthesis(ctx, lambda pts: np.ones(len(pts)), np.eye(16))


def test_callable_density_on_a_nearly_diagonal_coupled_map_is_refused():
    # the shift groups take grid samples only; a callable sampled over the
    # periodicity cell and summed as grid samples missed b == 1's scalar
    # identity by 0.75 relative
    ctx = make_ctx(NEAR_DIAGONAL_T2, N=6, n=2)
    A = ctx.A
    assert 0 < np.abs(A - np.diag(np.diag(A))).max() < 1e-13
    with pytest.raises(ValueError, match="not an integer stack of boxes"):
        kato_synthesis(ctx, lambda pts: np.ones(len(pts)), np.eye(36))


@pytest.mark.parametrize("n,N", [(1, 16), (2, 4)])
def test_callable_density_on_the_two_box_cell_of_t_identity(n, N):
    # T = I gives S = 2I: the U-periodicity cell is two boxes along each
    # position axis, summed as extended axes by the ambiguity-domain kernel
    ctx = make_ctx(np.eye(2 * n), N=N, n=n)
    g = ctx.phase_grid
    M = ctx.phase_grid.M
    reps = _cell_reps(ctx)
    assert list(reps) == [2] * n + [1] * n
    cell = np.concatenate([g.points() + (np.asarray(box) - reps // 2) * g.box_length
                           for box in np.ndindex(*reps)])
    f = lambda pts: np.exp(-(pts ** 2).sum(1) / 4) * (1 + 0.2j * pts[:, -1])
    G = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    U = u_conjugator_batch(ctx, cell)
    want = np.einsum("i,iab,bc,idc->ad", f(cell), U, G, U.conj(), optimize=True) * g.weight
    got = kato_synthesis(ctx, f, G)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_ambiguity_sum_in_chunks_of_m(monkeypatch):
    ctx = make_ctx(0.5 * np.eye(4), N=4, n=2)
    G = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    b = gaussian(ctx.phase_grid, 1.0, center=(0.3, -0.2, 0.1, 0.0))
    whole = kato_synthesis(ctx, b, G)
    # 2N - 1 = 7 values per m axis: chunks of 2, 2, 2 and 1 leading m values
    monkeypatch.setattr(katoschatten, "_CHUNK_ELEMS", 2 * 7 ** 3)
    chunked = kato_synthesis(ctx, b, G)
    assert np.abs(chunked - whole).max() < 1e-13 * np.abs(whole).max()


def test_synthesis_preserves_positivity():
    ctx = make_ctx(SUITE_T["general"], N=16)
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    G = np.outer(u, u.conj())
    b = gaussian(ctx.phase_grid, 1.0)
    BG = kato_synthesis(ctx, b, G)
    assert np.abs(BG - BG.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(BG).min() > -1e-10


def test_identity_residual_with_delta_density():
    ctx = make_ctx(SUITE_T["half"], N=16)
    g = ctx.phase_grid
    dv = np.zeros((16, 16))
    dv[8, 8] = 1.0 / g.weight
    delta = GridFunction(g, dv)
    c = gaussian(g, 1.0, center=(0.3, 0.1))
    assert kato_identity_residual(ctx, delta, c) < 1e-9


def test_identity_residual_gaussian_densities():
    ctx = make_ctx(SUITE_T["half"], N=32)
    g = ctx.phase_grid
    b = gaussian(g, 1.0, center=(0.5, 0.0))
    c = gaussian(g, 1.0, center=(0.0, 0.3))
    assert kato_identity_residual(ctx, b, c) < 1e-6


def test_relative_residual_of_a_zero_reference(recwarn):
    A = np.arange(4.0).reshape(2, 2) + 1j
    assert _relative_residual(A, A) == 0.0
    assert _relative_residual(0 * A, 0 * A) == 0.0
    assert _relative_residual(0 * A, A) == np.inf
    assert not recwarn.list


def test_multiplier_identity_reduces_to_plain_identity():
    ctx = make_ctx(SUITE_T["half"], N=32)
    g = ctx.phase_grid
    b = gaussian(g, 1.0, center=(0.5, 0.0))
    c = gaussian(g, 1.0, center=(0.0, 0.3))
    r = multiplier_identity_residual(ctx, b, c, np.ones((32, 32)))
    assert r < 1e-6


def test_frequency_multiplier_translation_action():
    # h(xi) = e^{-i sigma(xi, zeta)} acts on symbols as translation by zeta
    g = make_grid(1, 32)
    f = gaussian(g, 1.0, tilt=0.3)
    zeta = np.array([2.0, -1.0]) * g.h
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    from symplecta.grid import apply_multiplier
    hm = lambda pts: np.exp(-1j * (pts @ (J @ zeta)))
    lhs = apply_multiplier(hm(g.points()), f)
    rhs = translate(zeta, f)
    assert np.abs(lhs.values - rhs.values).max() < 1e-10


def test_multiplier_identity_with_translation_multiplier():
    ctx = make_ctx(SUITE_T["half"], N=32)
    g = ctx.phase_grid
    b = gaussian(g, 1.0, center=(0.5, 0.0))
    c = gaussian(g, 1.0, center=(0.0, 0.3))
    zeta = np.array([1.0, 1.0]) * g.h
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    hm = lambda pts: np.exp(-1j * (pts @ (J @ zeta)))
    assert multiplier_identity_residual(ctx, b, c, hm(g.points())) < 1e-6


def test_conjugation_coefficient_formula():
    ctx = make_ctx(SUITE_T["half"], N=32)
    a = gaussian(ctx.phase_grid, 1.0, center=(0.2, -0.1))
    phi, psi = unit_gaussians_1d(32)
    samples = [(0, 0), (1, 0), (0, 1), (2, -1), (-3, 2)]
    assert conjugation_coefficient_residual(ctx, a, phi, psi, samples) < 1e-6


def test_conjugation_coefficient_residual_rejects_empty_samples():
    ctx = make_ctx(SUITE_T["half"], N=16)
    a = gaussian(ctx.phase_grid, 1.0)
    phi, psi = unit_gaussians_1d(16)
    with pytest.raises(ValueError, match="empty sample list"):
        conjugation_coefficient_residual(ctx, a, phi, psi, [])


def test_majorization_residual_rejects_empty_samples():
    with pytest.raises(ValueError, match="empty sample list"):
        majorization_residual(np.eye(4), np.eye(4), np.eye(4), [])


def test_sampled_residuals_match_a_one_sample_oracle():
    ctx = make_ctx(SUITE_T["general"], N=16)
    a = gaussian(ctx.phase_grid, 1.0, center=(0.2, -0.1))
    phi, psi = unit_gaussians_1d(16)
    idx = rng.integers(-8, 8, (12, 2))
    A = quantize_T(ctx, a)
    conv = sigma_convolve(a, symplectic_fourier(matrix_coefficient(ctx, phi, psi)))
    want = 0.0
    for i in idx:
        U = u_conjugator(ctx, i * ctx.phase_grid.h)
        lhs = np.vdot(phi, U @ A @ U.conj().T @ psi)
        want = max(want, abs(lhs - conv.values[tuple((-i + 8) % 16)]))
    got = conjugation_coefficient_residual(ctx, a, phi, psi, idx)
    assert abs(got - want) < 1e-13 and got > 0
    # a pair relation that fails on some samples, so the residual is positive
    Tm = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pairs = rng.standard_normal((30, 2, 6)) + 1j * rng.standard_normal((30, 2, 6))
    want = max(max(0.0, abs(np.vdot(u, Tm @ v)) ** 2
                   - np.vdot(u, u).real * np.vdot(v, v).real) for u, v in pairs)
    got = majorization_residual(Tm, np.eye(6), np.eye(6), pairs)
    assert want > 0 and abs(got - want) <= 1e-12 * want


def test_majorization_identity_case_and_validation():
    M = 8
    Tm = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    absTs, absT = polar_absolute_values(Tm)
    samples = [(rng.standard_normal(M) + 1j * rng.standard_normal(M),
                rng.standard_normal(M) + 1j * rng.standard_normal(M))
               for _ in range(20)]
    assert majorization_residual(Tm, absTs, absT, samples) < 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        majorization_residual(Tm, Tm, absT, samples)
    with pytest.raises(ValueError, match="positive"):
        majorization_residual(Tm, -absTs, absT, samples)


def test_polar_absolute_values_square_to_tt_star():
    Tm = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    absTs, absT = polar_absolute_values(Tm)
    assert np.abs(absTs @ absTs - Tm @ Tm.conj().T).max() < 1e-9
    assert np.abs(absT @ absT - Tm.conj().T @ Tm).max() < 1e-9


def test_synthesis_majorization_product_rule():
    # (b1 b2){G} is majorized by the pair |b1|^2{|G*|}, |b2|^2{|G|}
    ctx = make_ctx(SUITE_T["half"], N=16)
    g = ctx.phase_grid
    b1 = gaussian(g, 1.0, tilt=0.2)
    b2 = gaussian(g, 0.9, center=(0.3, 0.0))
    G = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    absGs, absG = polar_absolute_values(G)
    prod = GridFunction(g, b1.values * b2.values)
    Tm = kato_synthesis(ctx, prod, G)
    A = kato_synthesis(ctx, GridFunction(g, np.abs(b1.values) ** 2), absGs)
    B = kato_synthesis(ctx, GridFunction(g, np.abs(b2.values) ** 2), absG)
    samples = [(rng.standard_normal(16) + 1j * rng.standard_normal(16),
                rng.standard_normal(16) + 1j * rng.standard_normal(16))
               for _ in range(20)]
    assert majorization_residual(Tm, A, B, samples) < 1e-8


def test_norm_report_csv_format():
    rep = NormReport()
    rep.add("thm-n15-b", 1, 1, 0.5, 1.0)
    rep.add("thm-n7", 2, 1, 3.0, 2.0)
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "quantity,p,q,value,bound,ratio,pass"
    assert lines[1].startswith("thm-n15-b,1,1,") and lines[1].endswith(",true")
    assert lines[2].endswith(",false")
    assert not rep.all_passed()


def test_check_only_report_names_a_missing_constant():
    rep = NormReport(frozen_constants={"a": 1.0})
    assert not rep.calibrating
    assert rep.frozen("a", 5.0) == 1.0
    with pytest.raises(ValueError, match="thm-n7:p=1"):
        rep.frozen("thm-n7:p=1", 0.25)
    assert rep.frozen_constants == {"a": 1.0}


def test_calibrating_report_freezes_twice_the_first_ratio():
    rep = NormReport()
    assert rep.calibrating
    assert rep.frozen("k", 0.25) == 0.5
    assert rep.frozen("k", 0.4) == 0.5  # a later ratio does not refreeze
    assert rep.frozen_constants == {"k": 0.5}
    assert rep.calibrating


def test_bound_suite_decomposes_each_operator_once(monkeypatch):
    # one quantization and one SVD per operator serve both p = 1 and p = 2
    calls = {"schatten_norm": 0, "quantize_T": 0}
    for name in calls:
        def counted(*args, _fn=getattr(katoschatten, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(katoschatten, name, counted)
    bound_suite(make_ctx(SUITE_T["half"], N=16), NormReport(), synthesis_count=4)
    assert calls == {"schatten_norm": 19, "quantize_T": 11}


def test_bound_suite_smoke_and_refreeze():
    ctx = make_ctx(SUITE_T["half"], N=16)
    rep = bound_suite(ctx, NormReport(), synthesis_count=4)
    assert rep.all_passed()
    tags = {r.quantity for r in rep.rows}
    assert tags == {"thm-n7", "cor-n13", "thm-n15-b", "interp-mu"}
    # a second run against the frozen constants is a pure check
    rep2 = bound_suite(ctx, NormReport(frozen_constants=dict(rep.frozen_constants)),
                       synthesis_count=4)
    assert rep2.all_passed()
    assert rep2.frozen_constants == rep.frozen_constants


def stft_dims(monkeypatch):
    """Spy on spaces._stft_lp; return the list of the input dimensions it sees."""
    dims, stft_lp = [], spaces._stft_lp

    def spy(uvals, *args):
        dims.append(np.ndim(uvals))
        return stft_lp(uvals, *args)

    monkeypatch.setattr(spaces, "_stft_lp", spy)
    return dims


# bound_suite at n = 2, N = 32 takes about half a minute (eleven quantize_T
# calls of about a second each), so that size is covered member by member
@pytest.mark.parametrize("n, N", [(1, 8), (1, 32), (1, 128), (1, 256), (2, 8), (2, 16)])
def test_bound_suite_takes_no_multidimensional_stft(monkeypatch, n, N):
    # the calibration members are products: their modulation norms come from
    # 1-D passes, one per axis, never from the d-dimensional one
    dims = stft_dims(monkeypatch)
    bound_suite(make_ctx(0.5 * np.eye(2 * n), N=N, n=n), NormReport(), synthesis_count=4)
    assert dims == [1] * (10 * 2 * n)


@pytest.mark.parametrize("n, N", [(1, 16), (1, 32), (2, 8), (2, 32)])
def test_family_members_take_the_product_route(monkeypatch, n, N):
    fam = katoschatten._gauss_family(make_grid(n, N), 10)
    assert all(isinstance(a, GridFunction) for a in fam)
    dims = stft_dims(monkeypatch)
    for a in fam:
        spaces.modulation_norms(a, spaces.WindowSpec(), [(1, 1), (2, 1)])
    assert dims == [1] * (10 * 2 * n)
