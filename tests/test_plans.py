"""The kernel-plan caches of weylrep (shift chunks) and katoschatten (ambiguity
tables): warm plans give the cold results bit for bit, an equal (grid, map)
builds no second plan, cached arrays are read-only and the bounds hold."""

import numpy as np
import pytest

from conftest import MIXED_T2, SUITE_T, gaussian, make_ctx, unit_gaussians_1d
from symplecta import katoschatten, weylrep
from symplecta.calculus import quantize_T, recover_symbol
from symplecta.grid import _PLAN_BYTES, _PLAN_ENTRIES, PhaseGrid, _PlanCache
from symplecta.katoschatten import kato_synthesis
from symplecta.symplin import SymplecticSpace, nondegeneracy_gate
from symplecta.weylrep import build_rep_context, matrix_coefficient, orthogonality_integral

CASES = ([pytest.param(SUITE_T[k], 1, 16, id=k) for k in sorted(SUITE_T)]
         + [pytest.param(0.5 * np.eye(4), 2, 4, id="half-n2"),
            pytest.param(MIXED_T2, 2, 4, id="mixed-n2")])


def _caches():
    return weylrep._SHIFT_PLANS, katoschatten._AMBIGUITY_PLANS


def _results(T, n, N):
    """Every cached kernel's output on a fresh context of (T, n, N)."""
    ctx = make_ctx(T, N=N, n=n)
    grid, M = ctx.phase_grid, ctx.phase_grid.M
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    psi = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    G = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    a = gaussian(grid, 1.1, center=(0.2,) * grid.dim)
    A = quantize_T(ctx, a)
    out = {"quantize_T": A,
           "matrix_coefficient": matrix_coefficient(ctx, phi, psi).values,
           "orthogonality_integral": orthogonality_integral(ctx, phi, psi),
           "kato_synthesis/grid": kato_synthesis(ctx, a, G)}
    if n == 1:
        out["recover_symbol"] = recover_symbol(ctx, A).values
    if not np.count_nonzero(ctx.A - np.diag(np.diag(ctx.A))):  # a U-periodicity cell
        out["kato_synthesis/callable"] = kato_synthesis(
            ctx, lambda pts: np.exp(-0.5 * (pts ** 2).sum(1)), G)
    return out


@pytest.mark.parametrize("T, n, N", CASES)
def test_warm_plans_give_the_cold_results(T, n, N):
    cold = _results(T, n, N)
    assert len(weylrep._SHIFT_PLANS) > 0
    warm = _results(T, n, N)
    assert warm.keys() == cold.keys()
    for name in cold:
        assert np.array_equal(warm[name], cold[name]), name


def _count_builds(monkeypatch):
    """Count the plan builds of both caches."""
    builds = {"shift": 0, "ambiguity": 0}
    shift_chunks, ambiguity_plan = weylrep._shift_chunks, katoschatten._ambiguity_plan

    def counted_shift(*args):
        builds["shift"] += 1
        return shift_chunks(*args)

    def counted_ambiguity(*args):
        builds["ambiguity"] += 1
        return ambiguity_plan(*args)

    monkeypatch.setattr(weylrep, "_shift_chunks", counted_shift)
    monkeypatch.setattr(katoschatten, "_ambiguity_plan", counted_ambiguity)
    return builds


def _run_kernels(ctx):
    M = ctx.phase_grid.M
    phi, psi = unit_gaussians_1d(M)
    b = gaussian(ctx.phase_grid, 1.0)
    quantize_T(ctx, b)
    orthogonality_integral(ctx, phi, psi)
    kato_synthesis(ctx, b, np.outer(phi, psi.conj()))
    kato_synthesis(ctx, lambda pts: np.exp(-(pts ** 2).sum(1)), np.eye(M))


def test_equal_grid_and_map_build_no_new_plan(monkeypatch):
    builds = _count_builds(monkeypatch)
    _run_kernels(make_ctx(SUITE_T["unit"], N=16))
    # T = I: phi = diag(1, 2) and A = diag(1/2, 1), two shift plans; the box
    # and the two-box cell of A, two ambiguity plans
    first = dict(builds)
    assert first == {"shift": 2, "ambiguity": 2}
    plans = [dict(c._plans) for c in _caches()]
    # a fresh context with an equal grid and T, built from new arrays
    ctx = build_rep_context(SymplecticSpace(1), np.eye(2) * 1.0, PhaseGrid(1, 16))
    _run_kernels(ctx)
    assert builds == first
    for cache, before in zip(_caches(), plans):
        assert all(cache._plans[k][0] is p for k, (p, _) in before.items())
    # another map builds its own plans
    _run_kernels(make_ctx(SUITE_T["half"], N=16))
    assert builds["shift"] > first["shift"] and builds["ambiguity"] > first["ambiguity"]


def test_coupled_synthesis_shares_the_plan_of_the_orthogonality_integral(monkeypatch):
    # MIXED_T2's A = phi S^{-1} is coupled: kato_synthesis sums over the
    # shift groups of the A-plan that orthogonality_integral built.  Every
    # shift plan groups the grid points once, by shift and by modulation.
    groupings, distinct_rows = [], weylrep._distinct_rows
    monkeypatch.setattr(weylrep, "_distinct_rows",
                        lambda a: groupings.append(a) or distinct_rows(a))
    ctx = make_ctx(MIXED_T2, N=4, n=2)
    phi, psi = unit_gaussians_1d(ctx.phase_grid.M)
    orthogonality_integral(ctx, phi, psi)
    assert len(groupings) == 2
    kato_synthesis(ctx, gaussian(ctx.phase_grid, 1.0), np.outer(phi, psi.conj()))
    assert len(groupings) == 2


def test_cached_plan_arrays_are_read_only():
    _run_kernels(make_ctx(SUITE_T["unit"], N=16))

    def arrays(plan):
        if isinstance(plan, np.ndarray):
            yield plan
        elif isinstance(plan, tuple):
            for p in plan:
                yield from arrays(p)

    for cache in _caches():
        found = [a for plan, _ in cache._plans.values() for a in arrays(plan)]
        assert found and not any(a.flags.writeable for a in found)
        with pytest.raises(ValueError, match="read-only"):
            found[0][...] = 0


def test_plan_caches_keep_their_bounds():
    for i in range(2 * _PLAN_ENTRIES):
        # T = t I: A^{-1} = diag(2t, 1), an integer cell for the callable density
        _run_kernels(make_ctx(0.5 * (i + 1) * np.eye(2), N=8))
        for cache in _caches():
            assert len(cache) <= _PLAN_ENTRIES
            assert cache.total_bytes() <= _PLAN_BYTES
    assert all(len(cache) == _PLAN_ENTRIES for cache in _caches())


def test_plan_cache_evicts_the_least_recently_used_and_skips_large_plans():
    def plan(k):  # 8 k bytes
        return (np.zeros(k), slice(0, k))

    by_count = _PlanCache(2, 1000)
    a = plan(10)
    by_count.put("a", a)
    by_count.put("b", plan(10))
    assert by_count.get("a") is a  # b is now the least recently used
    by_count.put("c", plan(10))
    assert list(by_count._plans) == ["a", "c"]
    by_count.put("d", plan(126))  # 1008 bytes: not kept
    assert list(by_count._plans) == ["a", "c"]
    assert by_count.fetch("e", lambda: a) is a
    assert list(by_count._plans) == ["c", "e"]

    by_bytes = _PlanCache(4, 240)
    for k in "abc":
        by_bytes.put(k, plan(10))
    by_bytes.put("d", plan(10))  # 320 bytes in four plans: a goes
    assert list(by_bytes._plans) == ["b", "c", "d"] and by_bytes.total_bytes() == 240
    by_bytes.put("e", plan(30))
    assert list(by_bytes._plans) == ["e"]
    by_bytes.clear()
    assert len(by_bytes) == 0


def test_a_plan_over_the_byte_bound_is_streamed_and_not_kept(monkeypatch):
    ctx = make_ctx(MIXED_T2, N=4, n=2)
    b = gaussian(ctx.phase_grid, 1.0)
    kept = quantize_T(ctx, b)
    assert len(weylrep._SHIFT_PLANS) == 1
    monkeypatch.setattr(weylrep, "_SHIFT_PLANS", _PlanCache(_PLAN_ENTRIES, 1024))
    assert np.array_equal(quantize_T(ctx, b), kept)
    assert len(weylrep._SHIFT_PLANS) == 0


def test_rep_context_takes_S_from_the_gate_and_inverts_it_once(monkeypatch):
    T = SUITE_T["general"]
    gate = nondegeneracy_gate(SymplecticSpace(1), T)
    # MultiplierContext would derive S through cocycle.symplectic_adjoint
    monkeypatch.setattr("symplecta.cocycle.symplectic_adjoint", None)
    ctx = make_ctx(T, N=8)
    assert np.array_equal(ctx.S, gate.S)
    assert ctx.A is ctx.A and ctx.Sinv is ctx.Sinv
    assert np.array_equal(ctx.A, ctx.phi @ np.linalg.inv(gate.S))
