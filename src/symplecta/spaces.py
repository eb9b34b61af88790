"""Function-space machinery: modulation norms, chirp operators, dilations,
polynomially controlled weights and weighted Sobolev norms.

Modulation norms of a tensor product u = f_0 x ... x f_{d-1} under a product
window are products of 1-D norms.  modulation_norms is the one entry point:
for any d >= 2 input that is a tensor product to within rounding it reads the
factors off the values (_tensor_factors) and takes one 1-D sliding-window pass
(_stft_lp) per factor; every other input, and every 1-D one, takes one
d-dimensional pass.  The calibration family of katoschatten, the symbols of
criterion 09 and their transforms under a sigma-self-adjoint T (T = I/2, I:
lam = 1, scalar S) are such products.

All operations act on complex arrays sampled on centered self-dual lattices
(spacing h = sqrt(2pi/N) per axis, any dimension d); GridFunction inputs are
accepted and unwrapped.  Lebesgue quadrature weight h^d is used for L^p sums
so that the computed norms are Riemann sums of their continuum counterparts
and explicit inequality constants transfer.
"""

import contextvars
import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .grid import (GridFunction, _axis, _centred_roll, _check_exponent, _gauss_hermite,
                   _is_diagonal, _lattice_points, _lattice_spacing, _lp_rows, _ord_ft,
                   _ord_ift, _resample, _spec_params)
from .symplin import _singular


def _values(u):
    vals = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=complex)
    if vals.ndim == 0 or vals.size == 0:
        raise ValueError(f"expected samples on a lattice, got shape {vals.shape}")
    return vals


def _spacing(vals):
    """The lattice spacing of samples on a cubical lattice."""
    N = vals.shape[0]
    if any(s != N for s in vals.shape):
        raise ValueError("expected a cubical lattice")
    return _lattice_spacing(N)


# ---------------------------------------------------------------------------
# windows and weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowSpec:
    """An analysis window: Gaussian or Hermite-Gaussian, any lattice dimension.

    center / covariance follow the symbol-spec conventions (empty = standard).
    """

    kind: str = "gaussian"
    center: tuple = ()
    covariance: tuple = ()
    hermite_index: tuple = ()

    def __post_init__(self):
        if self.kind not in ("gaussian", "hermite-gaussian"):
            raise ValueError("window kind must be gaussian or hermite-gaussian")


def window_values(window, d, N):
    """Evaluate a WindowSpec on the centered d-dimensional lattice: the outer
    product of its factors, so the covariance must be diagonal."""
    return functools.reduce(np.multiply.outer, _window_factors(window, d, N))


def _window_factors(window, d, N):
    """The 1-D factors chi_a on the centered axis with chi = chi_0 x ... x
    chi_{d-1}; ValueError unless the covariance is diagonal."""
    center, cov, hermite = _spec_params(window, d)
    if not _is_diagonal(cov):
        raise ValueError("window covariance must be diagonal")
    with np.errstate(all="ignore"):  # a window that overflows is rejected below
        factors = np.stack([_gauss_hermite((_axis(N) - center[ax])[:, None],
                                           cov[ax:ax + 1, ax:ax + 1], hermite[ax:ax + 1])
                            for ax in range(d)])
        peak = np.prod(np.abs(factors).max(axis=1))
    if not (np.isfinite(factors).all() and np.isfinite(peak)):
        raise ValueError(f"window {window} is not finite on the lattice")
    if peak == 0.0:
        raise ValueError("window vanishes identically on the lattice")
    return factors


@dataclass
class WeightSpec:
    """Polynomially controlled weight k(xi) = prod_j <Pr_j xi>^{t_j}.

    anisotropy lists (n_j, t_j) pairs: the j-th factor acts on a consecutive
    block of n_j coordinates with exponent t_j.  The constants (C, Nexp) of
    the translation control k(xi + eta) <= C <xi>^Nexp k(eta) follow from the
    anisotropy by the Peetre inequality and are spot-verified on 10^4 random
    samples.
    """

    anisotropy: tuple
    C: float = field(init=False)
    Nexp: float = field(init=False)

    def __post_init__(self):
        aniso = tuple((int(nj), float(tj)) for nj, tj in self.anisotropy)
        if not aniso or any(nj < 1 for nj, _ in aniso):
            raise ValueError("anisotropy must list (dimension, exponent) pairs")
        self.anisotropy = aniso
        self.Nexp = float(sum(abs(tj) for _, tj in aniso))
        rng = np.random.default_rng(190847)
        xi = rng.uniform(-10, 10, size=(10000, self.dim))
        eta = rng.uniform(-10, 10, size=(10000, self.dim))
        with np.errstate(all="ignore"):  # a weight that overflows is rejected below
            self.C = float(np.prod([np.float64(2.0) ** (abs(tj) / 2) for _, tj in aniso]))
            lhs = self.values(xi + eta)
            rhs = self.C * (1 + (xi ** 2).sum(1)) ** (self.Nexp / 2) * self.values(eta)
        if not (np.isfinite(self.C) and np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise ValueError(f"weight anisotropy {aniso} is not representable: an exponent, "
                             f"C or a spot-check value is not finite")
        if not np.all(lhs <= rhs * (1 + 1e-12)):
            raise ValueError("translation-control constants fail on samples")

    @property
    def dim(self):
        return sum(nj for nj, _ in self.anisotropy)

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        out = np.ones(pts.shape[:-1])
        ofs = 0
        for nj, tj in self.anisotropy:
            block = pts[..., ofs:ofs + nj]
            out = out * (1 + (block ** 2).sum(-1)) ** (tj / 2)
            ofs += nj
        return out

    def majorant(self, pts):
        """M_k(xi) = C <xi>^Nexp."""
        pts = np.asarray(pts, dtype=float)
        return self.C * (1 + (pts ** 2).sum(-1)) ** (self.Nexp / 2)


# ---------------------------------------------------------------------------
# modulation norms via the sliding frequency window
# ---------------------------------------------------------------------------

# Elements per array of a chunk of the shift lattice: 1 MB of complex128, so
# a chunk's working arrays fit a 2 MB per-core L2 cache.
_CHUNK_ELEMS = 1 << 16


def _run_chunks(body, starts):
    """Call body(s0) for every chunk start s0.  Each call writes its own rows
    of the result, so the output is the same for any order and any worker
    count.  A single chunk, or a single core, runs inline; otherwise the
    chunks run on a thread pool, since numpy's FFT and ufuncs release the GIL,
    each in a copy of the caller's context, so that the caller's np.errstate
    holds there too.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    workers = min(cores, len(starts))
    if workers == 1:
        for s0 in starts:
            body(s0)
        return
    # imported here: it loads logging (about 9 ms), which one-chunk callers skip
    from concurrent.futures import ThreadPoolExecutor
    contexts = [contextvars.copy_context() for _ in starts]
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(lambda c, s0: c.run(body, s0), contexts, starts):
            pass  # map re-raises a chunk's exception


def _stft_lp(uvals, factors, ps):
    """Per-frequency-shift L^p norms of chi(D - xi)u for a product window
    chi = chi_0 x ... x chi_{d-1}, for each p in ps.

    Returns {p: flat array over the shift lattice}.  The window slides on the
    frequency lattice with periodic wraparound (its tails are negligible for
    the Gaussian family): W_a[s, i] = chi_a[(i - s + N/2) mod N].  Each axis in
    turn is multiplied by W_a, which adds a shift axis, and inverse-transformed.
    Positions come out cyclically re-indexed and phase-rotated against the
    centered convention, which no L^p norm over positions sees.  No array
    holds more than max(_CHUNK_ELEMS, N^d) elements: stage a runs over
    sub-ranges of shift axis a, each of as many shifts as leave room for the
    later stages whole, and at least one.  The sub-ranges of the leading axis
    are the chunks that run in parallel (_run_chunks); each writes its own
    block of shifts.
    p = 2 needs no transform: by Parseval it is the window power applied to
    |uhat|^2 axis by axis.
    """
    d = uvals.ndim
    N = uvals.shape[0]
    P = N ** d
    weight = _spacing(uvals) ** d
    uhat = _ord_ft(uvals)
    idx = np.arange(N)
    rolled = [f[_centred_roll(idx[None, :], idx[:, None], N)] for f in factors]
    out = {}
    if 2 in ps:  # sum_x |v_s(x)|^2 = N^-d sum_i |W_s(i) uhat(i)|^2
        power = np.abs(uhat) ** 2 / P
        for ax, W in enumerate(rolled):
            power = np.moveaxis(np.tensordot(W ** 2, power, axes=(1, ax)), 0, ax)
        out[2] = np.sqrt(power.ravel() * weight)
    ps = [p for p in ps if p != 2]
    if not ps:
        return out
    out.update({p: np.empty(P) for p in ps})

    def span(ax, rows):
        """Shifts per sub-range of axis ax below `rows` rows of earlier shifts."""
        return min(N, max(1, _CHUNK_ELEMS // (rows * N ** (d - 1 - ax) * P)))

    def stage(v, ax, t0, block):
        """Multiply v by the windows of shifts t0.. on axis ax, which adds a
        shift axis, and inverse-transform; then run the later stages, or
        reduce the rows into the block of shifts they belong to."""
        W = rolled[ax][t0:t0 + span(ax, len(v))]
        block += (slice(t0, t0 + len(W)),)
        shape = (1, len(W)) + (1,) * ax + (N,) + (1,) * (d - ax - 1)
        v = v[:, None] * W.reshape(shape)
        np.fft.ifft(v, axis=ax + 2, out=v)
        v = v.reshape((-1,) + (N,) * d)
        if ax + 1 < d:
            for t in range(0, N, span(ax + 1, len(v))):
                stage(v, ax + 1, t, block)
            return
        sizes = tuple(b.stop - b.start for b in block)
        v = v.reshape(-1, P)
        for p in ps:
            out[p].reshape((N,) * d)[block] = _lp_rows(v, p, weight).reshape(sizes)

    _run_chunks(lambda s0: stage(uhat[None], 0, s0, ()), range(0, N, span(0, 1)))
    return out


# The tensor-product test of modulation_norms accepts a residual of at most
# _FACTOR_TOL * d * eps * |u[pivot]|; _tensor_factors derives the constant.
_FACTOR_TOL = 4.0


def _tensor_factors(uvals):
    """The 1-D factors f_a of u = f_0 x ... x f_{d-1} when u is one to
    within rounding, else None.

    With the pivot p at argmax |u|, f_a is the slice of u along axis a
    through p, and f_0 is divided by u[p]^(d-1), so that the product of the
    slices matches u at p.  The factors are accepted when
    max |u - f_0 x ... x f_{d-1}| <= c d eps M, M = |u[p]|, c = _FACTOR_TOL.
    Derivation: let u = P + E with P an exact tensor product and
    |E| <= eps/2 M entrywise (a product rounded once).  To first order the
    product of the slices carries the errors of d slice entries and d - 1
    pivots, each weighted by at most 1 since |P| <= M, and u carries its
    own: d eps M in all.  Forming the product takes d - 1 outer-product
    multiplies, at most d - 2 more for the pivot power and one division,
    each rounding within about eps relative, at |P| <= M: (2d - 2) eps M.
    The first-order total, at most 3d eps M, stays under 4d eps M; the
    slack takes the second-order terms and inputs carried through a few more
    roundings (criterion-09 symbols and their transforms under T = I/2 and
    T = I factor within 2.5 eps M at d = 2, N from 12 to 128).  An accepted
    u is a product up to a perturbation of that size, so both routes of
    modulation_norms agree to rounding.  A nan anywhere in u becomes the pivot, and a zero,
    infinite or nan pivot gives a nan residual, which fails the test.
    """
    d = uvals.ndim
    pivot = np.unravel_index(np.argmax(np.abs(uvals)), uvals.shape)
    factors = [uvals[pivot[:a] + (slice(None),) + pivot[a + 1:]] for a in range(d)]
    with np.errstate(all="ignore"):  # what overflows or divides by zero fails below
        factors[0] = factors[0] / uvals[pivot] ** (d - 1)
        residual = np.abs(uvals - functools.reduce(np.multiply.outer, factors)).max()
    if not residual <= _FACTOR_TOL * d * np.finfo(float).eps * abs(uvals[pivot]):
        return None
    return factors


def modulation_norms(u, window, pairs):
    """Modulation norms for several (p, q) pairs sharing one analysis pass.

    The window must have a diagonal covariance, so that it factors over the
    axes, chi = chi_0 x ... x chi_{d-1}; any one window gives an equivalent
    norm.  The input splits into parts whose norms multiply: the 1-D factors
    f_a of a d >= 2 input that is a tensor product to within rounding
    (_tensor_factors), each against chi_a, or else the whole array against
    chi.  Each part takes one sliding-window pass (_stft_lp).  ValueError when
    a norm of a finite input is not finite.
    """
    for p, q in pairs:
        _check_exponent("p", p)
        _check_exponent("q", q)
    ps = sorted({p for p, _ in pairs}, key=float)  # distinct, ascending
    uvals = _values(u)
    d = uvals.ndim
    h = _spacing(uvals)
    chi = _window_factors(window, d, uvals.shape[0])
    factors = _tensor_factors(uvals) if d > 1 else None
    parts = [(uvals, chi)] if factors is None else [(f, c[None]) for f, c in zip(factors, chi)]
    out = dict.fromkeys(pairs, 1.0)
    with np.errstate(all="ignore"):  # a norm that overflows is rejected below
        for f, c in parts:
            slices = _stft_lp(f, c, ps)
            for p, q in out:
                out[(p, q)] *= float(_lp_rows(slices[p][None], q, h ** f.ndim)[0])
    if np.isfinite(uvals).all() and not np.isfinite(list(out.values())).all():
        raise ValueError(f"a modulation norm of a finite input is not finite "
                         f"under window {window}")
    return out


def modulation_norm(u, window, p, q):
    """The M^{p,q} norm: L^p in position of chi(D - xi)u, then L^q over xi."""
    return modulation_norms(u, window, [(p, q)])[(p, q)]


# ---------------------------------------------------------------------------
# chirp multiplication and dilation
# ---------------------------------------------------------------------------

def chirp_TA(A, u):
    """Chirp operator: Fourier-side multiplication by e^{i Phi_{A^{-1}}} on the
    last m axes, Phi_A(x) = -<A x, x>/2.  Unitary; inverse is chirp_TA(-A, .).
    Returns an array, also for a GridFunction u.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if np.abs(A - A.T).max() > 1e-12:
        raise ValueError("A must be symmetric")
    if _singular(A):
        raise ValueError("A must be invertible")
    vals = _values(u)
    m = A.shape[0]
    if vals.ndim < m:
        raise ValueError("input has fewer axes than A")
    N = vals.shape[0]
    axes = tuple(range(vals.ndim - m, vals.ndim))
    Ainv = np.linalg.inv(A)
    xi = _lattice_points(N, m).reshape((N,) * m + (m,))
    phase = np.exp(-0.5j * np.einsum("...a,ab,...b->...", xi, Ainv, xi))
    shape = (1,) * (vals.ndim - m) + (N,) * m
    return _ord_ift(phase.reshape(shape) * _ord_ft(vals, axes), axes)


def trig_resample(vals, A):
    """vals evaluated at the points A x of the same lattice, periodically: the
    array entry to grid._resample (exact gather for a lattice map, trigonometric
    interpolation otherwise; ValueError for a singular or non-finite A)."""
    return _resample(vals, A)


def dilation_ratio(u, lam, p, q, window=None):
    """Measured dilation growth of the modulation norm against its model shape.

    measured = |||u o lam||| / |||u|||; bound_shape = |det lam|^{-1/p-1/q'}
    (1 + ||lam||)^d with 1/q + 1/q' = 1.  The family-wide constant
    measured / bound_shape is the caller's to freeze.
    """
    uvals = _values(u)
    d = uvals.ndim
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        lam = float(lam) * np.eye(d)
    if window is None:
        window = WindowSpec()
    dil = trig_resample(uvals, lam)
    base = modulation_norm(uvals, window, p, q)
    if base == 0.0:
        raise ValueError("zero input")
    measured = modulation_norm(dil, window, p, q) / base
    qp = np.inf if q == 1 else (1.0 if q == np.inf else q / (q - 1.0))
    invqp = 0.0 if qp == np.inf else 1.0 / qp
    opnorm = np.linalg.svd(lam, compute_uv=False)[0]
    bound_shape = abs(np.linalg.det(lam)) ** (-1.0 / p - invqp) * (1 + opnorm) ** d
    return {"measured": float(measured), "bound_shape": float(bound_shape)}


# ---------------------------------------------------------------------------
# weighted Sobolev norms and the modulation embedding constant
# ---------------------------------------------------------------------------

def sobolev_k_norm(u, k, p):
    """||k(D) u||_{L^p}: ordinary Fourier multiplier by the weight, then L^p."""
    _check_exponent("p", p)
    uvals = _values(u)
    d = uvals.ndim
    N = uvals.shape[0]
    h = _spacing(uvals)
    if k.dim != d:
        raise ValueError("weight dimension mismatch")
    kv = k.values(_lattice_points(N, d)).reshape(uvals.shape)
    out = _ord_ift(kv * _ord_ft(uvals))
    return float(_lp_rows(out.reshape(1, -1), p, h ** d)[0])


def _fd_derivatives(vals, h, max_order, margin):
    """(alpha, core, d^alpha vals[core]) for |alpha| <= max_order in ascending
    order, by repeated centered differences (np.gradient); the core lies
    `margin` points inside every face, out of reach of the one-sided boundary
    differences.  ValueError when the core is empty."""
    N, d = vals.shape[0], vals.ndim
    if N <= 2 * margin:
        raise ValueError(f"N = {N} leaves no lattice interior inside a "
                         f"finite-difference margin of {margin}")
    core = (slice(margin, N - margin),) * d
    for total in range(max_order + 1):
        for alpha in itertools.product(range(total + 1), repeat=d):
            if sum(alpha) == total:
                da = vals
                for axis_no, order in enumerate(alpha):
                    for _ in range(order):
                        da = np.gradient(da, h, axis=axis_no)
                yield alpha, core, da[core]


def _spectral_derivative(vals, alpha):
    N = vals.shape[0]
    ax = _axis(N)
    fk = _ord_ft(vals)
    for axis_no, order in enumerate(alpha):
        if order:
            shape = [1] * vals.ndim
            shape[axis_no] = N
            fk = fk * (1j * ax.reshape(shape)) ** order
    return _ord_ift(fk)


def embedding_bound(k, window, q, N):
    """Explicit constant bounding M^{p,q} norms by the k-weighted Sobolev norm.

    bound = (2 pi)^{-d} ||<.>^{-2r}||_{L^1} (sum_{|alpha| <= 2r} C_alpha
    ||M_k d^alpha chi||_{L^1}) ||1/k||_{L^q}, with r = floor(d/2) + 1, every
    norm taken as a lattice sum.  C_alpha = sup |d^alpha k| / k on the lattice
    interior.  The dimension d is that of the weight k.  Requires 1/k in L^q:
    q t_j > n_j on every weight block, and a window with a diagonal covariance.
    """
    _check_exponent("q", q)
    d = k.dim
    for j, (nj, tj) in enumerate(k.anisotropy):
        if q * tj <= nj:
            raise ValueError(
                f"1/k is not L^{q} on weight block {j}: q t = {q * tj} <= "
                f"block dimension {nj}")
    h = _lattice_spacing(N)
    pts = _lattice_points(N, d)
    r = d // 2 + 1
    bracket = float(np.sum((1 + (pts ** 2).sum(1)) ** (-r)) * h ** d)
    kv = k.values(pts)
    inv_k_q = float((np.sum(kv ** (-q)) * h ** d) ** (1.0 / q))
    chiv = window_values(window, d, N)
    kgrid = kv.reshape((N,) * d).astype(float)
    Mk = k.majorant(pts).reshape((N,) * d)
    total = 0.0
    for alpha, core, dk in _fd_derivatives(kgrid, h, 2 * r, margin=3):
        C_alpha = float(np.max(np.abs(dk) / kgrid[core]))
        dchi = _spectral_derivative(chiv, alpha)
        total += C_alpha * float(np.sum(Mk * np.abs(dchi)) * h ** d)
    return (2 * np.pi) ** (-d) * bracket * total * inv_k_q
