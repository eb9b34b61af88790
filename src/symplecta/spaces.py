"""Function-space machinery: modulation norms, chirp operators, dilations,
polynomially controlled weights, weighted Sobolev norms, and symbol-class
seminorms.

All operations act on complex arrays sampled on centered self-dual lattices
(spacing h = sqrt(2pi/N) per axis, any dimension d); GridFunction inputs are
accepted and unwrapped.  Lebesgue quadrature weight h^d is used for L^p sums
so that the computed norms are Riemann sums of their continuum counterparts
and explicit inequality constants transfer.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import (GridFunction, _axis, _centred_roll, _covariance_matrix,
                   _gauss_hermite, _lattice_points, _ord_ft, _ord_ift, _resample)


def _values(u):
    if isinstance(u, GridFunction):
        return u.values
    return np.asarray(u, dtype=complex)


def _spacing(vals):
    N = vals.shape[0]
    if any(s != N for s in vals.shape):
        raise ValueError("expected a cubical lattice")
    return np.sqrt(2 * np.pi / N)


def _lp_rows(vals, p, weight):
    """Row-wise (weight sum_j |v_ij|^p)^{1/p} of a 2-D array, max_j |v_ij| for
    p = inf.  |v|^p is formed only for p outside {1, 2, inf}."""
    if p == np.inf:
        return np.abs(vals).max(axis=1)
    if p == 1:
        s = np.abs(vals).sum(axis=1)
    elif p == 2:
        f = np.ascontiguousarray(vals).view(np.float64)  # (re, im) pairs
        s = np.einsum("ij,ij->i", f, f)
    else:
        s = (np.abs(vals) ** p).sum(axis=1)
    return (s * weight) ** (1.0 / p)


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


def _window_params(window, d):
    center = np.zeros(d) if len(window.center) == 0 else np.asarray(window.center, float)
    hermite = ((window.hermite_index or (1,) * d) if window.kind == "hermite-gaussian"
               else ())
    return center, _covariance_matrix(window.covariance, d), hermite


def window_values(window, d, N):
    """Evaluate a WindowSpec on the centered d-dimensional lattice."""
    center, cov, hermite = _window_params(window, d)
    out = _gauss_hermite(_lattice_points(N, d) - center, cov, hermite).reshape((N,) * d)
    if np.abs(out).max() == 0.0:
        raise ValueError("window vanishes identically on the lattice")
    return out


def _window_factors(window, d, N):
    """The 1-D factors chi_a on the centered axis with chi = chi_0 x ... x
    chi_{d-1}, or None when the covariance is not diagonal."""
    center, cov, hermite = _window_params(window, d)
    if np.count_nonzero(cov - np.diag(np.diag(cov))):
        return None
    factors = np.stack([_gauss_hermite((_axis(N) - center[ax])[:, None],
                                       cov[ax:ax + 1, ax:ax + 1], hermite[ax:ax + 1])
                        for ax in range(d)])
    if np.prod(np.abs(factors).max(axis=1)) == 0.0:
        raise ValueError("window vanishes identically on the lattice")
    return factors


@dataclass
class WeightSpec:
    """Polynomially controlled weight k(xi) = prod_j <Pr_j xi>^{t_j}.

    anisotropy lists (n_j, t_j) pairs: the j-th factor acts on a consecutive
    block of n_j coordinates with exponent t_j.  The cached (C, Nexp) realize
    the translation control k(xi + eta) <= C <xi>^Nexp k(eta); defaults come
    from the Peetre inequality and are spot-verified on 10^4 random samples.
    """

    anisotropy: tuple
    C: float = None
    Nexp: float = None

    def __post_init__(self):
        aniso = tuple((int(nj), float(tj)) for nj, tj in self.anisotropy)
        if not aniso or any(nj < 1 for nj, _ in aniso):
            raise ValueError("anisotropy must list (dimension, exponent) pairs")
        object.__setattr__(self, "anisotropy", aniso)
        if self.C is None:
            self.C = float(np.prod([2.0 ** (abs(tj) / 2) for _, tj in aniso]))
        if self.Nexp is None:
            self.Nexp = float(sum(abs(tj) for _, tj in aniso))
        rng = np.random.default_rng(190847)
        xi = rng.uniform(-10, 10, size=(10000, self.dim))
        eta = rng.uniform(-10, 10, size=(10000, self.dim))
        lhs = self.values(xi + eta)
        rhs = self.C * (1 + (xi ** 2).sum(1)) ** (self.Nexp / 2) * self.values(eta)
        if not np.all(lhs <= rhs * (1 + 1e-12)):
            raise ValueError("cached translation-control constants fail on samples")

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

# Elements per chunk of the shift lattice, bounding the working arrays.
_CHUNK_ELEMS = 1 << 22


def _stft_lp(uvals, factors, ps):
    """Per-frequency-shift L^p norms of chi(D - xi)u for a product window
    chi = chi_0 x ... x chi_{d-1}, for each p in ps.

    Returns {p: flat array over the shift lattice}.  The window slides on the
    frequency lattice with periodic wraparound (its tails are negligible for
    the Gaussian family): W_a[s, i] = chi_a[(i - s + N/2) mod N].  Each axis in
    turn is multiplied by W_a, which adds a shift axis, and inverse-transformed.
    Positions come out cyclically re-indexed and phase-rotated against the
    centered convention, which no L^p norm over positions sees.  The leading
    shift axis is chunked to bound the last stage's N^{2d-1} elements per row.
    p = 2 needs no transform: by Parseval it is the window power applied to
    |uhat|^2 axis by axis.
    """
    d = uvals.ndim
    N = uvals.shape[0]
    P = N ** d
    weight = _spacing(uvals) ** d
    uhat = _ord_ft(uvals)
    rows = P // N
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
    chunk = max(1, _CHUNK_ELEMS // (rows * P))
    for s0 in range(0, N, chunk):
        v = uhat[None]
        for ax, W in enumerate(rolled):
            if ax == 0:
                W = W[s0:s0 + chunk]
            shape = (1, len(W)) + (1,) * ax + (N,) + (1,) * (d - ax - 1)
            v = v[:, None] * W.reshape(shape)
            np.fft.ifft(v, axis=ax + 2, out=v)
            v = v.reshape((-1,) + (N,) * d)
        v = v.reshape(-1, P)
        for p in ps:
            out[p][s0 * rows:s0 * rows + len(v)] = _lp_rows(v, p, weight)
    return out


def _stft_lp_dense(uvals, chivals, ps):
    """_stft_lp for a sampled window that need not factor, in chunks of
    shifts; each rolled window is a view into the periodically doubled window."""
    d = uvals.ndim
    N = uvals.shape[0]
    P = N ** d
    weight = _spacing(uvals) ** d
    uhat = _ord_ft(uvals)
    slid = np.lib.stride_tricks.sliding_window_view(np.tile(chivals, (2,) * d),
                                                    (N,) * d)
    offsets = _centred_roll(0, np.indices((N,) * d).reshape(d, -1), N)
    axes = tuple(range(1, d + 1))
    out = {p: np.empty(P) for p in ps}
    chunk = max(1, _CHUNK_ELEMS // P)
    for i0 in range(0, P, chunk):
        V = slid[tuple(offsets[:, i0:i0 + chunk])] * uhat
        v = np.fft.ifftn(V, axes=axes).reshape(-1, P)
        for p in ps:
            out[p][i0:i0 + len(v)] = _lp_rows(v, p, weight)
    return out


def modulation_norms(u, window, pairs):
    """Modulation norms for several (p, q) pairs sharing one analysis pass.

    A window with diagonal covariance factors over the axes and takes the
    per-axis kernel; a full covariance takes the dense one.
    """
    uvals = _values(u)
    d = uvals.ndim
    N = uvals.shape[0]
    h = _spacing(uvals)
    ps = sorted({p for p, _ in pairs}, key=float)
    factors = _window_factors(window, d, N)
    if factors is None:
        slices = _stft_lp_dense(uvals, window_values(window, d, N), ps)
    else:
        slices = _stft_lp(uvals, factors, ps)
    return {(p, q): float(_lp_rows(slices[p][None], q, h ** d)[0])
            for p, q in pairs}


def modulation_norm(u, window, p, q):
    """The M^{p,q} norm: L^p in position of chi(D - xi)u, then L^q over xi."""
    return modulation_norms(u, window, [(p, q)])[(p, q)]


# ---------------------------------------------------------------------------
# chirp multiplication and dilation
# ---------------------------------------------------------------------------

def chirp_TA(A, u):
    """Chirp operator: Fourier-side multiplication by e^{i Phi_{A^{-1}}} on the
    last m axes, Phi_A(x) = -<A x, x>/2.  Unitary; inverse is chirp_TA(-A, .).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if np.abs(A - A.T).max() > 1e-12:
        raise ValueError("A must be symmetric")
    if abs(np.linalg.det(A)) < 1e-12:
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
    out = _ord_ift(phase.reshape(shape) * _ord_ft(vals, axes), axes)
    if isinstance(u, GridFunction):
        return GridFunction(u.grid, out)
    return out


def trig_resample(vals, A):
    """Band-limited (trigonometric) evaluation of vals at the points A x over
    the same lattice; separable fast path for diagonal A."""
    return _resample(vals, np.asarray(A, dtype=float))


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
    if abs(np.linalg.det(lam)) < 1e-12:
        raise ValueError("singular dilation matrix")
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
    uvals = _values(u)
    d = uvals.ndim
    N = uvals.shape[0]
    h = _spacing(uvals)
    if k.dim != d:
        raise ValueError("weight dimension mismatch")
    kv = k.values(_lattice_points(N, d)).reshape(uvals.shape)
    out = _ord_ift(kv * _ord_ft(uvals))
    return float(_lp_rows(out.reshape(1, -1), p, h ** d)[0])


def _multi_indices(d, max_total):
    for total in range(max_total + 1):
        for alpha in itertools.product(range(total + 1), repeat=d):
            if sum(alpha) == total:
                yield alpha


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


def embedding_bound(k, window, q, N, d=None):
    """Explicit constant bounding M^{p,q} norms by the k-weighted Sobolev norm.

    bound = (2 pi)^{-d} ||<.>^{-2r}||_{L^1} (sum_{|alpha| <= 2r} C_alpha
    ||M_k d^alpha chi||_{L^1}) ||1/k||_{L^q}, with r = floor(d/2) + 1, every
    norm taken as a lattice sum.  C_alpha = sup |d^alpha k| / k on the lattice
    interior.  Requires 1/k in L^q: q t_j > n_j on every weight block.
    """
    d = k.dim if d is None else d
    if k.dim != d:
        raise ValueError("weight dimension mismatch")
    for j, (nj, tj) in enumerate(k.anisotropy):
        if q * tj <= nj:
            raise ValueError(
                f"1/k is not L^{q} on weight block {j}: q t = {q * tj} <= "
                f"block dimension {nj}")
    h = np.sqrt(2 * np.pi / N)
    pts = _lattice_points(N, d)
    r = d // 2 + 1
    bracket = float(np.sum((1 + (pts ** 2).sum(1)) ** (-r)) * h ** d)
    inv_k_q = float((np.sum(k.values(pts) ** (-q)) * h ** d) ** (1.0 / q))
    chiv = window_values(window, d, N)
    kgrid = k.values(pts).reshape((N,) * d).astype(float)
    Mk = k.majorant(pts).reshape((N,) * d)
    margin = 3
    core = tuple(slice(margin, N - margin) for _ in range(d))
    total = 0.0
    for alpha in _multi_indices(d, 2 * r):
        dk = kgrid
        for axis_no, order in enumerate(alpha):
            for _ in range(order):
                dk = np.gradient(dk, h, axis=axis_no)
        C_alpha = float(np.max(np.abs(dk[core]) / kgrid[core]))
        dchi = _spectral_derivative(chiv, alpha)
        total += C_alpha * float(np.sum(Mk * np.abs(dchi)) * h ** d)
    return (2 * np.pi) ** (-d) * bracket * total * inv_k_q


def symbol_class_seminorms(a, m, max_order):
    """Growth-order seminorms sup <x>^{-m+|alpha|} |d^alpha a| for |alpha| <= max_order.

    Derivatives by repeated centered finite differences (np.gradient); the sup
    excludes a boundary margin where one-sided differences degrade.  Returns a
    list aligned with ascending multi-index order.
    """
    if max_order > 4:
        raise ValueError("finite differences degrade beyond order 4")
    vals = _values(a)
    d = vals.ndim
    N = vals.shape[0]
    h = _spacing(vals)
    pts = _lattice_points(N, d)
    jap = (1 + (pts ** 2).sum(1)).reshape(vals.shape) ** 0.5
    margin = max_order + 2
    core = tuple(slice(margin, N - margin) for _ in range(d))
    out = []
    for alpha in _multi_indices(d, max_order):
        da = vals
        for axis_no, order in enumerate(alpha):
            for _ in range(order):
                da = np.gradient(da, h, axis=axis_no)
        wt = jap ** (-m + sum(alpha))
        out.append(float(np.max(wt[core] * np.abs(da[core]))))
    return out
