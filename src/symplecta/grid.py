"""Self-dual discretization of phase space and the symplectic Fourier transform.

A self-dual grid has N points per axis at spacing h = sqrt(2pi/N), so that
sigma between grid points is always an integer multiple of 2pi/N and the
discrete symplectic Fourier transform is an exact involution.  The phase-space
quadrature weight per point is w = (2pi)^{-n} h^{2n} = N^{-n}, matching the
normalized invariant measure.

Index order is lexicographic with the x-axes before the p-axes; for n=1 a
GridFunction's values array is indexed values[x, p].
"""

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .symplin import _singular


def _lattice_spacing(N):
    """The self-dual lattice spacing h = sqrt(2pi/N)."""
    return np.sqrt(2 * np.pi / N)


def _axis(N):
    """Centered self-dual lattice axis {-N/2, ..., N/2-1} * h."""
    return (np.arange(N) - N // 2) * _lattice_spacing(N)


def _product_points(axes):
    """All points of the product of the coordinate axes, lexicographic."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _lattice_points(N, d):
    """All N^d points of the d-dimensional centered lattice, lexicographic."""
    return _product_points([_axis(N)] * d)


def _ord_ft(vals, axes=None):
    """Forward DFT over the given axes (all by default) of samples held in
    centered index order, returned in centered frequency order."""
    axes = tuple(range(vals.ndim)) if axes is None else axes
    return np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(vals, axes=axes),
                                       axes=axes), axes=axes)


def _ord_ift(vals, axes=None):
    """Inverse of _ord_ft over the same axes."""
    axes = tuple(range(vals.ndim)) if axes is None else axes
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(vals, axes=axes),
                                        axes=axes), axes=axes)


def _lattice_index(x):
    """The integers nearest to x, as floats, or None unless every entry of x
    lies within 1e-9 of them (nan never does, nor does an infinite entry,
    whose residual inf - inf is nan)."""
    xi = np.rint(x)
    with np.errstate(invalid="ignore"):
        return xi if np.abs(x - xi).max() < 1e-9 else None


def _is_diagonal(A):
    """No nonzero off-diagonal entry (nan counts as nonzero): the one test
    of whether a map or a covariance acts axis by axis."""
    return not np.count_nonzero(A - np.diag(np.diag(A)))


def _check_exponent(name, p):
    """Reject a Lebesgue exponent outside (0, inf], nan included."""
    if not 0 < p <= np.inf:
        raise ValueError(f"exponent {name} = {p} is not in (0, inf]")


def _lp_rows(vals, p, weight):
    """Row-wise (weight sum_j |v_ij|^p)^{1/p} of a 2-D array, max_j |v_ij| for
    p = inf (0 for an empty row): the one L^p reduction.  |v|^p is formed only
    for p outside {1, inf}."""
    if p == np.inf:
        return np.abs(vals).max(axis=1, initial=0.0)
    s = np.abs(vals).sum(axis=1) if p == 1 else (np.abs(vals) ** p).sum(axis=1)
    return (s * weight) ** (1.0 / p)


def _centred_roll(i, s, N):
    """(i - s + N/2) mod N, broadcast: the index that entry i of a centered
    lattice axis takes after a cyclic shift by s.  Entry i of a window slid to
    offset s is chi[_centred_roll(i, s, N)]."""
    return (i - s + N // 2) % N


def _centred_diagonals(A, n, N):
    """out[a, j] = A[a, a - j + N/2], per axis mod N, for an M x M matrix over
    the n-dimensional centered lattice (M = N^n).

    Column j of the result is the diagonal of A at the centered offset
    j - N/2; the gather is an involution.
    """
    ia = np.indices((N,) * n).reshape(n, -1)
    cols = np.ravel_multi_index(tuple(_centred_roll(ia[:, :, None], ia[:, None, :], N)),
                                (N,) * n)
    return np.take_along_axis(np.asarray(A), cols, axis=1)


def _covariance_matrix(covariance, d):
    """The d x d covariance of a symbol or window spec: identity when empty,
    per-axis widths when of length d, else row-major; ValueError naming it
    unless it is finite, symmetric and positive definite, or when it is
    ill-conditioned."""
    if len(covariance) == 0:
        return np.eye(d)
    if len(covariance) not in (d, d * d):
        raise ValueError(f"covariance must have 0, {d} or {d * d} entries, "
                         f"got {len(covariance)}")
    cov = np.asarray(covariance, dtype=float)
    with np.errstate(over="ignore"):
        cov = np.diag(cov ** 2) if cov.size == d else cov.reshape(d, d)
    if not (np.isfinite(cov).all() and np.array_equal(cov, cov.T)
            and np.linalg.eigvalsh(cov)[0] > 0):
        raise ValueError(f"covariance {tuple(covariance)} is not a finite symmetric "
                         "positive definite matrix")
    if np.linalg.cond(cov) > 1e8:
        raise ValueError(f"ill-conditioned covariance {tuple(covariance)}")
    return cov


# He_k is of size sqrt(k!) near the origin ((k-1)!! at 0 for even k), and
# larger away from it: sqrt(k!) passes the float64 maximum 1.8e308 at k = 301
# and (k-1)!! at k = 302, and every k from 302 to 699 overflows at some point of
# each lattice tried (N = 4 to 256, centres inside and outside the box).  An
# index above this limit, where sqrt(k!) is past 1e580, can only end in
# non-finite values; it is refused before its coefficient list is built.
_HERMITE_INDEX_MAX = 512


def _spec_params(spec, d):
    """(center, covariance, Hermite indices) of a symbol or window spec on d
    axes, empty fields taking their defaults; ValueError when they do not fit."""
    center = np.zeros(d) if len(spec.center) == 0 else np.asarray(spec.center, float)
    if center.shape != (d,):
        raise ValueError(f"center must have {d} entries, got {len(spec.center)}")
    hermite = (spec.hermite_index or (1,) * d) if spec.kind == "hermite-gaussian" else ()
    if len(hermite) > d:
        raise ValueError(f"hermite_index must have at most {d} entries, "
                         f"got {len(hermite)}")
    if max(hermite, default=0) > _HERMITE_INDEX_MAX:
        raise ValueError(f"hermite_index entries must be at most {_HERMITE_INDEX_MAX}, "
                         f"got {max(hermite)}")
    return center, _covariance_matrix(spec.covariance, d), hermite


def _gauss_hermite(z, cov, hermite):
    """e^{-<z, cov^{-1} z>/2} prod_a He_{k_a}(z_a) at the offsets z (P, d), with
    Hermite indices k = hermite (empty for the plain Gaussian)."""
    vals = np.exp(-0.5 * np.einsum("ia,ab,ib->i", z, np.linalg.inv(cov), z))
    for ax, k in enumerate(hermite):
        vals *= np.polynomial.hermite_e.hermeval(z[:, ax], [0] * k + [1])
    return vals


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform self-dual grid on W = R^{2n}; its first n axes are the
    configuration lattice of the representation on C^M."""

    n: int
    N: int

    def __post_init__(self):
        for name, v in (("n", self.n), ("N", self.N)):
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if self.N % 2 != 0 or not (4 <= self.N <= 256):
            raise ValueError(f"N must be even and in [4, 256], got {self.N}")

    @property
    def h(self):
        return _lattice_spacing(self.N)

    @property
    def dim(self):
        return 2 * self.n

    @property
    def M(self):
        """State dimension N^n of the configuration lattice, the first n axes."""
        return self.N ** self.n

    @property
    def axis(self):
        """Centered axis coordinates {-N/2, ..., N/2-1} * h."""
        return _axis(self.N)

    @property
    def weight(self):
        """Quadrature weight per phase-space point, (2pi)^{-n} h^{2n} = N^{-n}."""
        return float(self.N) ** (-self.n)

    @property
    def box_length(self):
        return self.N * self.h

    def points(self):
        """All grid points as an (N^{2n}, 2n) array in lexicographic order."""
        return _lattice_points(self.N, self.dim)

    def coords(self):
        """All M configuration points, shape (M, n); also the frequencies of dft()."""
        return _lattice_points(self.N, self.n)

    def dft(self):
        """Centered unitary DFT matrix on C^M (tensor power of the 1-D kernel)."""
        F1 = np.exp(-1j * np.outer(self.axis, self.axis)) / np.sqrt(self.N)
        F = F1
        for _ in range(self.n - 1):
            F = np.kron(F, F1)
        return F


@dataclass
class GridFunction:
    """Complex-valued sampled symbol on a PhaseGrid (values shaped (N,)*2n)."""

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        shape = (self.grid.N,) * self.grid.dim
        if v.size != self.grid.N ** self.grid.dim:
            raise ValueError("value count does not match the grid")
        self.values = v.reshape(shape)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function has non-finite values")

    def norm_lp(self, p):
        """Weighted L^p norm with the phase-space weight N^{-n}; p in (0, inf]."""
        _check_exponent("p", p)
        return float(_lp_rows(self.values.reshape(1, -1), p, self.grid.weight)[0])


def _check_grid(f, grid, name="symbol"):
    """Raise a ValueError naming both grids unless the grid function f is on grid."""
    if f.grid != grid:
        raise ValueError(f"{name} lies on {f.grid}, not on {grid}")


@dataclass(frozen=True)
class SymbolSpec:
    """Parametric test-symbol family member."""

    kind: str  # gaussian | hermite-gaussian | polynomial-times-gaussian | chirp-gaussian | file
    center: tuple = ()
    covariance: tuple = ()  # row-major 2n x 2n (or per-axis widths if length 2n)
    poly_coeffs: tuple = ()  # coefficients of a polynomial in the first coordinate
    chirp: tuple = ()  # row-major symmetric 2n x 2n chirp matrix
    hermite_index: tuple = ()
    path: str = ""


def make_grid(n, N):
    """Construct a self-dual PhaseGrid (validation in the dataclass)."""
    return PhaseGrid(n=n, N=N)


def sample_symbol(spec, grid):
    """Pointwise evaluation of a SymbolSpec on the grid."""
    if spec.kind == "file":
        f = read_grid_function(spec.path)
        _check_grid(f, grid, f"symbol file {spec.path}")
        return f
    if spec.kind not in ("gaussian", "hermite-gaussian", "polynomial-times-gaussian",
                         "chirp-gaussian"):
        raise ValueError(f"unknown symbol kind {spec.kind!r}")
    d = grid.dim
    center, cov, hermite = _spec_params(spec, d)
    if spec.kind == "chirp-gaussian" and len(spec.chirp) != d * d:
        raise ValueError(f"chirp must have {d * d} entries, got {len(spec.chirp)}")
    z = grid.points() - center
    with np.errstate(all="ignore"):  # GridFunction rejects what overflows
        vals = _gauss_hermite(z, cov, hermite).astype(complex)
        if spec.kind == "polynomial-times-gaussian":
            coeffs = spec.poly_coeffs if spec.poly_coeffs else (0.0,)
            vals *= np.polyval(list(coeffs)[::-1], z[:, 0])
        elif spec.kind == "chirp-gaussian":
            C = np.asarray(spec.chirp, float).reshape(d, d)
            vals *= np.exp(0.5j * np.einsum("ia,ab,ib->i", z, C, z))
    return GridFunction(grid, vals)


def _gaussian(grid, width=1.0, center=None, tilt=0.0, freq=None):
    """The test Gaussian e^{-|xi - center|^2 / (2 width^2)} (1 + tilt xi_0),
    modulated by e^{i <freq, xi>} when freq is given."""
    pts = grid.points()
    c = np.zeros(grid.dim) if center is None else np.asarray(center, float)
    z = pts - c
    vals = np.exp(-(z ** 2).sum(1) / (2 * width ** 2)) * (1 + tilt * pts[:, 0])
    vals = vals.astype(complex)
    if freq is not None:
        vals *= np.exp(1j * (pts @ np.asarray(freq, float)))
    return GridFunction(grid, vals)


def symplectic_fourier(f):
    """Discrete symplectic Fourier transform (exact involution on self-dual grids).

    (F f)(xi) = sum_eta e^{-i sigma(xi, eta)} f(eta) w.  Realized as a forward
    FFT over the x-axes, an inverse FFT over the p-axes, and a swap of the two
    axis groups.
    """
    n = f.grid.n
    g = _ord_ift(_ord_ft(f.values, tuple(range(n))), tuple(range(n, 2 * n)))
    g = np.transpose(g, axes=tuple(range(n, 2 * n)) + tuple(range(n)))
    return GridFunction(f.grid, np.ascontiguousarray(g))


def apply_multiplier(lam, f):
    """Apply the sigma-Fourier multiplier lam, an array of its values at the
    grid points (any shape of that size): F (lam . F f)."""
    lv = np.asarray(lam, dtype=complex).reshape(f.values.shape)
    if not np.all(np.isfinite(lv)):
        bad = np.argwhere(~np.isfinite(lv))[0]
        raise ArithmeticError(f"non-finite multiplier value at index {tuple(bad)}")
    g = symplectic_fourier(f)
    return symplectic_fourier(GridFunction(f.grid, lv * g.values))


def pullback(A, f, *, truncate=False):
    """Pullback A^* f = f(A .) on the grid, by _resample: an exact gather for
    a lattice map, the periodic trigonometric extension of f otherwise.  With
    truncate, points A xi that leave the fundamental box give 0 instead of
    wrapping, the faithful choice for expanding maps applied to decaying
    symbols."""
    return GridFunction(f.grid, _resample(f.values, A, mask_outside=truncate))


def _resample(vals, A, mask_outside=False):
    """Lattice samples (any dimension d) evaluated at the points A x of the
    same lattice, with periodic wraparound; the one evaluation along a linear
    map.  ValueError unless A is d x d, or when it is singular or not finite
    (symplin._singular).  A lattice map (_lattice_index, entries up to 2^31)
    gathers the samples exactly; any other diagonal map (_is_diagonal) takes
    the per-axis trigonometric interpolation, O(d N^{d+1}), and any other map
    the dense trigonometric sum.  With mask_outside, points A x that leave the
    fundamental box give 0.
    """
    A, N, d = np.asarray(A, dtype=float), vals.shape[0], vals.ndim
    if A.shape != (d, d):
        raise ValueError(f"resampling map must be {d} x {d}, got shape {A.shape}")
    if _singular(A):
        raise ValueError("singular resampling map")
    m = np.indices((N,) * d).reshape(d, -1).T - N // 2  # centered indices, (P, d)
    Ai = _lattice_index(A)
    if Ai is not None and np.abs(Ai).max() <= 2**31:  # an integer index map
        A = Ai
        tgt = m @ Ai.astype(int).T + N // 2
        out = vals.ravel()[np.ravel_multi_index(tuple(tgt.T), vals.shape, mode="wrap")]
    elif _is_diagonal(A):
        ax = _axis(N)
        out = _ord_ft(vals) / N**d
        for i in range(d):
            E = np.exp(1j * np.outer(A[i, i] * ax, ax))  # (t, k)
            out = np.moveaxis(np.tensordot(E, np.moveaxis(out, i, 0), axes=(1, 0)), 0, i)
        out = out.ravel()
    else:
        kpts = _lattice_points(N, d)
        tgt = kpts @ A.T
        fkv = _ord_ft(vals).ravel() / N**d
        out = np.empty(tgt.shape[0], complex)
        chunk = max(1, (1 << 22) // kpts.shape[0])
        for i0 in range(0, tgt.shape[0], chunk):
            ph = np.exp(1j * (tgt[i0:i0 + chunk] @ kpts.T))
            out[i0:i0 + chunk] = ph @ fkv
    if mask_outside:
        # the box [-N/2, N/2) per axis in grid units, with the margin 1e-12
        # of the coordinates
        y, tol = m @ A.T, 1e-12 / _lattice_spacing(N)
        out[np.any((y < -N / 2 - tol) | (y >= N / 2 - tol), axis=1)] = 0.0
    return out.reshape(vals.shape)


def translate(xi, f):
    """Translate (tau_xi f)(.) = f(. - xi) by a lattice xi, an exact cyclic shift;
    ValueError for any other xi (off the lattice, not finite, or not of 2n entries)."""
    xi = np.asarray(xi, dtype=float)
    idx = _lattice_index(xi / f.grid.h) if xi.shape == (f.grid.dim,) else None
    if idx is None:
        raise ValueError(f"off-grid xi {xi.tolist()} on {f.grid}; use a lattice point")
    out = np.roll(f.values, shift=tuple(int(k) for k in idx), axis=tuple(range(f.grid.dim)))
    return GridFunction(f.grid, out)


def sigma_convolve(b, c):
    """Phase-space convolution (b * c)(xi) = sum_eta b(xi-eta) c(eta) w, periodic."""
    _check_grid(c, b.grid)
    conv = _ord_ift(_ord_ft(b.values) * _ord_ft(c.values))
    return GridFunction(b.grid, conv * b.grid.weight)


# ---------------------------------------------------------------------------
# kernel plans: the tables of a sum over the grid that depend only on the grid
# and the linear map, kept read-only and reused across calls
# ---------------------------------------------------------------------------

_PLAN_ENTRIES = 8  # plans kept per cache
_PLAN_BYTES = 1 << 25  # array bytes kept per cache; a larger plan is not kept


def _freeze(plan):
    """Mark every array of a nested tuple read-only; return their total bytes."""
    if isinstance(plan, np.ndarray):
        plan.setflags(write=False)
        return plan.nbytes
    return sum(map(_freeze, plan)) if isinstance(plan, tuple) else 0


class _PlanCache:
    """At most `entries` plans of at most `nbytes` array bytes in all, the
    least recently used evicted first.  A plan is a nested tuple of read-only
    arrays (and plain values) that holds tables only, never a result."""

    def __init__(self, entries=_PLAN_ENTRIES, nbytes=_PLAN_BYTES):
        self.entries, self.nbytes = entries, nbytes
        self._plans = OrderedDict()  # key -> (plan, bytes)
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._plans)

    def total_bytes(self):
        return sum(size for _, size in self._plans.values())

    def fetch(self, key, build):
        """The plan under key.  On a miss build() gives its exact array bytes and
        parts, kept as a read-only tuple iff the bytes fit, else returned unkept."""
        with self._lock:
            hit = self._plans.get(key)
            if hit is not None:
                self._plans.move_to_end(key)
                return hit[0]
        nbytes, plan = build()
        if nbytes > self.nbytes:
            return plan
        plan = tuple(plan)
        _freeze(plan)
        with self._lock:
            self._plans[key] = (plan, nbytes)
            self._plans.move_to_end(key)
            while len(self._plans) > self.entries or self.total_bytes() > self.nbytes:
                self._plans.popitem(last=False)
        return plan

    def clear(self):
        with self._lock:
            self._plans.clear()


# ---------------------------------------------------------------------------
# text codec of grid and operator files: one header line, then one `re,im`
# row per complex value, written by repr so that reads are bit-exact
# ---------------------------------------------------------------------------

def _write_rows(path, header, values):
    """Write the file and return the bytes written."""
    v = np.asarray(values, dtype=complex).ravel()
    body = ("%r,%r\n" * v.size) % tuple(v.view(float).tolist())
    data = (header + "\n" + body).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def _read_rows(path, magic, keys, count):
    """Integer header fields `keys` and complex values of a grid or operator file;
    ValueError unless the header is `magic` and the body holds count(*fields) rows."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = dict(part.strip().split("=", 1) for part in header.split(",")[1:]
                      if "=" in part)
        digits = [fields.get(k, "") for k in keys]
        if not (header.startswith(magic) and all(d.isascii() and d.isdigit() for d in digits)):
            raise ValueError(f"not a {magic} file: {header!r}")
        dims = [int(d) for d in digits]
        if count(*dims) <= 0:
            raise ValueError(f"{path}: header {header!r} declares no values")
        with warnings.catch_warnings():
            # a body without rows is refused below, in this codec's words
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (count(*dims), 2):
        found = f"{len(rows)} rows of width {rows.shape[1]}" if len(rows) else "no rows"
        raise ValueError(f"{path}: expected {count(*dims)} re,im rows of width 2, "
                         f"found {found}")
    return dims, rows.view(complex).ravel()


def write_grid_function(f, path):
    _write_rows(path, f"symplecta-grid v1, n={f.grid.n}, N={f.grid.N}", f.values)


def read_grid_function(path):
    (n, N), vals = _read_rows(path, "symplecta-grid v1", ("n", "N"),
                              lambda n, N: N ** (2 * n))
    return GridFunction(make_grid(n, N), vals)
