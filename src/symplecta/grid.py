"""Self-dual discretization of phase space and the symplectic Fourier transform.

A self-dual grid has N points per axis at spacing h = sqrt(2pi/N), so that
sigma between grid points is always an integer multiple of 2pi/N and the
discrete symplectic Fourier transform is an exact involution.  The phase-space
quadrature weight per point is w = (2pi)^{-n} h^{2n} = N^{-n}, matching the
normalized invariant measure.

Index order is lexicographic with the x-axes before the p-axes; for n=1 a
GridFunction's values array is indexed values[x, p].
"""

from dataclasses import dataclass

import numpy as np

from .symplin import _RANK_RTOL, SymplecticSpace, sigma_eval


def _axis(N):
    """Centered self-dual lattice axis {-N/2, ..., N/2-1} * sqrt(2pi/N)."""
    return (np.arange(N) - N // 2) * np.sqrt(2 * np.pi / N)


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
    per-axis widths when of length d, else row-major; ValueError when it is
    ill-conditioned."""
    if len(covariance) == 0:
        return np.eye(d)
    cov = np.asarray(covariance, dtype=float)
    cov = np.diag(cov ** 2) if cov.size == d else cov.reshape(d, d)
    if np.linalg.cond(cov) > 1e8:
        raise ValueError("ill-conditioned covariance")
    return cov


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
        if self.n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if self.N % 2 != 0 or not (4 <= self.N <= 256):
            raise ValueError("N must be even and in [4, 256]")

    @property
    def h(self):
        return np.sqrt(2 * np.pi / self.N)

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

    def space(self):
        return SymplecticSpace(self.n)


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

    def copy(self):
        return GridFunction(self.grid, self.values.copy())

    def norm_lp(self, p):
        """Weighted L^p norm with the phase-space weight N^{-n}."""
        w = self.grid.weight
        a = np.abs(self.values)
        if p == np.inf:
            return float(a.max())
        return float((np.sum(a**p) * w) ** (1.0 / p))


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
    d = grid.dim
    pts = grid.points()
    center = np.zeros(d) if len(spec.center) == 0 else np.asarray(spec.center, float)
    z = pts - center
    if spec.kind == "file":
        f = read_grid_function(spec.path)
        if f.grid != grid:
            raise ValueError(f"symbol file {spec.path} holds a grid with n={f.grid.n}, "
                             f"N={f.grid.N}, not n={grid.n}, N={grid.N}")
        return f
    if spec.kind not in ("gaussian", "hermite-gaussian", "polynomial-times-gaussian",
                         "chirp-gaussian"):
        raise ValueError(f"unknown symbol kind {spec.kind!r}")
    hermite = (spec.hermite_index or (1,) * d) if spec.kind == "hermite-gaussian" else ()
    cov = _covariance_matrix(spec.covariance, d)
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
    """Apply the sigma-Fourier multiplier lam: F (lam . F f).

    lam may be a GridFunction, an ndarray of grid values, or a callable
    evaluated on the grid points.
    """
    if isinstance(lam, GridFunction):
        lv = lam.values
    elif callable(lam):
        lv = np.asarray(lam(f.grid.points()), dtype=complex).reshape(f.values.shape)
    else:
        lv = np.asarray(lam, dtype=complex).reshape(f.values.shape)
    if not np.all(np.isfinite(lv)):
        bad = np.argwhere(~np.isfinite(lv))[0]
        raise ArithmeticError(f"non-finite multiplier value at index {tuple(bad)}")
    g = symplectic_fourier(f)
    return symplectic_fourier(GridFunction(f.grid, lv * g.values))


def _lattice_matrix(A, tol=1e-9):
    Ai = np.rint(A)
    if np.abs(A - Ai).max() > tol or np.abs(Ai).max() > 2**31:  # no integer index map
        return None
    return Ai.astype(int)


def pullback(A, f, mode="exact"):
    """Pullback A^* f = f(A .) on the grid.

    mode="exact": A must be integer in grid units; samples are permuted with
    periodic wraparound (unimodular lattice maps are exactly invertible).
    mode="resampled": values of the band-limited (trigonometric) extension of
    f at the points A * xi; the extension is periodic.
    mode="truncated": like exact/resampled but points A * xi that leave the
    fundamental box give 0 instead of wrapping — the faithful choice for
    expanding lattice maps applied to decaying symbols.
    """
    A = np.asarray(A, dtype=float)
    grid = f.grid
    svals = np.linalg.svd(A, compute_uv=False) if np.isfinite(A).all() else [0.0]
    if not svals[-1] > _RANK_RTOL * svals[0]:
        raise ValueError("singular pullback map")
    N = grid.N
    Ai = _lattice_matrix(A) if mode in ("exact", "truncated") else None
    if Ai is not None:
        m = np.indices((N,) * grid.dim).reshape(grid.dim, -1).T - N // 2  # (P, 2n)
        tgt = m @ Ai.T + N // 2
        out = f.values.ravel()[np.ravel_multi_index(tuple(tgt.T), f.values.shape,
                                                    mode="wrap")]
        if mode == "truncated":
            out[np.any((tgt < 0) | (tgt >= N), axis=1)] = 0.0
        return GridFunction(grid, out)
    if mode == "exact":
        raise ValueError("exact pullback needs a lattice map; use mode='resampled'")
    if mode not in ("resampled", "truncated"):
        raise ValueError(f"unknown pullback mode {mode!r}")
    return GridFunction(grid, _resample(f.values, A, mask_outside=mode == "truncated"))


def _resample(vals, A, mask_outside=False):
    """Trigonometric interpolation of lattice samples (any dimension d) at the
    points A x of the same lattice; with mask_outside, points that leave the
    fundamental box give 0."""
    N, d = vals.shape[0], vals.ndim
    ax = _axis(N)
    # Fourier coefficients over the centered frequency lattice (same lattice).
    fk = _ord_ft(vals) / N**d
    diagonal = np.abs(A - np.diag(np.diag(A))).max() < 1e-14
    if mask_outside or not diagonal:
        kpts = _lattice_points(N, d)
        tgt = kpts @ A.T  # (P, d)
    if diagonal:
        # diagonal map: separable per-axis interpolation, O(d N^{d+1})
        out = fk
        for i in range(d):
            E = np.exp(1j * np.outer(A[i, i] * ax, ax))  # (t, k)
            out = np.moveaxis(np.tensordot(E, np.moveaxis(out, i, 0), axes=(1, 0)), 0, i)
        out = out.ravel()
    else:
        out = np.empty(tgt.shape[0], complex)
        fkv = fk.ravel()
        chunk = max(1, (1 << 22) // kpts.shape[0])
        for i0 in range(0, tgt.shape[0], chunk):
            ph = np.exp(1j * (tgt[i0:i0 + chunk] @ kpts.T))
            out[i0:i0 + chunk] = ph @ fkv
    if mask_outside:
        L = N * np.sqrt(2 * np.pi / N)
        out[~np.all((tgt >= -L / 2 - 1e-12) & (tgt < L / 2 - 1e-12), axis=1)] = 0.0
    return out.reshape(vals.shape)


def translate(xi, f, mode="auto"):
    """Translate (tau_xi f)(.) = f(. - xi).

    Lattice xi: exact cyclic index shift.  Off-lattice xi (or mode="resampled"):
    the Fourier multiplier e^{-i sigma(., xi)}, i.e. a band-limited periodic shift.
    """
    grid = f.grid
    xi = np.asarray(xi, dtype=float)
    idx = xi / grid.h
    idx_i = np.rint(idx)
    if mode != "resampled" and np.abs(idx - idx_i).max() < 1e-9:
        out = np.roll(f.values, shift=tuple(int(k) for k in idx_i),
                      axis=tuple(range(grid.dim)))
        return GridFunction(grid, out)
    space = grid.space()
    pts = grid.points()
    lam = np.exp(-1j * sigma_eval(space, pts, np.broadcast_to(xi, pts.shape)))
    return apply_multiplier(lam.reshape(f.values.shape), f)


def sigma_convolve(b, c):
    """Phase-space convolution (b * c)(xi) = sum_eta b(xi-eta) c(eta) w, periodic."""
    if b.grid != c.grid:
        raise ValueError("grid mismatch")
    conv = _ord_ift(_ord_ft(b.values) * _ord_ft(c.values))
    return GridFunction(b.grid, conv * b.grid.weight)


# ---------------------------------------------------------------------------
# text codec of grid and operator files: one header line, then one `re,im`
# row per complex value, written by repr so that reads are bit-exact
# ---------------------------------------------------------------------------

def _write_rows(path, header, values):
    v = np.asarray(values, dtype=complex).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "".join(
            f"{re!r},{im!r}\n" for re, im in zip(v.real.tolist(), v.imag.tolist())))


def _read_rows(path, magic, keys, count):
    """Integer header fields `keys` and complex values of a grid or operator file;
    ValueError unless the header is `magic` and the body holds count(*fields) rows."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = dict(part.strip().split("=", 1) for part in header.split(",")[1:]
                      if "=" in part)
        if not (header.startswith(magic) and all(fields.get(k, "").isdigit() for k in keys)):
            raise ValueError(f"not a {magic} file: {header!r}")
        dims = [int(fields[k]) for k in keys]
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (count(*dims), 2):
        raise ValueError(f"{path}: expected {count(*dims)} re,im rows, found {len(rows)}")
    return dims, rows.view(complex).ravel()


def write_grid_function(f, path):
    _write_rows(path, f"symplecta-grid v1, n={f.grid.n}, N={f.grid.N}", f.values)


def read_grid_function(path):
    (n, N), vals = _read_rows(path, "symplecta-grid v1", ("n", "N"),
                              lambda n, N: N ** (2 * n))
    return GridFunction(make_grid(n, N), vals)
