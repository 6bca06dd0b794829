"""Dense complex matrices with an exact rational backend and a float backend.

Exact matrices keep each entry as a pair of rationals (real part,
imaginary part), so algebraic identities can be certified with zero
tolerance.  Float matrices are complex128 arrays and carry all metric
quantities (operator norm, Schatten-1 norm).  Every operation returns a
new value; matrices are immutable and safe to share across threads.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

__all__ = [
    "CertificationError",
    "DimensionError",
    "Matrix",
    "Tolerance",
    "EXACT",
    "DEFAULT_TOL",
    "is_idempotent",
    "op_norm",
    "schatten1_norm",
    "singular_values",
]


class DimensionError(ValueError):
    """Operand is empty or shapes are incompatible."""


class CertificationError(RuntimeError):
    """A quantity that is guaranteed by construction failed its check."""


def _as_rational(value):
    """Coerce ``value`` to an int or Fraction.  Floats are taken at their
    exact binary value."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational scalar")


def _entry_pair(value):
    """Split an entry into (real, imaginary) rationals."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise TypeError(f"complex entry pair must have length 2, got {value!r}")
        return _as_rational(value[0]), _as_rational(value[1])
    if isinstance(value, complex):
        return Fraction(value.real), Fraction(value.imag)
    return _as_rational(value), 0


def _classify_scalar(scalar):
    """Return ("exact", (re, im)) or ("float", complex)."""
    if isinstance(scalar, (tuple, list)) and len(scalar) == 2:
        return "exact", (_as_rational(scalar[0]), _as_rational(scalar[1]))
    if isinstance(scalar, bool) or isinstance(scalar, numbers.Integral):
        return "exact", (int(scalar), 0)
    if isinstance(scalar, Fraction):
        return "exact", (scalar, 0)
    if isinstance(scalar, numbers.Real):
        return "float", complex(float(scalar))
    if isinstance(scalar, numbers.Complex):
        return "float", complex(scalar)
    raise TypeError(f"unsupported scalar {scalar!r}")


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _common_denominator(obj_arr):
    d = 1
    for x in obj_arr.flat:
        if isinstance(x, Fraction):
            q = x.denominator
            d = d * q // gcd(d, q)
    return d


def _scale_to_ints(obj_arr):
    """Return (integer array, denominator) with obj_arr == ints / denominator."""
    d = _common_denominator(obj_arr)
    if d == 1:
        return obj_arr, 1
    out = np.empty(obj_arr.shape, dtype=object)
    flat_in = obj_arr.ravel()
    flat_out = out.ravel()
    for k, x in enumerate(flat_in):
        if isinstance(x, Fraction):
            flat_out[k] = x.numerator * (d // x.denominator)
        else:
            flat_out[k] = x * d
    return out, d


def _unscale(int_arr, denom):
    if denom == 1:
        return int_arr
    out = np.empty(int_arr.shape, dtype=object)
    flat_in = int_arr.ravel()
    flat_out = out.ravel()
    for k, x in enumerate(flat_in):
        flat_out[k] = Fraction(x, denom)
    return out


def _exact_dot(a, b):
    """Object-array matrix product with a single normalization pass.

    Pulling the denominators out first keeps the inner products in pure
    integer arithmetic, which avoids a gcd per intermediate term."""
    ai, da = _scale_to_ints(a)
    bi, db = _scale_to_ints(b)
    return _unscale(np.dot(ai, bi), da * db)


def _exact_kron(a, b):
    ai, da = _scale_to_ints(a)
    bi, db = _scale_to_ints(b)
    return _unscale(np.kron(ai, bi), da * db)


def _obj_to_float(obj_arr):
    try:
        return obj_arr.astype(float)
    except (TypeError, ValueError):
        data = [[float(x) for x in row] for row in obj_arr.tolist()]
        return np.array(data, dtype=float).reshape(obj_arr.shape)


def _is_zero_obj(obj_arr):
    return obj_arr.size == 0 or bool((obj_arr == 0).all())


class Matrix:
    """Immutable dense complex matrix with ``exact`` or ``float`` backend."""

    __slots__ = ("_backend", "_re", "_im", "_arr")

    def __init__(self):
        raise TypeError("use Matrix.exact / Matrix.from_float / Matrix.zeros")

    # -- construction -------------------------------------------------

    @classmethod
    def _wrap_exact(cls, re, im):
        self = object.__new__(cls)
        self._backend = "exact"
        if im is not None and _is_zero_obj(im):
            im = None
        self._re = _freeze(np.asarray(re, dtype=object))
        self._im = None if im is None else _freeze(np.asarray(im, dtype=object))
        self._arr = None
        return self

    @classmethod
    def _wrap_float(cls, arr):
        self = object.__new__(cls)
        self._backend = "float"
        self._re = None
        self._im = None
        self._arr = _freeze(np.asarray(arr, dtype=complex))
        return self

    @classmethod
    def exact(cls, rows):
        """Exact matrix from nested rows.  Entries may be ints, Fractions,
        strings like "3/4", (re, im) pairs, or complex numbers (taken at
        their exact binary value)."""
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise DimensionError("ragged rows")
        re = np.empty((nr, nc), dtype=object)
        im = np.empty((nr, nc), dtype=object)
        has_im = False
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                p, q = _entry_pair(v)
                re[i, j] = p
                im[i, j] = q
                if q != 0:
                    has_im = True
        return cls._wrap_exact(re, im if has_im else None)

    @classmethod
    def from_float(cls, data):
        """Float matrix from an array-like of real/complex numbers."""
        arr = np.array(data, dtype=complex)
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-d array, got shape {arr.shape}")
        return cls._wrap_float(arr)

    @classmethod
    def zeros(cls, rows, cols=None, backend="exact"):
        cols = rows if cols is None else cols
        if backend == "exact":
            return cls._wrap_exact(np.zeros((rows, cols), dtype=object), None)
        return cls._wrap_float(np.zeros((rows, cols), dtype=complex))

    @classmethod
    def identity(cls, n, backend="exact"):
        if backend == "exact":
            re = np.zeros((n, n), dtype=object)
            for i in range(n):
                re[i, i] = 1
            return cls._wrap_exact(re, None)
        return cls._wrap_float(np.eye(n, dtype=complex))

    @classmethod
    def diag(cls, values, backend="exact"):
        values = list(values)
        n = len(values)
        if backend == "exact":
            re = np.zeros((n, n), dtype=object)
            im = np.zeros((n, n), dtype=object)
            for i, v in enumerate(values):
                re[i, i], im[i, i] = _entry_pair(v)
            return cls._wrap_exact(re, im)
        arr = np.zeros((n, n), dtype=complex)
        for i, v in enumerate(values):
            arr[i, i] = complex(v)
        return cls._wrap_float(arr)

    @classmethod
    def from_rational_strings(cls, rows, backend="exact"):
        """Inverse of :meth:`to_rational_strings`."""
        parsed = []
        for row in rows:
            out = []
            for cell in row:
                if "," in cell:
                    re_s, im_s = cell.split(",")
                    out.append((Fraction(re_s), Fraction(im_s)))
                else:
                    out.append(Fraction(cell))
            parsed.append(out)
        m = cls.exact(parsed)
        return m if backend == "exact" else m.to_float()

    # -- shape ---------------------------------------------------------

    @property
    def backend(self):
        return self._backend

    @property
    def is_exact(self):
        return self._backend == "exact"

    @property
    def rows(self):
        return (self._re if self.is_exact else self._arr).shape[0]

    @property
    def cols(self):
        return (self._re if self.is_exact else self._arr).shape[1]

    @property
    def shape(self):
        return (self._re if self.is_exact else self._arr).shape

    @property
    def is_square(self):
        return self.rows == self.cols

    # -- conversion ----------------------------------------------------

    def to_float(self):
        if not self.is_exact:
            return self
        arr = _obj_to_float(self._re).astype(complex)
        if self._im is not None:
            arr = arr + 1j * _obj_to_float(self._im)
        return Matrix._wrap_float(arr)

    def numpy(self):
        """Complex ndarray copy of the matrix."""
        return self.to_float()._arr.copy()

    def entry(self, i, j):
        """Single entry: (re, im) rationals on the exact backend, complex
        on the float backend."""
        if self.is_exact:
            im = 0 if self._im is None else self._im[i, j]
            return (self._re[i, j], im)
        return complex(self._arr[i, j])

    def to_rational_strings(self):
        """Entries as strings, "re" or "re,im"; exact for both backends
        (floats are binary rationals)."""
        if self.is_exact:
            re, im = self._re, self._im
            out = []
            for i in range(self.rows):
                row = []
                for j in range(self.cols):
                    q = 0 if im is None else im[i, j]
                    row.append(str(re[i, j]) if q == 0 else f"{re[i, j]},{q}")
                out.append(row)
            return out
        out = []
        for row in self._arr:
            cells = []
            for z in row:
                rs = str(Fraction(z.real))
                cells.append(rs if z.imag == 0 else f"{rs},{Fraction(z.imag)}")
            out.append(cells)
        return out

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        if self.is_exact:
            return _is_zero_obj(self._re) and (self._im is None or _is_zero_obj(self._im))
        return self._arr.size == 0 or bool((self._arr == 0).all())

    def equals(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if self.is_exact and other.is_exact:
            if not (self._re == other._re).all():
                return False
            a, b = self._im, other._im
            if a is None and b is None:
                return True
            if a is None:
                return _is_zero_obj(b)
            if b is None:
                return _is_zero_obj(a)
            return bool((a == b).all())
        return bool(np.array_equal(self.to_float()._arr, other.to_float()._arr))

    __eq__ = equals
    __hash__ = None

    def max_abs(self):
        """Largest entry modulus, as a float."""
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return float(np.abs(self.to_float()._arr).max())

    def max_abs_diff(self, other):
        return (self - other).max_abs()

    def content(self):
        """Exact: the gcd g (up to sign) of all real and imaginary parts, so
        self / g has integer entries; 0 for the zero matrix.  Float: 1."""
        if not self.is_exact:
            return 1
        parts = [self._re.ravel()] + ([] if self._im is None else [self._im.ravel()])
        return np.gcd.reduce(np.concatenate(parts))

    def pivot(self):
        """Index (i, j) of an elimination pivot, None for a zero matrix: the
        nonzero entry of least modulus when exact (a unit entry keeps
        integer rows integer), of largest modulus when float."""
        mags = np.abs(self.to_float()._arr)
        if not self.is_exact:
            return np.unravel_index(int(np.argmax(mags)), self.shape) if mags.any() else None
        nonzero = self._re != 0
        if self._im is not None:
            nonzero |= self._im != 0
        if not nonzero.any():
            return None
        return np.unravel_index(int(np.argmin(np.where(nonzero, mags, np.inf))), self.shape)

    # -- arithmetic ------------------------------------------------------

    def _binary_backend(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        return "exact" if (self.is_exact and other.is_exact) else "float"

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")
        if self._binary_backend(other) == "float":
            return Matrix._wrap_float(self.to_float()._arr + other.to_float()._arr)
        re = self._re + other._re
        a, b = self._im, other._im
        im = a if b is None else (b if a is None else a + b)
        return Matrix._wrap_exact(re, im)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.is_exact:
            return Matrix._wrap_float(-self._arr)
        return Matrix._wrap_exact(-self._re, None if self._im is None else -self._im)

    def __mul__(self, scalar):
        kind, val = _classify_scalar(scalar)
        if not self.is_exact or kind == "float":
            z = complex(val) if kind == "float" else complex(float(val[0]), float(val[1]))
            return Matrix._wrap_float(self.to_float()._arr * z)
        p, q = val
        re, im = self._re, self._im
        if q == 0:
            return Matrix._wrap_exact(re * p, None if im is None else im * p)
        new_re = re * p if im is None else re * p - im * q
        new_im = re * q if im is None else re * q + im * p
        return Matrix._wrap_exact(new_re, new_im)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """Division by a nonzero scalar; exact entries that are integer
        multiples of a real divisor give integer entries."""
        kind, val = _classify_scalar(scalar)
        if kind == "float" or not self.is_exact:
            z = val if kind == "float" else complex(float(val[0]), float(val[1]))
            return self * (1 / z)
        p, q = val
        parts = (self._re,) if self._im is None else (self._re, self._im)
        if q == 0 and not any((x % p != 0).any() for x in parts):
            return Matrix._wrap_exact(self._re // p, None if self._im is None else self._im // p)
        den = Fraction(p * p + q * q)
        return self * (p / den, -q / den)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        if self._binary_backend(other) == "float":
            return Matrix._wrap_float(np.dot(self.to_float()._arr, other.to_float()._arr))
        are, aim = self._re, self._im
        bre, bim = other._re, other._im
        re = _exact_dot(are, bre)
        if aim is not None and bim is not None:
            re = re - _exact_dot(aim, bim)
        parts = []
        if bim is not None:
            parts.append(_exact_dot(are, bim))
        if aim is not None:
            parts.append(_exact_dot(aim, bre))
        im = None
        if parts:
            im = parts[0] if len(parts) == 1 else parts[0] + parts[1]
        return Matrix._wrap_exact(re, im)

    def adjoint(self):
        """Conjugate transpose."""
        if not self.is_exact:
            return Matrix._wrap_float(self._arr.conj().T.copy())
        re = self._re.T.copy()
        im = None if self._im is None else (-self._im).T.copy()
        return Matrix._wrap_exact(re, im)

    def kron(self, other):
        """Kronecker product; exactness is preserved on exact inputs."""
        if self._binary_backend(other) == "float":
            return Matrix._wrap_float(np.kron(self.to_float()._arr, other.to_float()._arr))
        are, aim = self._re, self._im
        bre, bim = other._re, other._im
        re = _exact_kron(are, bre)
        if aim is not None and bim is not None:
            re = re - _exact_kron(aim, bim)
        parts = []
        if bim is not None:
            parts.append(_exact_kron(are, bim))
        if aim is not None:
            parts.append(_exact_kron(aim, bre))
        im = None
        if parts:
            im = parts[0] if len(parts) == 1 else parts[0] + parts[1]
        return Matrix._wrap_exact(re, im)

    def submatrix(self, row_idx, col_idx=None):
        """Restriction to the given (ordered) row and column indices."""
        col_idx = row_idx if col_idx is None else col_idx
        sel = np.ix_(list(row_idx), list(col_idx))
        if self.is_exact:
            re = self._re[sel]
            im = None if self._im is None else self._im[sel]
            return Matrix._wrap_exact(re, im)
        return Matrix._wrap_float(self._arr[sel])

    def padded(self, dim):
        """Embed into the top-left corner of a dim x dim zero matrix."""
        if dim < max(self.rows, self.cols):
            raise DimensionError(f"cannot pad shape {self.shape} into {dim}x{dim}")
        if self.is_exact:
            re = np.zeros((dim, dim), dtype=object)
            re[: self.rows, : self.cols] = self._re
            im = None
            if self._im is not None:
                im = np.zeros((dim, dim), dtype=object)
                im[: self.rows, : self.cols] = self._im
            return Matrix._wrap_exact(re, im)
        arr = np.zeros((dim, dim), dtype=complex)
        arr[: self.rows, : self.cols] = self._arr
        return Matrix._wrap_float(arr)

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} {self._backend}>"


@dataclass(frozen=True)
class Tolerance:
    """Comparison tolerance; ``abs_tol == 0`` exactly when mode is exact."""

    abs_tol: float = 1e-9
    mode: str = "approx"

    def __post_init__(self):
        if self.mode not in ("exact", "approx"):
            raise ValueError(f"unknown tolerance mode {self.mode!r}")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if (self.abs_tol == 0) != (self.mode == "exact"):
            raise ValueError("abs_tol must be zero exactly in exact mode")

    @classmethod
    def exact(cls):
        return cls(0.0, "exact")

    @classmethod
    def approx(cls, abs_tol=1e-9):
        return cls(abs_tol, "approx")


EXACT = Tolerance.exact()
DEFAULT_TOL = Tolerance()


def _require_nonempty(m):
    if m.rows == 0 or m.cols == 0:
        raise DimensionError("matrix is empty")


def singular_values(m: Matrix) -> np.ndarray:
    """Singular values in decreasing order."""
    _require_nonempty(m)
    return np.linalg.svd(m.to_float()._arr, compute_uv=False)


def op_norm(m: Matrix) -> float:
    """Operator norm (largest singular value)."""
    return float(singular_values(m)[0])


def schatten1_norm(m: Matrix) -> float:
    """Unnormalized Schatten-1 norm (sum of singular values)."""
    return float(singular_values(m).sum())


def is_idempotent(m: Matrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether m @ m equals m, exactly or within tol.abs_tol per entry."""
    if not m.is_square:
        raise DimensionError(f"idempotency needs a square matrix, got {m.shape}")
    _require_nonempty(m)
    sq = m @ m
    if tol.mode == "exact":
        return sq.equals(m)
    return sq.max_abs_diff(m) <= tol.abs_tol
