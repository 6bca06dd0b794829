"""Dense complex matrices with an exact rational backend and a float backend.

Exact matrices are fraction-free (as in Bareiss, Math. Comp. 1968):
integer numerator arrays for the real and imaginary parts over one
shared positive denominator, kept in lowest terms, so equal matrices
have equal representations and algebraic identities can be certified
with zero tolerance.  Products multiply numerators and denominators and
normalize once.  Numerators are stored as Python integers; every exact
product (:func:`stack_product`, under Matrix ``@``, ``kron`` and scalar
``*`` too) runs on int64 when :func:`kernel_dtype` finds that an exact
bound rules out overflow, on float64 BLAS when a matrix product's sums
stay below 2**53, and on Python integers otherwise, with the same
integers either way.  Float matrices are complex128 arrays and carry all
metric quantities (operator norm, Schatten-1 norm).  Every operation
returns a new value; matrices are immutable and safe to share across
threads.

Families of matrices travel as stacks ``(re, im, den)`` (:func:`stack`),
combined by :func:`stack_product` and :func:`stack_concat` and eliminated,
many families at once, by :func:`eliminate`.

The scalar policy lives here, in :func:`read_scalar`: ints, Fractions
and (re, im) pairs of them are exact; floats and complex numbers are
float.  Scalar multiplication reads its scalar through it, and so do
``chains`` (couplings) and ``embedding`` (coefficients), so a scalar has
the same backend wherever it enters.

The comparison policy lives here too: :func:`agree` compares exact
operands with zero tolerance whatever slack it is given, and float or
mixed operands within a plain float tolerance (``DEFAULT_TOL``; 0.0 means
no slack).  Under the same policy, one
batched kernel, :func:`products_agree` (or :func:`product_table` over
every pair of a family), checks each product identity A_k B_k = T_k: the
chain's min rule and idempotency, generator orthogonality and blockwise
multiplicativity."""
from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm

import numpy as np

__all__ = [
    "CertificationError",
    "DimensionError",
    "Matrix",
    "DEFAULT_TOL",
    "read_scalar",
    "kernel_dtype",
    "stack",
    "stack_product",
    "stack_concat",
    "float_stack",
    "agree",
    "products_agree",
    "product_table",
    "eliminate",
    "op_norm",
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
    if isinstance(value, (float, str)):
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


def read_scalar(scalar):
    """The scalar policy: ("exact", (re, im)) with int or Fraction parts for
    ints, Fractions and (re, im) pairs (pair parts are read like matrix
    entries, so a float part is taken at its exact binary value);
    ("float", complex) for floats and complex numbers."""
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


def _as_complex(kind, val):
    """A value returned by :func:`read_scalar` as a Python complex."""
    return val if kind == "float" else complex(float(val[0]), float(val[1]))


def kernel_dtype(*bounds, limit=2**63 - 1):
    """The dtype of an exact integer kernel: np.int64 when every integer in
    ``bounds`` is at most ``limit`` (by default the largest int64), object
    otherwise.  Callers pass bounds on the modulus of every value their
    kernel forms, so on int64 it forms the same integers as on Python
    integers."""
    return np.int64 if max(bounds) <= limit else object


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _rational(num, den):
    """num / den as an int when it is one, else as a reduced Fraction."""
    if den == 1:
        return num
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def _numerator_max(*parts):
    """The largest modulus of the numerator arrays ``parts`` (None when zero)."""
    return max([max(int(p.max()), -int(p.min())) for p in parts if p is not None and p.size] + [0])


def _complex_product(op, a, b, inner, dtype=None):
    """The numerators re = Ar Br - Ai Bi and im = Ar Bi + Ai Br of the
    ``op`` product of a = (Ar, Ai, max|A|) and b = (Br, Bi, max|B|), None
    standing for zero, and big = 2 inner max|A| max|B| (maxima at least 1),
    which bounds those sums of 2 inner products and the operands.  Arrays
    run on ``dtype``, by default :func:`kernel_dtype` of big."""
    big = 2 * inner * max(a[2], 1) * max(b[2], 1)
    dtype = kernel_dtype(big) if dtype is None else dtype
    are, aim, bre, bim = (x.astype(dtype, copy=False) if isinstance(x, np.ndarray) else x for x in (*a[:2], *b[:2]))
    re = op(are, bre)
    if aim is not None and bim is not None:
        re = re - op(aim, bim)
    im = _sum_parts(
        None if bim is None else op(are, bim), 1,
        None if aim is None else op(aim, bre), 1,
    )
    return re, im, big


def _sum_parts(x, sx, y, sy):
    """x * sx + y * sy for numerator arrays, where None stands for zero."""
    if x is None:
        return None if y is None else y * sy
    return x * sx if y is None else x * sx + y * sy


class Matrix:
    """Immutable dense complex matrix with ``exact`` or ``float`` backend.

    An exact matrix is (re + i im) / den: integer numerator arrays ``re``
    and ``im`` (``im`` is None when zero) over one positive denominator,
    in lowest terms, so equal matrices have equal representations."""

    __slots__ = ("_backend", "_re", "_im", "_den", "_arr", "_big")

    def __init__(self):
        raise TypeError("use Matrix.exact / Matrix.from_float / Matrix.zeros")

    # -- construction -------------------------------------------------

    @classmethod
    def _wrap_exact(cls, re, im, den, big=None):
        """Exact matrix (re + i im) / den, brought to lowest terms, where no
        numerator exceeds ``big`` in modulus (None: not known).  For int64
        numerators, from an int64 kernel, the largest modulus is read off
        instead.  Numerators are stored as Python integers."""
        if re.dtype == np.int64:
            big = _numerator_max(re, im)
        re = re.astype(object, copy=False)
        im = None if im is None else im.astype(object, copy=False)
        g = gcd(den, *re.flat, *(() if im is None else im.flat))
        if g != 1:
            re, den = re // g, den // g
            im = None if im is None else im // g
            big = None if big is None else big // g
        if im is not None and not any(im.flat):
            im = None
        self = object.__new__(cls)
        self._backend = "exact"
        self._re = _freeze(re)
        self._im = None if im is None else _freeze(im)
        self._den = den
        self._arr = None
        self._big = big
        return self

    @classmethod
    def _wrap_float(cls, arr):
        self = object.__new__(cls)
        self._backend = "float"
        self._re = self._im = self._den = self._big = None
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
        pairs = [_entry_pair(v) for row in rows for v in row]
        den = lcm(*(x.denominator for pair in pairs for x in pair))
        parts = []
        for k in (0, 1):
            arr = np.empty(len(pairs), dtype=object)
            arr[:] = [pair[k].numerator * (den // pair[k].denominator) for pair in pairs]
            parts.append(arr.reshape(nr, nc))
        return cls._wrap_exact(parts[0], parts[1], den)

    @classmethod
    def from_numerators(cls, re, im, den):
        """Exact matrix (re + i im) / den from 2-d integer arrays ``re`` and
        ``im`` (``im`` None when zero), copied, and a positive integer
        ``den``, brought to lowest terms."""
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        if np.ndim(re) != 2 or (im is not None and np.shape(im) != np.shape(re)):
            raise DimensionError("numerators must be 2-d arrays of one shape")
        return cls._wrap_exact(np.array(re, dtype=object), None if im is None else np.array(im, dtype=object), den)

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
            return cls._wrap_exact(np.zeros((rows, cols), dtype=object), None, 1)
        return cls._wrap_float(np.zeros((rows, cols), dtype=complex))

    @classmethod
    def identity(cls, n, backend="exact"):
        return cls.diag([1] * n, backend)

    @classmethod
    def diag(cls, values, backend="exact"):
        """Square matrix with ``values`` on the diagonal.  Exact: the values
        are parsed once as one row (entries as in :meth:`exact`), whose
        numerators go on the diagonal over the row's denominator.  Float:
        each value is read by :func:`read_scalar`."""
        values = list(values)
        if backend == "exact":
            row = cls.exact([values])
            im = None if row._im is None else np.diag(row._im[0])
            return cls._wrap_exact(np.diag(row._re[0]), im, row._den)
        row = np.array([_as_complex(*read_scalar(v)) for v in values], dtype=complex)
        return cls._wrap_float(np.diag(row))

    # -- shape ---------------------------------------------------------

    @property
    def backend(self):
        return self._backend

    @property
    def is_exact(self):
        return self._backend == "exact"

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    @property
    def shape(self):
        return (self._re if self.is_exact else self._arr).shape

    # -- conversion ----------------------------------------------------

    def to_float(self):
        if not self.is_exact:
            return self
        return Matrix._wrap_float(float_stack(self._re, self._im, self._den))

    def numpy(self):
        """Complex ndarray copy of the matrix."""
        return self.to_float()._arr.copy()

    def entry(self, i, j):
        """Single entry: (re, im), each an int or a reduced Fraction, on the
        exact backend; complex on the float backend."""
        if self.is_exact:
            im = 0 if self._im is None else _rational(self._im[i, j], self._den)
            return (_rational(self._re[i, j], self._den), im)
        return complex(self._arr[i, j])

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        if self.is_exact:
            return self._im is None and not any(self._re.flat)
        return self._arr.size == 0 or bool((self._arr == 0).all())

    def equals(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if self.is_exact and other.is_exact:
            a, b = self._im, other._im
            return (
                self._den == other._den
                and np.array_equal(self._re, other._re)
                and (a is None) == (b is None)
                and (a is None or np.array_equal(a, b))
            )
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

    def _stack(self):
        """(stack, bound): the matrix as one unstacked ``(re, im, den)`` and,
        when exact, a bound on its numerators' moduli, kept from the
        operation that made it or else found once as the largest one."""
        if not self.is_exact:
            return (self._arr, None, None), None
        if self._big is None:
            self._big = _numerator_max(self._re, self._im)
        return (self._re, self._im, self._den), self._big

    def _product(self, op, other, inner):
        """``op`` of self and ``other`` (a Matrix, or a (stack, bound) pair as
        :meth:`_stack` gives) by :func:`stack_product`."""
        (a, bound_a), (b, bound_b) = self._stack(), other._stack() if isinstance(other, Matrix) else other
        re, im, den = stack_product(op, a, b, inner, (bound_a, bound_b))
        return Matrix._wrap_float(re) if den is None else Matrix._wrap_exact(re, im, den)

    # -- arithmetic ------------------------------------------------------

    def _sum(self, other, sign):
        """self + sign * other for sign 1 or -1, normalized once."""
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")
        if not (self.is_exact and other.is_exact):
            a, b = self.to_float()._arr, other.to_float()._arr
            return Matrix._wrap_float(a + b if sign == 1 else a - b)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        re = self._re * sa + other._re * sb
        big = None if None in (self._big, other._big) else self._big * abs(sa) + other._big * abs(sb)
        return Matrix._wrap_exact(re, _sum_parts(self._im, sa, other._im, sb), den, big)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        if not self.is_exact:
            return Matrix._wrap_float(-self._arr)
        return Matrix._wrap_exact(-self._re, None if self._im is None else -self._im, self._den, self._big)

    def __mul__(self, scalar):
        kind, val = read_scalar(scalar)
        if kind == "float":
            return self._product(np.multiply, ((np.array(val), None, None), None), 1)
        den = lcm(val[0].denominator, val[1].denominator)
        p, q = (x.numerator * (den // x.denominator) for x in val)
        return self._product(np.multiply, ((np.array(p, dtype=object), np.array(q, dtype=object) if q else None, den),
                                           max(abs(p), abs(q))), 1)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """Division by a nonzero scalar."""
        kind, val = read_scalar(scalar)
        if kind == "float" or not self.is_exact:
            return self * (1 / _as_complex(kind, val))
        p, q = val
        den = Fraction(p * p + q * q)
        return self * (p / den, -q / den)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        return self._product(np.dot, other, self.cols)

    def kron(self, other):
        """Kronecker product; exactness is preserved on exact inputs."""
        return self._product(np.kron, other, 1)

    def submatrix(self, row_idx, col_idx=None):
        """Restriction to the given (ordered) row and column indices."""
        col_idx = row_idx if col_idx is None else col_idx
        sel = np.ix_(list(row_idx), list(col_idx))
        if self.is_exact:
            return Matrix._wrap_exact(self._re[sel], None if self._im is None else self._im[sel], self._den, self._big)
        return Matrix._wrap_float(self._arr[sel])

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} {self._backend}>"


def float_stack(re, im, den):
    """The complex array (re + i im) / den of integer numerator arrays ``re``
    and ``im`` (None when zero), where ``den`` is a positive integer or an
    integer array that broadcasts against ``re``.  Each entry is rounded
    once: int / int rounds correctly however large the numerator, so an
    entry equals what :meth:`Matrix.to_float` gives for the same rational,
    in whatever terms it is written."""
    if den is None:
        return re
    if re.dtype != object and max(_numerator_max(re, im), int(np.max(den))) > 2**53:
        # numpy rounds int64 to float64 before dividing; Python integers do not
        re, im = re.astype(object), None if im is None else im.astype(object)
    arr = np.zeros(re.shape, dtype=complex)
    arr.real = re / den
    if im is not None:
        arr.imag = im / den
    return arr


def stack(mats):
    """Square matrices of one shape as one (count, n, n) stack ``(re, im,
    den)``.  When every matrix is exact: object arrays of integer
    numerators over the least common denominator ``den``, with ``im`` None
    when every matrix is real.  Otherwise ``re`` is the complex array of
    the matrices' float values and ``im`` and ``den`` are None."""
    mats = list(mats)
    shapes = {m.shape for m in mats}
    if len(shapes) != 1 or any(rows != cols or not rows for rows, cols in shapes):
        raise DimensionError(f"expected nonempty square matrices of one shape, got shapes {sorted(shapes)}")
    if not all(m.is_exact for m in mats):
        return np.stack([m.to_float()._arr for m in mats]), None, None
    den = lcm(*(m._den for m in mats))
    re = np.stack([m._re * (den // m._den) for m in mats])
    if all(m._im is None for m in mats):
        return re, None, den
    zero = np.zeros(re.shape[1:], dtype=object)
    return re, np.stack([(zero if m._im is None else m._im) * (den // m._den) for m in mats]), den


def stack_product(op, a, b, inner=1, bounds=(None, None)):
    """``op`` (np.dot, np.matmul, np.multiply, np.kron, ...) of two stacks
    ``(re, im, den)``: over den_a den_b when both are exact, else of the
    float values.  Exact numerators run on the dtype :func:`kernel_dtype`
    picks for sums of ``inner`` products of operands whose numerators are
    bounded by ``bounds`` (each found when None); matrix products whose
    sums stay below 2**53 run exactly on float64, where they have BLAS."""
    if a[2] is None or b[2] is None:
        return op(float_stack(*a), float_stack(*b)), None, None
    ops = [(x[0], x[1], _numerator_max(x[0], x[1]) if k is None else k) for x, k in zip((a, b), bounds)]
    fast = op in (np.matmul, np.dot) and 2 * inner * max(ops[0][2], 1) * max(ops[1][2], 1) < 2**53
    re, im, _ = _complex_product(op, *ops, inner, np.float64 if fast else None)
    return *(x.astype(np.int64) if fast and x is not None else x for x in (re, im)), a[2] * b[2]


def stack_concat(stacks, axis=0):
    """Stacks ``(re, im, den)`` joined along ``axis``: over the least common
    denominator when every nonempty one is exact, else as floats."""
    stacks = [x for x in stacks if x[0].shape[axis]] or list(stacks)[:1]
    if any(x[2] is None for x in stacks):
        return np.concatenate([float_stack(*x) for x in stacks], axis=axis), None, None
    den = lcm(*(x[2] for x in stacks))
    parts = [x if x[2] == den else stack_product(np.multiply, x, (np.array(den // x[2], dtype=object), None, 1))
             for x in stacks]
    ims = None if all(x[1] is None for x in parts) else [np.zeros_like(x[0]) if x[1] is None else x[1] for x in parts]
    return np.concatenate([x[0] for x in parts], axis=axis), ims and np.concatenate(ims, axis=axis), den


DEFAULT_TOL = 1e-9


def agree(a: Matrix, b: Matrix, tol: float) -> bool:
    """Whether a and b are equal: exactly when both are exact, whatever
    ``tol`` is, and within ``tol`` per entry otherwise."""
    if a.is_exact and b.is_exact:
        return a.equals(b)
    return a.max_abs_diff(b) <= tol



def products_agree(a, b, t, tol: float):
    """Whether A_k B_k equals T_k, in the sense of :func:`agree`, and the
    deviation as :meth:`Matrix.max_abs_diff` reads it, as two arrays over
    the leading axes k (which broadcast), for stacks ``(re, im, den)`` as
    :func:`stack` gives them (exact numerators on int64 or Python integers;
    with one float stack, all are read as float).  Exact stacks form
    A_k B_k by :func:`stack_product` and compare (A_k B_k) (d_t / g) with
    T_k (d_a d_b / g), g = gcd(d_t, d_a d_b), on the dtype
    :func:`kernel_dtype` picks for both sides."""
    (ar, ai, da), (br, bi, db), (tr, ti, dt) = a, b, t
    if None in (da, db, dt):
        fa, fb, ft = (float_stack(*x) for x in (a, b, t))
        dev = np.abs(np.matmul(fa, fb) - ft).max(axis=(-2, -1))
        return dev <= tol, dev
    g = gcd(dt, da * db)
    sp, st = dt // g, da * db // g
    bounds = (_numerator_max(ar, ai), _numerator_max(br, bi))
    re, im, _ = stack_product(np.matmul, a, b, ar.shape[-1], bounds)
    big = 2 * ar.shape[-1] * max(bounds[0], 1) * max(bounds[1], 1)
    dtype = kernel_dtype(big * sp, max(_numerator_max(tr, ti), 1) * st)
    # (A B) sp and T st; a failing index reads its deviation off their difference
    sides = [
        [0 if x is None else x.astype(dtype, copy=False) * s for x, s in ((p, sp), (q, st))]
        for p, q in ((re, tr), (im, ti)) if p is not None or q is not None
    ]
    ok = np.logical_and.reduce([np.equal(lhs, rhs).all(axis=(-2, -1)) for lhs, rhs in sides])
    dev = np.zeros(ok.shape)
    if not ok.all():
        diff = [np.subtract(lhs, rhs, dtype=object)[~ok] for lhs, rhs in sides] + [None]
        dev[~ok] = np.abs(float_stack(diff[0], diff[1], dt * st)).max(axis=(-2, -1))
    return ok, dev


# the largest number of entries of one row block of a product_table
_BLOCK_ENTRIES = 2**20


def product_table(family, targets, tol: float):
    """:func:`products_agree` for F_i F_j = F_t, t = targets[i, j] (-1 for
    zero), over every pair of a family stack, as two (count, count) arrays;
    row blocks of at most ``_BLOCK_ENTRIES`` entries broadcast against it."""
    re, im, den = family
    count, targets = len(re), np.asarray(targets)
    # exact numerators on int64 once when they fit; target -1 picks a zero matrix
    dtype = re.dtype if den is None else kernel_dtype(_numerator_max(re, im))
    parts = [None if x is None else np.concatenate([x, np.zeros_like(x[:1])]).astype(dtype) for x in (re, im)]
    ok, dev = np.empty((count, count), dtype=bool), np.empty((count, count))
    step = max(1, _BLOCK_ENTRIES // (count * re[0].size))
    for lo in range(0, count, step):
        rows = slice(lo, min(lo + step, count))
        picks = ((rows, None), (None, slice(count)), targets[rows])
        a, b, t = ((*(None if x is None else x[idx] for x in parts), den) for idx in picks)
        ok[rows], dev[rows] = products_agree(a, b, t, tol)
    return ok, dev


def _pivots(head, exact):
    """Per row of ``head``, flattened nonzero matrices (numerator parts when
    exact, one complex array when float), the column of its elimination
    pivot: the first nonzero entry of least modulus when exact, compared
    as re^2 + im^2 in integers, and of largest modulus when float."""
    if not exact:
        return np.argmax(np.abs(head[0]), axis=1)
    wide = _numerator_max(*head) >= 2**30  # squares past int64 go on Python integers
    mags = sum(x * x for x in (y.astype(object) if wide else y for y in head))
    return np.argmin(np.where(mags != 0, mags, mags.max() + 1), axis=1)


def eliminate(family, rows=None, zero_below=0.0, coordinates=True):
    """Gaussian elimination of a batch of families of matrices, a stack
    ``(re, im, den)`` of shape (batch, count, ...), every family in its own
    order and each matrix read as one row.  A row is reduced against one
    pivot per kept row before it and kept when its remainder is nonzero and
    it is among the first ``rows``; a float remainder is also zero when no
    entry exceeds ``zero_below`` (broadcast against (batch, count)).  The
    pivot is the first nonzero entry of least modulus when exact, of largest
    when float.  Exact rows are fraction-free (Bareiss: p R - c P over the
    previous pivot, an exact division), on int64 while :func:`kernel_dtype`
    allows it, with the coordinates as augmented identity columns.  Returns
    (batch, count) masks ``kept`` and ``spanned`` (in the span of the kept
    rows before it) and ``coords`` (None if not ``coordinates``), a stack
    whose entry (b, k, l) is matrix k's coordinate over kept matrix l."""
    re, im, den = family
    (batch, count), exact, aug = re.shape[:2], den is not None, re.shape[1] if coordinates else 0
    dtype = kernel_dtype(_numerator_max(re, im)) if exact else complex
    unit = np.broadcast_to(np.eye(count, aug, dtype=dtype), (batch, count, aug))
    parts = [np.concatenate([x.reshape(batch, count, -1).astype(dtype), unit if x is re else 0 * unit], axis=2)
             for x in (re, im) if x is not None]
    width, limit = parts[0].shape[2] - aug, np.broadcast_to(zero_below, (batch, count))
    kept, spanned = np.zeros((batch, count), dtype=bool), np.zeros((batch, count), dtype=bool)
    prev = [np.ones(batch, dtype=dtype)] + [np.zeros(batch, dtype=dtype)] * (len(parts) - 1)
    for k in range(count):
        head = [x[:, k, :width] for x in parts]
        if exact:
            nonzero = (head[0] if len(head) == 1 else head[0] | head[1]) != 0
        else:
            nonzero = np.abs(head[0]) > limit[:, k, None]
        spanned[:, k] = ~nonzero.any(axis=1)
        kept[:, k] = ~spanned[:, k] & (rows is None or k < rows)
        fam, pick = np.flatnonzero(kept[:, k]), np.arange(kept[:, k].sum())
        if not fam.size or k + 1 == count:
            continue
        if not exact:
            top, low = parts[0][fam, k], parts[0][fam, k + 1:]
            j = _pivots([top[:, :width]], exact)
            parts[0][fam, k + 1:] = low - low[pick, :, j][..., None] * (top * (1 / top[pick, j])[:, None])[:, None]
            continue
        # Bareiss: p R - c P is divisible by the family's previous pivot q
        top, low, q = [x[fam, k] for x in parts], [x[fam, k + 1:] for x in parts], [x[fam] for x in prev]
        big = _numerator_max(*top, *low, *q)
        if dtype != object and kernel_dtype(2 * big**2 if len(parts) == 1 else 8 * big**3) is object:
            parts, prev, dtype = [x.astype(object) for x in parts], [x.astype(object) for x in prev], object
            top, low, q = ([x.astype(object) for x in y] for y in (top, low, q))
        j = _pivots([x[:, :width] for x in top], exact)
        p, c = [x[pick, j][:, None, None] for x in top], [x[pick, :, j][..., None] for x in low]
        top, q = [x[:, None] for x in top], [x[:, None, None] for x in q]
        if len(parts) == 1:
            new = [(p[0] * low[0] - c[0] * top[0]) // q[0]]
        else:
            x = p[0] * low[0] - p[1] * low[1] - c[0] * top[0] + c[1] * top[1]
            y = p[0] * low[1] + p[1] * low[0] - c[0] * top[1] - c[1] * top[0]
            new = [(x * q[0] + y * q[1]) // (q[0] ** 2 + q[1] ** 2), (y * q[0] - x * q[1]) // (q[0] ** 2 + q[1] ** 2)]
        for x, y, r, z in zip(parts, new, prev, p):
            x[fam, k + 1:], r[fam] = y, z[:, 0, 0]
    if not coordinates:
        return kept, spanned, None
    # a row r of the span has a_r m_r + sum_l a_l m_l = 0 with a_r != 0, so
    # its coordinates are -a_l / a_r = -a_l conj(a_r) / |a_r|^2, in lowest terms
    a = [x[:, :, width:].astype(object if exact else complex) for x in parts]
    ar = [np.diagonal(x, axis1=1, axis2=2)[..., None] for x in a]
    if len(a) == 1:
        norm, nums = ar[0] * ar[0], [-a[0] * ar[0]]
    else:
        norm, nums = ar[0] ** 2 + ar[1] ** 2, [-(a[0] * ar[0] + a[1] * ar[1]), a[0] * ar[1] - a[1] * ar[0]]
    den = 1
    if exact:
        g = np.gcd.reduce(np.concatenate([*nums, norm], axis=2), axis=2, initial=0)[..., None]
        norm, nums = norm // g, [x // g for x in nums]
        den = lcm(*norm[spanned].flat)
    fam, pivots = np.nonzero(kept)
    scale = den // norm if exact else 1 / norm
    coords = [np.where(spanned[:, :, None] & kept[:, None, :], x * scale, 0) for x in nums]
    coords[0][fam, pivots, pivots] = den
    return kept, spanned, (coords[0], coords[1] if len(coords) == 2 else None, den if exact else None)


def singular_values(m: Matrix | np.ndarray) -> np.ndarray:
    """Singular values in decreasing order.  A (count, rows, cols) array of
    matrices gets one stacked SVD, with row i holding the values of the
    i-th matrix; each row equals what the matrix alone gives."""
    if isinstance(m, Matrix):
        return singular_values(m.to_float()._arr[None])[0]
    if m.ndim != 3 or 0 in m.shape[1:]:
        raise DimensionError(f"expected a stack of nonempty matrices, got shape {m.shape}")
    return np.linalg.svd(m, compute_uv=False)


def op_norm(m: Matrix) -> float:
    """Operator norm (largest singular value)."""
    return float(singular_values(m)[0])
