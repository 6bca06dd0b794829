"""Dense complex matrices with an exact rational backend and a float backend.

Exact data is fraction-free (as in Bareiss, Math. Comp. 1968): integer
numerator arrays for the real and imaginary parts over one shared
positive denominator.  It travels as one type, :class:`Stack`, which
also carries a bound on the moduli of its numerators.  A bound may be
loose but never low: every exact kernel picks its dtype from its
operands' bounds, int64 when the bound of every value it forms fits
(:func:`kernel_dtype`), float64 BLAS for a matrix product whose sums stay
below 2**53, and Python integers otherwise, and returns the bound it
computed for that choice with its result.  A loose bound only widens a
dtype, so the integers are the same; a low one would silently overflow
int64, or run float64 past 2**53.  Rationals become numerators by one
rule, :meth:`Stack.of`, which bounds them from the integers it forms.
Numerators are read for a bound (:meth:`Stack.read`) only where arrays
come without one, such as drawn trial numerators, a gcd and the
coordinates and steps of :func:`eliminate`, or where a choice other than
a dtype rests on the largest numerator.

Families of matrices are stacks with leading axes (:func:`stack`),
combined by :func:`stack_product`, :func:`stack_concat` and
:func:`stack_difference`, which put exact stacks over their least common
denominator by one rule, read as floats by :func:`float_stack` and
eliminated, many families at once, by :func:`eliminate`.  A
:class:`Matrix` is a view of a stack of one matrix, in lowest terms when
exact, so equal matrices have equal representations and algebraic
identities can be certified with zero tolerance; its ``@``, ``kron``,
``+``, ``-`` and scalar ``*`` are those kernels.  Float matrices are
complex128 arrays and carry all metric quantities (operator norm,
Schatten-1 norm).  Every operation returns a new value; matrices are
immutable and safe to share across threads.

The scalar policy lives here, in :func:`read_scalar`: ints, Fractions
and (re, im) pairs of them are exact; floats and complex numbers are
float.  Scalar multiplication reads its scalar through it, and so do
``chains`` (couplings) and ``embedding`` (coefficients), so a scalar has
the same backend wherever it enters.

The comparison policy lives here too, in one batched kernel,
:func:`products_agree` (or :func:`product_table` over every pair of a
family), which checks every identity the package certifies as
A_k B_k = T_k: exact operands with zero tolerance whatever slack it is
given, by comparing numerators over the common denominator and
subtracting only where they differ, and float or mixed operands within
a plain float tolerance (``DEFAULT_TOL``; 0.0 means no slack)."""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm, ulp

import numpy as np

__all__ = [
    "CertificationError",
    "DimensionError",
    "Matrix",
    "Stack",
    "DEFAULT_TOL",
    "read_scalar",
    "kernel_dtype",
    "stack",
    "stack_product",
    "stack_concat",
    "stack_difference",
    "float_stack",
    "products_agree",
    "product_table",
    "eliminate",
    "op_norm",
    "singular_values",
    "bound_holds",
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


def kernel_dtype(*bounds):
    """The dtype of an exact integer kernel: np.int64 when every integer in
    ``bounds`` fits int64, object otherwise.  Callers pass bounds on the
    modulus of every value their kernel forms, so on int64 it forms the
    same integers as on Python integers."""
    return np.int64 if max(bounds) <= 2**63 - 1 else object


def _freeze(arr):
    arr = arr.view()
    arr.flags.writeable = False
    return arr


def _rational(num, den):
    """num / den as an int when it is one, else as a reduced Fraction."""
    if den == 1:
        return num
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def _numerator_max(*parts):
    """The largest modulus of the numerator arrays ``parts`` (None standing for zero)."""
    return max([max(int(p.max()), -int(p.min())) for p in parts if p is not None and p.size] + [0])


@dataclass(frozen=True, slots=True, eq=False)
class Stack:
    """Exact or float arrays of matrices, matrix axes last, leading axes
    indexing them.  Exact: integer numerator arrays ``re`` and ``im`` (None
    when zero) over the positive denominator ``den``, no numerator of
    modulus above ``bound``; :func:`float_stack` also reads an integer
    array ``den`` that broadcasts against ``re``.  Float: the complex array
    ``re``, with ``im``, ``den`` and ``bound`` None.  Arrays are shared, not
    copied, and no kernel writes into an operand."""

    re: np.ndarray
    im: np.ndarray | None = None
    den: int | None = None
    bound: int | None = None

    @classmethod
    def read(cls, re, im=None, den=1) -> "Stack":
        """The exact stack of numerator arrays that come without a bound,
        bounded by their largest modulus."""
        return cls(re, im, den, _numerator_max(re, im))

    @classmethod
    def of(cls, pairs) -> "Stack":
        """The exact 1-d stack of a sequence of (re, im) pairs of ints and
        Fractions: their numerators over the least common denominator, as
        Python integers in object arrays, ``im`` None when every imaginary
        part is 0, bounded by the largest modulus of those integers."""
        den = lcm(*(x.denominator for pair in pairs for x in pair))
        re, im = ([pair[k].numerator * (den // pair[k].denominator) for pair in pairs] for k in (0, 1))
        bound = max(map(abs, re + im), default=0)
        return cls(np.array(re, dtype=object), np.array(im, dtype=object) if any(im) else None, den, bound)

    def apply(self, f, bound=None) -> "Stack":
        """The stack with ``f`` applied to its numerator (or float) arrays.
        ``bound`` is the new bound, by default the old one, which holds when
        ``f`` selects, reshapes, broadcasts, negates or divides; int64
        numerators move to Python integers first when it needs them."""
        re, im = self.re, self.im
        if bound is not None and kernel_dtype(bound) is object:
            re, im = (None if x is None else x.astype(object, copy=False) for x in (re, im))
        return Stack(f(re), None if im is None else f(im), self.den, self.bound if bound is None else bound)

    def take(self, idx) -> "Stack":
        """The matrices at ``idx`` of the leading axes (None adds one)."""
        return self.apply(lambda x: x[idx])


def _complex_product(op, a, b, dtype):
    """The numerators re = Ar Br - Ai Bi and im = Ar Bi + Ai Br of the
    ``op`` product of the exact stacks a and b, None standing for zero,
    with the operands run on ``dtype``."""
    are, aim, bre, bim = (None if x is None else x.astype(dtype, copy=False) for x in (a.re, a.im, b.re, b.im))
    re = op(are, bre) if aim is None or bim is None else op(are, bre) - op(aim, bim)
    ims = [op(x, y) for x, y in ((are, bim), (aim, bre)) if x is not None and y is not None]
    return re, ims[0] + ims[1] if len(ims) == 2 else ims[0] if ims else None


class Matrix:
    """Immutable dense complex matrix with ``exact`` or ``float`` backend:
    a view of a :class:`Stack` of one matrix.  An exact matrix is
    (re + i im) / den, in lowest terms with ``im`` None when zero, so
    equal matrices have equal representations."""

    __slots__ = ("_s",)

    def __init__(self):
        raise TypeError("use Matrix.exact / Matrix.from_float / Matrix.zeros")

    # -- construction -------------------------------------------------

    @classmethod
    def from_stack(cls, s: Stack) -> "Matrix":
        """The matrix of a stack of one matrix (2-d arrays), exact ones
        brought to lowest terms."""
        if s.den is None:
            s = Stack(_freeze(np.asarray(s.re, dtype=complex)))
        else:
            re, im = s.re, None if s.im is None or not np.count_nonzero(s.im) else s.im
            g = 1 if s.den == 1 else gcd(s.den, *(int(np.gcd.reduce(x, axis=None)) for x in (re, im) if x is not None))
            if g != 1:
                # g is den when every numerator is 0, and den may not fit int64
                zero = im is None and not np.count_nonzero(re)
                re, im = (np.zeros_like(re), None) if zero else (re // g, None if im is None else im // g)
            s = Stack(_freeze(re), None if im is None else _freeze(im), s.den // g, s.bound // g)
        self = object.__new__(cls)
        self._s = s
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
        entries = Stack.of([_entry_pair(v) for row in rows for v in row])
        return cls.from_stack(entries.apply(lambda x: x.reshape(nr, nc)))

    @classmethod
    def from_float(cls, data):
        """Float matrix from an array-like of real/complex numbers."""
        arr = np.array(data, dtype=complex)
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-d array, got shape {arr.shape}")
        return cls.from_stack(Stack(arr))

    @classmethod
    def zeros(cls, rows, cols=None, backend="exact"):
        shape = (rows, rows if cols is None else cols)
        if backend == "exact":
            return cls.from_stack(Stack(np.zeros(shape, dtype=np.int64), None, 1, 0))
        return cls.from_stack(Stack(np.zeros(shape, dtype=complex)))

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
            return cls.from_stack(cls.exact([values])._s.apply(lambda x: np.diag(x[0])))
        row = np.array([_as_complex(*read_scalar(v)) for v in values], dtype=complex)
        return cls.from_stack(Stack(np.diag(row)))

    # -- shape ---------------------------------------------------------

    @property
    def backend(self):
        return "exact" if self.is_exact else "float"

    @property
    def is_exact(self):
        return self._s.den is not None

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    @property
    def shape(self):
        return self._s.re.shape

    # -- conversion ----------------------------------------------------

    def to_float(self):
        return Matrix.from_stack(Stack(float_stack(self._s))) if self.is_exact else self

    def numpy(self):
        """Complex ndarray copy of the matrix."""
        return self.to_float()._s.re.copy()

    def entry(self, i, j):
        """Single entry: (re, im), each an int or a reduced Fraction, on the
        exact backend; complex on the float backend."""
        s = self._s
        if not self.is_exact:
            return complex(s.re[i, j])
        return _rational(int(s.re[i, j]), s.den), 0 if s.im is None else _rational(int(s.im[i, j]), s.den)

    # -- predicates ----------------------------------------------------

    def equals(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        a, b = self._s, other._s
        if self.is_exact and other.is_exact:
            return (
                a.den == b.den
                and np.array_equal(a.re, b.re)
                and (a.im is None) == (b.im is None)
                and (a.im is None or np.array_equal(a.im, b.im))
            )
        return bool(np.array_equal(float_stack(a), float_stack(b)))

    __eq__ = equals
    __hash__ = None

    def max_abs(self):
        """Largest entry modulus, as a float (0.0 when empty)."""
        return float(np.abs(float_stack(self._s)).max(initial=0.0))

    def max_abs_diff(self, other):
        return (self - other).max_abs()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return self - -other

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix.from_stack(stack_difference(self._s, other._s))

    def __neg__(self):
        return Matrix.from_stack(self._s.apply(np.negative))

    def __mul__(self, scalar):
        kind, val = read_scalar(scalar)
        z = Stack(np.array(val)) if kind == "float" else Stack.of([val])
        return Matrix.from_stack(stack_product(np.multiply, self._s, z))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        return Matrix.from_stack(stack_product(np.dot, self._s, other._s, self.cols))

    def kron(self, other):
        """Kronecker product; exactness is preserved on exact inputs."""
        return Matrix.from_stack(stack_product(np.kron, self._s, other._s))

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} {self.backend}>"


def float_stack(s: Stack) -> np.ndarray:
    """The complex array of a stack: (re + i im) / den when exact.  Each
    entry is rounded once: int / int rounds correctly however large the
    numerator, so an entry equals what :meth:`Matrix.to_float` gives for
    the same rational, in whatever terms it is written."""
    if s.den is None:
        return s.re
    re, im = s.re, s.im
    if max(s.bound, int(np.max(s.den))) > 2**53:
        # numpy rounds int64 to float64 before dividing; Python integers do not
        re, im = (None if x is None else x.astype(object, copy=False) for x in (re, im))
    arr = np.zeros(re.shape, dtype=complex)
    arr.real = re / s.den
    if im is not None:
        arr.imag = im / s.den
    return arr


def stack(mats) -> Stack:
    """Square matrices of one shape as one (count, n, n) stack
    (:func:`stack_concat`), on int64 when exact and its bound fits, with
    ``im`` None when every matrix is real; one float matrix makes it the
    complex array of the matrices' float values."""
    parts = [m._s for m in mats]
    shapes = {s.re.shape for s in parts}
    if len(shapes) != 1 or any(rows != cols or not rows for rows, cols in shapes):
        raise DimensionError(f"expected nonempty square matrices of one shape, got shapes {sorted(shapes)}")
    cast = lambda s: s.apply(lambda x: x.astype(kernel_dtype(s.bound), copy=False)[None])
    return stack_concat([s.take(None) if s.den is None else cast(s) for s in parts])


def stack_product(op, a: Stack, b: Stack, inner=1) -> Stack:
    """``op`` (np.dot, np.matmul, np.multiply, np.kron, ...) of two stacks:
    over den_a den_b when both are exact, else of the float values.  Exact
    numerators run on the dtype :func:`kernel_dtype` picks for the bound
    2 inner max|A| max|B| on sums of ``inner`` products (inner max|A| max|B|
    when one operand is real), which the result carries; matrix products
    whose bound stays below 2**53 run exactly on float64, where they have
    BLAS."""
    if a.den is None or b.den is None:
        return Stack(op(float_stack(a), float_stack(b)))
    big = (1 if a.im is None or b.im is None else 2) * inner * max(a.bound, 1) * max(b.bound, 1)
    fast = op in (np.matmul, np.dot) and big < 2**53
    re, im = _complex_product(op, a, b, np.float64 if fast else kernel_dtype(big))
    if fast:
        re, im = (None if x is None else x.astype(np.int64) for x in (re, im))
    return Stack(re, im, a.den * b.den, big)


def _common(stacks) -> list[Stack]:
    """Exact stacks over their least common denominator, each with its
    numerators and bound scaled by lcm / den (:meth:`Stack.apply`).  A zero
    stack is not scaled, so no scale past int64 meets an int64 array."""
    den = lcm(*(x.den for x in stacks))
    scaled = lambda x, k: replace(x.apply(lambda y: y * k, x.bound * k) if x.bound else x, den=den)
    return [x if x.den == den else scaled(x, den // x.den) for x in stacks]


def stack_concat(stacks, axis=0) -> Stack:
    """Stacks joined along ``axis``: over the least common denominator when
    every nonempty one is exact, else as floats."""
    stacks = [x for x in stacks if x.re.shape[axis]] or list(stacks)[:1]
    if any(x.den is None for x in stacks):
        return Stack(np.concatenate([float_stack(x) for x in stacks], axis=axis))
    parts = _common(stacks)
    ims = None if all(x.im is None for x in parts) else [np.zeros_like(x.re) if x.im is None else x.im for x in parts]
    re = np.concatenate([x.re for x in parts], axis=axis)
    return Stack(re, ims and np.concatenate(ims, axis=axis), parts[0].den, max(x.bound for x in parts))


def stack_difference(a: Stack, b: Stack) -> Stack:
    """A - B for two stacks whose leading axes broadcast: over their least
    common denominator, with the bound max|A| + max|B| of the scaled
    numerators, on the dtype :func:`kernel_dtype` picks for it, when both
    are exact; else of the float values.  ``Matrix`` ``-`` and ``+`` are
    this kernel."""
    if a.den is None or b.den is None:
        return Stack(float_stack(a) - float_stack(b))
    a, b = _common([a, b])
    dtype = kernel_dtype(a.bound + b.bound)
    (ar, ai), (br, bi) = ((None if x is None else x.astype(dtype, copy=False) for x in (s.re, s.im)) for s in (a, b))
    return Stack(ar - br, ai if bi is None else -bi if ai is None else ai - bi, a.den, a.bound + b.bound)


DEFAULT_TOL = 1e-9


def products_agree(a: Stack, b: Stack, t: Stack, tol: float | np.ndarray):
    """Whether A_k B_k equals T_k, and the deviation as
    :meth:`Matrix.max_abs_diff` reads it, as two arrays over the leading
    axes k (which broadcast, as does an array ``tol``).  With one float
    stack, all are read as float and agree within ``tol`` per entry.
    Exact stacks agree exactly, whatever ``tol`` is: they form A_k B_k by
    :func:`stack_product`, put it and T_k over their least common
    denominator and compare numerators; only a failing index forms
    A_k B_k - T_k (:func:`stack_difference`)."""
    if None in (a.den, b.den, t.den):
        fa, fb, ft = (float_stack(x) for x in (a, b, t))
        dev = np.abs(np.matmul(fa, fb) - ft).max(axis=(-2, -1))
        return dev <= tol, dev
    ab, t = _common([stack_product(np.matmul, a, b, a.re.shape[-1]), t])
    ok = np.equal(ab.re, t.re).all(axis=(-2, -1))
    if ab.im is not None or t.im is not None:
        ok = ok & np.equal(*(0 if x is None else x for x in (ab.im, t.im))).all(axis=(-2, -1))
    dev = np.zeros(ok.shape)
    if not ok.all():
        failing = [x.apply(lambda y: np.broadcast_to(y, ok.shape + y.shape[-2:])[~ok]) for x in (ab, t)]
        dev[~ok] = np.abs(float_stack(stack_difference(*failing))).max(axis=(-2, -1))
    return ok, dev


# the largest number of entries of one row block of a product_table
_BLOCK_ENTRIES = 2**20


def product_table(family: Stack, targets, tol: float):
    """:func:`products_agree` for F_i F_j = F_t, t = targets[i, j] (-1 for
    zero), over every pair of a family stack, as two (count, count) arrays;
    row blocks of at most ``_BLOCK_ENTRIES`` entries broadcast against it."""
    count, targets = len(family.re), np.asarray(targets)
    # target -1 picks a zero matrix
    parts = [None if x is None else np.concatenate([x, np.zeros_like(x[:1])]) for x in (family.re, family.im)]
    ok, dev = np.empty((count, count), dtype=bool), np.empty((count, count))
    step = max(1, _BLOCK_ENTRIES // (count * family.re[0].size))
    for lo in range(0, count, step):
        rows = slice(lo, min(lo + step, count))
        picks = ((rows, None), (None, slice(count)), targets[rows])
        a, b, t = (Stack(*(None if x is None else x[idx] for x in parts), family.den, family.bound) for idx in picks)
        ok[rows], dev[rows] = products_agree(a, b, t, tol)
    return ok, dev


def _pivots(head, big):
    """Per row of ``head``, flattened nonzero matrices (numerator parts when
    exact, one complex array when float), the column of its elimination
    pivot: the first nonzero entry of least modulus when exact, compared
    as re^2 + im^2 in integers, and of largest modulus when float.  ``big``
    bounds the exact numerators, and is None when float."""
    if big is None:
        return np.argmax(np.abs(head[0]), axis=1)
    wide = big >= 2**30  # squares past int64 go on Python integers
    mags = sum(x * x for x in (y.astype(object) if wide else y for y in head))
    return np.argmin(np.where(mags != 0, mags, mags.max() + 1), axis=1)


def eliminate(family: Stack, rows=None, zero_below=0.0, coordinates=True):
    """Gaussian elimination of a batch of families of matrices, a stack of
    shape (batch, count, ...), every family in its own order and each
    matrix read as one row, of its live columns only: the entries nonzero
    in some row of some family.  A row is reduced against one pivot per kept
    row before it and kept when its remainder is nonzero and it is among
    the first ``rows``; a float remainder is also zero when no entry
    exceeds ``zero_below`` (broadcast against (batch, count)).  The pivot is
    the first nonzero entry of least modulus when exact, of largest when
    float.  Exact rows are fraction-free (Bareiss: p R - c P over the
    previous pivot, an exact division), on int64 while :func:`kernel_dtype`
    allows it, with the coordinates as augmented identity columns; each
    step reads its rows' bound once.  Returns (batch, count) masks ``kept``
    and ``spanned`` (in the span of the kept rows before it) and ``coords``
    (None if not ``coordinates``), a stack whose entry (b, k, l) is matrix
    k's coordinate over kept matrix l."""
    re, exact = family.re, family.den is not None
    (batch, count), aug = re.shape[:2], re.shape[1] if coordinates else 0
    dtype = kernel_dtype(family.bound) if exact else complex
    unit = np.broadcast_to(np.eye(count, aug, dtype=dtype), (batch, count, aug))
    # a column zero in every row stays zero under row operations and holds no pivot
    flat = [x.reshape(batch, count, -1) for x in (re, family.im) if x is not None]
    live = np.flatnonzero(np.any([(x != 0).any(axis=(0, 1)) for x in flat], axis=0))
    parts = [np.concatenate([x[:, :, live].astype(dtype, copy=False), unit if x is flat[0] else 0 * unit], axis=2)
             for x in flat]
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
            j = _pivots([top[:, :width]], None)
            parts[0][fam, k + 1:] = low - low[pick, :, j][..., None] * (top * (1 / top[pick, j])[:, None])[:, None]
            continue
        # Bareiss: p R - c P is divisible by the family's previous pivot q
        top, low, q = [x[fam, k] for x in parts], [x[fam, k + 1:] for x in parts], [x[fam] for x in prev]
        big = _numerator_max(*top, *low, *q)
        if dtype != object and kernel_dtype(2 * big**2 if len(parts) == 1 else 8 * big**3) is object:
            parts, prev, dtype = [x.astype(object) for x in parts], [x.astype(object) for x in prev], object
            top, low, q = ([x.astype(object) for x in y] for y in (top, low, q))
        j = _pivots([x[:, :width] for x in top], big)
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
    return kept, spanned, (Stack.read(coords[0], coords[1] if len(coords) == 2 else None, den) if exact
                           else Stack(coords[0]))


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in decreasing order of a (count, rows, cols) array of
    matrices, from one stacked SVD: row i holds the values of the i-th
    matrix, each equal to what the matrix alone gives."""
    if m.ndim != 3 or 0 in m.shape[1:]:
        raise DimensionError(f"expected a stack of nonempty matrices, got shape {m.shape}")
    return np.linalg.svd(m, compute_uv=False)


def op_norm(m: Matrix) -> float:
    """Operator norm (largest singular value)."""
    return float(singular_values(float_stack(m._s)[None])[0, 0])


def bound_holds(value: float | np.ndarray, bound: float | np.ndarray, dim: int, tol: float) -> bool | np.ndarray:
    """value <= bound + budget + tol, for a value and a bound read off norms
    of float matrices of size at most dim x dim, or elementwise for arrays
    of them, with the same float operations.  The budget covers rounding:
    by Weyl's bound and a backward-stable SVD, such a norm is off by at most
    2 dim eps of itself (the value, and the norms in the bound); the value's
    entries and the bound are each rounded once; each of these 4 dim + 2 may
    lose the smallest subnormal."""
    with np.errstate(over="ignore"):  # a budget past float range reads inf, as with Python floats
        budget = (4 * dim + 2) * (sys.float_info.epsilon * (value + bound) + ulp(0.0))
        return value <= bound + budget + tol
