"""Reference implementations kept as test oracles: Gaussian elimination one
``Matrix`` at a time with its pivot rule, a matrix's content, and the
tensor-element algebra term by term on (Matrix, Matrix) pairs, with the
reduced form and norm bounds read off them.  They are slow and simple;
the package computes the same things on stacked arrays."""
from __future__ import annotations

import math
from fractions import Fraction

from opalg.matrices import Matrix, op_norm


def eliminate(mats, negligible=None, rows=None, coordinates=True):
    """Gaussian elimination on same-shape matrices, in order.

    Each matrix is reduced against one pivot row per kept matrix before
    it, and is kept when its remainder r is nonzero and it is among the
    first ``rows`` (default: all).  A float r also counts as zero when
    ``negligible(k, r)`` holds for the k-th matrix.  The pivot is the
    nonzero entry of least modulus when r is exact and of largest modulus
    when it is float, the first in row order among equal ones.  Returns
    ``(kept, coords)``: the kept indices, and per matrix None when it is
    outside the span of the kept matrices before it, else its coordinates
    over them, a 1 x len(mats) matrix whose entry (0, b) multiplies
    ``mats[kept[b]]``.  With ``coordinates=False`` coords is None.
    """
    mats = list(mats)
    n = len(mats)
    kept, coords, pivots = [], [], []  # pivots: (pivot index, E, coordinates of E over the kept matrices)
    for k, m in enumerate(mats):
        r, x = m, Matrix.zeros(1, n, backend=m.backend) if coordinates else None
        for ij, e, e_coords in pivots:
            c = r.entry(*ij)
            if any(c) if r.is_exact else c != 0:
                r = r - e * c
                if coordinates:
                    x = x + e_coords * c
        if r.is_zero() or not r.is_exact and negligible is not None and negligible(k, r):
            coords.append(x)
            continue
        coords.append(None)
        if rows is None or k < rows:
            ij = pivot(r)
            p = r.entry(*ij)
            if coordinates:
                unit = Matrix.exact([[int(j == len(kept)) for j in range(n)]])
                x = (unit - x) / p
            pivots.append((ij, r / p, x))
            kept.append(k)
    return kept, coords if coordinates else None


def pivot(m):
    """Index (i, j) of the nonzero entry of least modulus (exact m) or of
    largest modulus (float m), the first in row order among equal ones;
    None for a zero matrix."""
    mags = {}
    for i in range(m.rows):
        for j in range(m.cols):
            if m.is_exact:
                re, im = m.entry(i, j)
                mag = re * re + im * im
            else:
                mag = abs(m.entry(i, j))
            if mag:
                mags[(i, j)] = mag
    if not mags:
        return None
    best = (min if m.is_exact else max)(mags.values())
    return next(ij for ij, mag in mags.items() if mag == best)


def content(m):
    """The gcd g of all real and imaginary parts of an exact m, a Fraction,
    so m / g has coprime integer entries (0 for the zero matrix); 1 for a
    float m."""
    if not m.is_exact:
        return 1
    return Fraction(math.gcd(*m._re.flat, *(() if m._im is None else m._im.flat)), m._den)


class PairTensor:
    """Finite formal sum of (Matrix, Matrix) pairs, each operation made
    term by term."""

    def __init__(self, terms, dim):
        self.terms, self.dim = tuple(terms), dim

    def left(self, a):
        return PairTensor([(a @ u, v) for u, v in self.terms], self.dim)

    def right(self, a):
        return PairTensor([(u, v @ a) for u, v in self.terms], self.dim)

    def scale(self, scalar):
        return PairTensor([(u * scalar, v) for u, v in self.terms], self.dim)

    def __add__(self, other):
        return PairTensor(self.terms + other.terms, self.dim)

    def __neg__(self):
        return self.scale(-1)

    def pi(self):
        acc = Matrix.zeros(self.dim)
        for u, v in self.terms:
            acc = acc + u @ v
        return acc

    def flatten(self):
        acc = Matrix.zeros(self.dim * self.dim)
        for u, v in self.terms:
            acc = acc + u.kron(v)
        return acc


def commutator(a, t):
    """a . t - t . a, term by term: (a u, v) for every term, then (u, -(v a))."""
    return t.left(a) + PairTensor([(u, -(v @ a)) for u, v in t.terms], t.dim)


def reduce(terms):
    """The reduced form over linearly independent left legs, as pairs: zero
    right legs dropped (exact), each left leg divided by its content, the
    right legs of dependent terms folded onto the kept ones by their
    coordinates, and negligible kept pairs dropped."""
    terms = list(terms)
    exact = all(u.is_exact and v.is_exact for u, v in terms)
    if exact:
        terms = [(u, v) for u, v in terms if not v.is_zero()]
    else:
        terms = [(u.to_float(), v.to_float()) for u, v in terms]
        tiny = 1e-12 * max([1.0] + [u.max_abs() * v.max_abs() for u, v in terms])

    def negligible(p, q):
        return (p.is_zero() or q.is_zero()) if exact else p.max_abs() * q.max_abs() <= tiny

    for i, (u, v) in enumerate(terms):
        g = content(u)
        if g not in (0, 1):
            terms[i] = (u / g, v * g)
    kept, coords = eliminate([u for u, _ in terms], lambda k, r: negligible(r, terms[k][1]))
    pairs = [list(terms[k]) for k in kept]
    for (_, v), x in zip(terms, coords):
        if x is None:
            continue
        for b, pair in enumerate(pairs):
            k = x.entry(0, b)
            if any(k) if exact else k != 0:
                pair[1] = pair[1] + v * k
    return [(b, v) for b, v in pairs if not negligible(b, v)]


def leg_norm(m):
    """(x, k) with ||m|| = x 2**k, reading a leg far from 1 as 2**-k m."""
    k = m.exponent()
    if abs(k) <= 256:
        return op_norm(m), 0
    return op_norm(m * (Fraction(1, 2**k) if k > 0 else 2**-k)), k


def upper(reduced):
    """sum ||B|| ||V|| once the right legs are reduced as well."""
    total = 0.0
    for v, b in reduce((v, b) for b, v in reduced):
        (x, i), (y, j) = leg_norm(b), leg_norm(v)
        total += math.ldexp(x * y, i + j)
    return total


def bounds(terms):
    """(lower, upper) of the projective norm off the reduced form."""
    reduced = reduce(terms)
    if not reduced:
        return 0.0, 0.0
    return op_norm(PairTensor(reduced, reduced[0][0].rows).flatten()), upper(reduced)
