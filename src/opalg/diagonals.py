"""Tensor elements over a matrix algebra and their diagonal calculus.

A tensor element is a finite formal sum of matrix pairs u (x) v.  The
module builds the telescoping diagonals of a chain, their unitized
companions, certifies the multiplier-bounded approximate-diagonal
conditions, and realizes the expectation x -> sum u_i x v_i induced by a
finite exact diagonal.

Every zero test, value comparison and norm bound on tensor elements goes
through one reduced form over linearly independent left legs; the
Kronecker flattening is formed only for the lower bound of a nonzero
element.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .chains import Chain
from .matrices import (
    DEFAULT_TOL,
    DimensionError,
    Matrix,
    agree,
    eliminate,
    op_norm,
)

__all__ = [
    "TensorElem",
    "build_delta",
    "pi_map",
    "bimodule_commutator",
    "tensor_norm_bounds",
    "tensor_norm_upper",
    "unitize_diagonal",
    "FiniteDiagonal",
    "expectation_from_diagonal",
    "certify_expectation",
    "ExpectationReport",
    "certify_mbad",
    "MbadElementRecord",
    "MbadReport",
    "full_matrix_diagonal",
    "skew_idempotent_diagonal",
    "expectation_norm_demo",
    "ExpectationDemo",
]


@dataclass(frozen=True)
class TensorElem:
    """Finite formal sum of pairs (u, v), all square of one dimension."""

    terms: tuple[tuple[Matrix, Matrix], ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((u, v) for u, v in self.terms))
        if self.dim < 1:
            raise DimensionError("tensor dimension must be positive")
        for u, v in self.terms:
            if u.shape != (self.dim, self.dim) or v.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"all legs must be {self.dim}x{self.dim}; got {u.shape} and {v.shape}"
                )

    @classmethod
    def of(cls, pairs: Sequence[tuple[Matrix, Matrix]], dim: int | None = None) -> "TensorElem":
        pairs = tuple(pairs)
        if dim is None:
            if not pairs:
                raise DimensionError("cannot infer dimension of an empty tensor element")
            dim = pairs[0][0].rows
        return cls(terms=pairs, dim=dim)

    @classmethod
    def zero(cls, dim: int) -> "TensorElem":
        return cls(terms=(), dim=dim)

    @property
    def backend(self) -> str:
        return "exact" if all(u.is_exact and v.is_exact for u, v in self.terms) else "float"

    def left(self, a: Matrix) -> "TensorElem":
        """Left module action: a . (u (x) v) = (a u) (x) v."""
        self._check_actor(a)
        return TensorElem(terms=tuple((a @ u, v) for u, v in self.terms), dim=self.dim)

    def right(self, a: Matrix) -> "TensorElem":
        """Right module action: (u (x) v) . a = u (x) (v a)."""
        self._check_actor(a)
        return TensorElem(terms=tuple((u, v @ a) for u, v in self.terms), dim=self.dim)

    def _check_actor(self, a: Matrix):
        if a.shape != (self.dim, self.dim):
            raise DimensionError(f"actor must be {self.dim}x{self.dim}, got {a.shape}")

    def scale(self, scalar) -> "TensorElem":
        return TensorElem(terms=tuple((u * scalar, v) for u, v in self.terms), dim=self.dim)

    def __add__(self, other: "TensorElem") -> "TensorElem":
        if self.dim != other.dim:
            raise DimensionError("tensor dimensions differ")
        return TensorElem(terms=self.terms + other.terms, dim=self.dim)

    def __neg__(self) -> "TensorElem":
        return self.scale(-1)

    def __sub__(self, other: "TensorElem") -> "TensorElem":
        return self + (-other)

    def same_element(self, other: "TensorElem") -> bool:
        """Value equality: the difference reduces to the empty form
        (exactly on exact backends, up to roundoff on float ones)."""
        return self.dim == other.dim and not _reduce((self - other).terms)

    def pi(self) -> Matrix:
        """Linearized multiplication: sum of u @ v."""
        if not self.terms:
            return Matrix.zeros(self.dim, backend="exact")
        acc = self.terms[0][0] @ self.terms[0][1]
        for u, v in self.terms[1:]:
            acc = acc + u @ v
        return acc

    def flatten(self) -> Matrix:
        """Faithful matrix picture: sum of Kronecker products of the legs."""
        if not self.terms:
            return Matrix.zeros(self.dim * self.dim, backend="exact")
        acc = self.terms[0][0].kron(self.terms[0][1])
        for u, v in self.terms[1:]:
            acc = acc + u.kron(v)
        return acc


def pi_map(t: TensorElem) -> Matrix:
    """sum u_i @ v_i for the element sum u_i (x) v_i."""
    return t.pi()


def bimodule_commutator(a: Matrix, t: TensorElem) -> TensorElem:
    """a . t - t . a, as a tensor element with twice the terms of t."""
    return t.left(a) + TensorElem(terms=tuple((u, -(v @ a)) for u, v in t.terms), dim=t.dim)


def build_delta(chain: Chain, n: int) -> TensorElem:
    """Telescoping diagonal over the chain:
    e_1 (x) e_1 + sum_{j=2..n} (e_j - e_{j-1}) (x) (e_j - e_{j-1})."""
    if not 1 <= n <= chain.m_max:
        raise ValueError(f"diagonal index {n} out of range 1..{chain.m_max}")
    e = chain.idempotents
    terms = [(e[0], e[0])]
    for j in range(2, n + 1):
        diff = e[j - 1] - e[j - 2]
        terms.append((diff, diff))
    return TensorElem.of(terms, dim=chain.truncation_dim)


def _reduce(terms) -> list[tuple[Matrix, Matrix]]:
    """Rewrite sum u_i (x) v_i over linearly independent left legs.

    The element is the matrix sum vec(u_i) vec(v_i)^T (Van Loan-Pitsianis),
    so Gaussian elimination (:func:`eliminate`) on the left legs, each
    divided by its content, keeps its value.  An independent leg is kept as
    it is; a dependent one is sum_b k_b B_b, and each kept B_b collects
    k_b v, so no independent leg is split, which would inflate
    sum ||B|| ||V||.  Kept legs whose right leg vanished are dropped: the
    element is zero exactly when the result is empty.  A float term
    p (x) q counts as zero when max|p| max|q| is below
    1e-12 max_i(max|u_i| max|v_i|, 1), an exact one when p or q is zero.
    """
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
        g = u.content()
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


# exact legs whose entries lie within 2**(+-_SAFE_EXPONENT) of 1 convert to
# float without overflow or underflow, and so does the product of two norms
_SAFE_EXPONENT = 256


def _leg_norm(m: Matrix) -> tuple[float, int]:
    """(x, k) with ||m|| = x 2**k.  A leg with entries far from 1 is read as
    op_norm(2**-k m), k = ``m.exponent()``, whose float conversion can
    neither overflow nor underflow."""
    k = m.exponent()
    if abs(k) <= _SAFE_EXPONENT:
        return op_norm(m), 0
    return op_norm(m * (Fraction(1, 2**k) if k > 0 else 2**-k)), k


def _upper(reduced) -> float:
    """sum ||B|| ||V|| once dependent right legs are merged as well; each
    product of leg norms is formed from their scaled readouts."""
    total = 0.0
    for v, b in _reduce((v, b) for b, v in reduced):
        (x, i), (y, j) = _leg_norm(b), _leg_norm(v)
        total += math.ldexp(x * y, i + j)
    return total


def tensor_norm_upper(t: TensorElem) -> float:
    """Projective-norm upper bound: sum ||B|| ||V|| over the reduced form,
    reduced once more on the right legs."""
    return _upper(_reduce(t.terms))


def _bounds(terms, dim: int, tol: float) -> tuple[float, float, bool, TensorElem]:
    """(lower, upper, zero, reduced) for sum u_i (x) v_i off one reduced
    form: the bracket of :func:`tensor_norm_bounds`, whether the element is
    zero (its reduced form is empty when every leg is exact, and its upper
    bound is at most tol otherwise), and the reduced form itself."""
    reduced = TensorElem(terms=tuple(_reduce(terms)), dim=dim)
    if not reduced.terms:
        return 0.0, 0.0, True, reduced
    upper = _upper(reduced.terms)
    lower = op_norm(reduced.flatten())
    return lower, upper, not reduced.terms[0][0].is_exact and upper <= tol, reduced


def tensor_norm_bounds(t: TensorElem) -> tuple[float, float]:
    """Certified (lower, upper) bracket for the projective tensor norm.

    The lower bound is the operator norm of the reduced form's flattening
    (contractive for the projective norm), the upper one that of
    ``tensor_norm_upper``; a zero element gets (0, 0) without flattening.
    """
    return _bounds(t.terms, t.dim, 0.0)[:2]


def unitize_diagonal(delta: TensorElem, u: Matrix, one: Matrix) -> tuple[TensorElem, Matrix]:
    """(M, pi(M)) for M = 2*delta - u.delta + (1-u) (x) (1-u).  When u is
    the image of delta under the multiplication map, pi(M) is the
    identity, exactly: pi(M) - 1 = (2 - u)(pi(delta) - u).  The image is
    returned for the caller to check, not checked here."""
    rest = one - u
    unitized = delta.scale(2) + (-delta.left(u)) + TensorElem.of([(rest, rest)], dim=delta.dim)
    return unitized, unitized.pi()


@dataclass(frozen=True)
class FiniteDiagonal:
    """A tensor element acting as an exact diagonal for a finite algebra:
    its multiplication image is a unit for the span of ``algebra_basis``
    and it commutes with every basis element."""

    diag: TensorElem
    algebra_basis: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "algebra_basis", tuple(self.algebra_basis))
        self.validate()

    def validate(self, tol: float = DEFAULT_TOL):
        unit = self.diag.pi()
        for k, a in enumerate(self.algebra_basis):
            if not (agree(unit @ a, a, tol) and agree(a @ unit, a, tol)):
                raise ValueError(f"pi(diag) does not act as identity on basis element {k}")
            if not _bounds(bimodule_commutator(a, self.diag).terms, self.diag.dim, tol)[2]:
                raise ValueError(f"diag does not commute with basis element {k}")


def expectation_from_diagonal(d: FiniteDiagonal, x: Matrix) -> Matrix:
    """E(x) = sum u_i @ x @ v_i over the diagonal's terms."""
    dim = d.diag.dim
    if x.shape != (dim, dim):
        raise DimensionError(f"argument must be {dim}x{dim}, got {x.shape}")
    acc = Matrix.zeros(dim, backend="exact")
    for u, v in d.diag.terms:
        acc = acc + u @ x @ v
    return acc


@dataclass(frozen=True)
class ExpectationReport:
    commutes_with_algebra_dev: float
    fixes_commutant_dev: float
    bimodule_dev: float
    exact: bool
    passed: bool


def certify_expectation(
    d: FiniteDiagonal,
    xs: Sequence[Matrix],
    commutant_sample: Sequence[Matrix],
    tol: float = DEFAULT_TOL,
) -> ExpectationReport:
    """Check the three expectation properties on concrete samples:
    values land in the commutant, commutant elements are fixed, and
    E(u x v) = u E(x) v for commutant u, v."""
    xs = list(xs)
    comm = list(commutant_sample)
    all_exact = (
        d.diag.backend == "exact"
        and all(m.is_exact for m in xs)
        and all(m.is_exact for m in comm)
    )
    images = [expectation_from_diagonal(d, x) for x in xs]
    checks = (
        [(ex @ a, a @ ex) for ex in images for a in d.algebra_basis],
        [(expectation_from_diagonal(d, u), u) for u in comm],
        [
            (expectation_from_diagonal(d, u @ x @ v), u @ ex @ v)
            for u in comm for v in comm for x, ex in zip(xs, images)
        ],
    )
    devs = [max((p.max_abs_diff(q) for p, q in pairs), default=0.0) for pairs in checks]
    passed = all(agree(p, q, tol) for pairs in checks for p, q in pairs)
    return ExpectationReport(
        commutes_with_algebra_dev=devs[0],
        fixes_commutant_dev=devs[1],
        bimodule_dev=devs[2],
        exact=all_exact and passed,
        passed=passed,
    )


@dataclass(frozen=True)
class MbadElementRecord:
    label: str
    in_span: bool
    identity_coeff: complex
    top_index: int
    final_identity_gap: float
    identity_ok: bool
    commutator_upper: float
    commutator_lower: float
    commutator_ok: bool
    element_constant: float
    unitized_upper: float
    unitized_ok: bool


@dataclass(frozen=True)
class MbadReport:
    records: tuple[MbadElementRecord, ...]
    multiplier_constant: float
    projection_sup: float
    unitized_constant: float
    verdict: bool
    images: tuple[Matrix, ...]
    unitized: tuple[TensorElem, ...]
    unitized_images: tuple[Matrix, ...]


def _increments(deltas: Sequence[TensorElem]) -> list[TensorElem]:
    """Per diagonal, what it adds to the one before (the first to zero):
    its terms after the longest prefix it shares with the previous one,
    minus the previous one's terms after that prefix.  Legs are compared
    by :meth:`Matrix.equals`, so a telescoping sequence built term by term
    gives one term per increment, and any sequence gives increments that
    sum to each diagonal."""
    out, prev = [], ()
    for d in deltas:
        k = 0
        while k < min(len(prev), len(d.terms)) and all(x.equals(y) for x, y in zip(prev[k], d.terms[k])):
            k += 1
        out.append(TensorElem(terms=d.terms[k:] + tuple((-u, v) for u, v in prev[k:]), dim=d.dim))
        prev = d.terms
    return out


def _commutator_bounds(a: Matrix, increments: Sequence[TensorElem], dim: int, tol: float) -> list[tuple]:
    """:func:`_bounds` of [a, D_n] for every n, where D_n is the sum of the
    first n increments: the reduced form of [a, D_{n-1}] is reduced
    together with the terms of [a, I_n], so each step makes the 2 products
    per term of I_n and no more."""
    out, comm = [], TensorElem.zero(dim)
    for inc in increments:
        out.append(_bounds(comm.terms + bimodule_commutator(a, inc).terms, dim, tol))
        comm = out[-1][3]
    return out


def certify_mbad(
    deltas: Sequence[TensorElem],
    chain: Chain,
    sample: Sequence[Matrix],
    tol: float = DEFAULT_TOL,
    labels: Sequence[str] | None = None,
) -> MbadReport:
    """Certify the approximate-diagonal conditions on a sample.

    ``deltas`` is read as the increasing diagonal sequence of the chain.
    Per element: the multiplication images eventually act as the
    identity (exactly, once the index passes the element's top chain
    index), commutators with every diagonal vanish, and the unitized
    diagonals obey the multiplier estimate
    (2 + K) C + 2 (1 + K)^2 over the adjoined-unit norm.
    Elements outside span(chain + identity), read off one elimination of
    e_1..e_m, 1 (exact for exact elements), are flagged, not fatal.  The
    report carries the multiplication images and the unitized diagonals
    with their images.

    Commutators are built from the increments of the sequence: with
    D_n = D_{n-1} + I_n, [a, D_n] = [a, D_{n-1}] + [a, I_n], so the
    reduced form of [a, D_n] is that of [a, D_{n-1}] reduced together
    with the terms of [a, I_n].  For the telescoping diagonals I_n is the
    one term f_n (x) f_n, and a sample costs 2 m products rather than
    m (m + 1).  The reduced form has the value of [a, D_n], but not its
    leg order, so a nonzero commutator's upper bound may differ in its
    last digits from that of the reduced raw commutator.
    """
    deltas = list(deltas)
    if not deltas:
        raise ValueError("no diagonals supplied")
    sample = list(sample)
    labels = list(labels) if labels is not None else [f"a{i}" for i in range(len(sample))]
    if len(labels) != len(sample):
        raise ValueError("labels and sample lengths differ")
    dim = chain.truncation_dim
    ident = Matrix.identity(dim, backend=chain.backend)
    pis = [d.pi() for d in deltas]
    rests = [ident - p for p in pis]
    k_const = max(op_norm(p) for p in pis)
    unitized, unitized_images = zip(*(unitize_diagonal(d, p, ident) for d, p in zip(deltas, pis)))
    increments = _increments(deltas)

    # e_1..e_m, 1 are eliminated once; a float remainder of a sample a
    # counts as zero below max(tol, 1e-12) max(1, max|a|)
    basis = list(chain.idempotents) + [ident]
    scales = [max(1.0, m.max_abs()) for m in basis + sample]
    kept, coords = eliminate(
        basis + sample, lambda k, r: r.max_abs() <= max(tol, 1e-12) * scales[k], rows=len(basis)
    )

    records, adjoined_norms = [], []
    c_const = 0.0
    for a, label, x, scale in zip(sample, labels, coords[len(basis):], scales[len(basis):]):
        in_span = x is not None
        # coordinates over e_1..e_m, 1 as exact (re, im) pairs or complex
        # numbers; an element outside the span has none
        coef = {k: x.entry(0, b) for b, k in enumerate(kept)} if in_span else {}
        corner = coef.pop(len(basis) - 1, (0, 0))
        top = max((k + 1 for k, c in coef.items()
                   if (any(c) if isinstance(c, tuple) else abs(c) > 1e-9 * scale)), default=0)
        has_id = any(corner) if isinstance(corner, tuple) else corner != 0
        id_coeff = complex(float(corner[0]), float(corner[1])) if isinstance(corner, tuple) else corner
        a_alg = a - ident * corner if has_id else a

        final_image = a @ pis[-1]
        final_gap = final_image.max_abs_diff(a)
        identity_ok = (
            not in_span or has_id or top > len(deltas)
            or agree(final_image, a, max(tol, 1e-12 * scale))
        )

        lowers, uppers, zeros, comms = zip(*_commutator_bounds(a, increments, dim, tol))
        comm_upper, comm_lower = max(uppers), max(lowers)
        commutator_ok = not in_span or all(zeros)

        alg_norm = op_norm(a_alg) if not a_alg.is_zero() else 0.0
        element_constant = comm_upper / alg_norm if alg_norm > 1e-12 else 0.0
        if in_span:
            c_const = max(c_const, element_constant)

        # for the unitized M = 2D - p.D + rest (x) rest, with p = pi(D),
        # rest = 1 - p and w = a_alg rest, the regrouped
        # R = 2[a,D] - p.[a,D] + w (x) rest - rest (x) w obeys
        # R - [a,M] = [a,p].D + rest (x) [a,p], where x.D = sum (x u_i) (x) v_i;
        # so R equals [a,M] whenever a p = p a, which is checked, and the
        # multiplier estimate is read off R, built on the reduced [a,D]
        rewrite_ok = all(agree(a @ p, p @ a, max(tol, 1e-9 * scale)) for p in pis)
        unit_uppers = []
        refined_ok = True
        for d_comm, up_d, p, rest in zip(comms, uppers, pis, rests):
            w = a_alg - a_alg @ p
            regrouped = d_comm.scale(2) + (-d_comm.left(p)) + TensorElem.of([(w, rest), (-rest, w)], dim=dim)
            up_u = tensor_norm_upper(regrouped)
            unit_uppers.append(up_u)
            shrink = op_norm(w) if not w.is_zero() else 0.0
            refined = (2.0 + k_const) * up_d + 2.0 * (1.0 + k_const) * shrink
            refined_ok = up_u <= refined + max(tol, 1e-9 * max(1.0, refined)) and refined_ok
        records.append(
            MbadElementRecord(
                label=label,
                in_span=in_span,
                identity_coeff=id_coeff,
                top_index=top,
                final_identity_gap=final_gap,
                identity_ok=identity_ok,
                commutator_upper=comm_upper,
                commutator_lower=comm_lower,
                commutator_ok=commutator_ok,
                element_constant=element_constant,
                unitized_upper=max(unit_uppers),
                # the global multiplier estimate is checked below, once C is known
                unitized_ok=(refined_ok and rewrite_ok) or not in_span,
            )
        )
        adjoined_norms.append(alg_norm + abs(id_coeff))

    unitized_constant = (2.0 + k_const) * c_const + 2.0 * (1.0 + k_const) ** 2
    records = [
        replace(r, unitized_ok=r.unitized_ok and (
            not r.in_span
            or r.unitized_upper <= unitized_constant * n + max(tol, 1e-9 * (1.0 + n))
        ))
        for r, n in zip(records, adjoined_norms)
    ]
    verdict = all(r.identity_ok and r.commutator_ok and r.unitized_ok for r in records)
    return MbadReport(
        records=tuple(records),
        multiplier_constant=c_const,
        projection_sup=k_const,
        unitized_constant=unitized_constant,
        verdict=verdict,
        images=tuple(pis),
        unitized=unitized,
        unitized_images=unitized_images,
    )


def full_matrix_diagonal(n: int) -> FiniteDiagonal:
    """The separating diagonal sum_j e_{j1} (x) e_{1j} of the full n x n
    matrix algebra; the induced expectation maps x to x_11 * identity."""
    units = {}
    for i in range(n):
        for j in range(n):
            grid = [[0] * n for _ in range(n)]
            grid[i][j] = 1
            units[(i, j)] = Matrix.exact(grid)
    terms = [(units[(j, 0)], units[(0, j)]) for j in range(n)]
    basis = tuple(units[(i, j)] for i in range(n) for j in range(n))
    return FiniteDiagonal(diag=TensorElem.of(terms, dim=n), algebra_basis=basis)


def skew_idempotent_diagonal(t) -> FiniteDiagonal:
    """Diagonal e (x) e + (1-e) (x) (1-e) for the skew idempotent
    e = [[1, t], [0, 0]] over the algebra spanned by the identity and e."""
    e = Matrix.exact([[1, t], [0, 0]])
    one = Matrix.identity(2)
    rest = one - e
    diag = TensorElem.of([(e, e), (rest, rest)])
    return FiniteDiagonal(diag=diag, algebra_basis=(one, e))


@dataclass(frozen=True)
class ExpectationDemo:
    skew: Matrix
    range_projection: Matrix
    expected: Matrix
    matches_exactly: bool
    skew_norm: float
    expectation_norm: float


def expectation_norm_demo(t) -> ExpectationDemo:
    """Apply the expectation of the skew-idempotent diagonal to the
    orthogonal projection onto the idempotent's range; the result is the
    idempotent itself, so the expectation's norm dominates its norm."""
    d = skew_idempotent_diagonal(t)
    e = d.algebra_basis[1]
    p = Matrix.diag([1, 0])
    ep = expectation_from_diagonal(d, p)
    return ExpectationDemo(
        skew=e,
        range_projection=p,
        expected=ep,
        matches_exactly=ep.equals(e),
        skew_norm=op_norm(e),
        expectation_norm=op_norm(ep),
    )
