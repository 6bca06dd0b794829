"""Semilattice chains of idempotents on a truncated sequence space.

A chain is built from an ascending ladder of subspace dimensions and a
coupling block per even index.  Odd entries are orthogonal projections,
even entries add an off-diagonal coupling, and every pair multiplies by
the min rule: the product of the m-th and n-th idempotents is the
min(m, n)-th one, exactly.  A :class:`Chain` is filled into stacks from its
spec (``family`` and ``generators``), and every stage reads them.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matrices import (
    DEFAULT_TOL,
    CertificationError,
    Matrix,
    Stack,
    _common,
    bound_holds,
    float_stack,
    kernel_dtype,
    product_table,
    products_agree,
    singular_values,
    stack_difference,
)

__all__ = [
    "TruncationError",
    "ChainSpec",
    "Chain",
    "build_chain",
    "verify_semilattice",
    "SemilatticeReport",
    "norm_profile",
    "NormEntry",
]


class TruncationError(ValueError):
    """The supplied dimension ladder is too short for the requested chain."""


def required_ladder_length(m_max: int) -> int:
    """Smallest odd index >= m_max + 1; the ladder must reach this far."""
    return m_max + 1 + m_max % 2


def _as_coupling(raw, rows, cols, index):
    """Normalize a coupling to a rows x cols Matrix block."""
    if isinstance(raw, Matrix):
        block = raw
    elif isinstance(raw, (list, tuple)) and raw and isinstance(raw[0], (list, tuple)):
        block = Matrix.exact(raw)
    elif isinstance(raw, numbers.Real):
        # scalar times the rectangular identity
        block = Matrix.from_stack(Stack(np.eye(rows, cols, dtype=np.int64), None, 1, 1)) * raw
    else:
        raise TypeError(f"coupling b_{2 * index} must be a scalar or a matrix, got {type(raw).__name__}")
    if block.shape != (rows, cols):
        raise ValueError(f"coupling b_{2 * index} must map the gap above H_{2 * index} into the gap below it: "
                         f"expected shape {(rows, cols)}, got {block.shape}")
    return block


@dataclass(frozen=True)
class ChainSpec:
    """Ladder of subspace dimensions plus one coupling per even index.

    ``dims[k-1]`` is the dimension of the k-th subspace; couplings are
    stored as rectangular blocks (scalars are promoted to scalar times a
    rectangular identity); ``coupling_norms`` holds their operator norms.
    """

    m_max: int
    dims: tuple[int, ...]
    couplings: tuple[Matrix, ...]
    coupling_norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m_max < 1:
            raise ValueError("m_max must be at least 1")
        dims = tuple(int(d) for d in self.dims)
        if not dims or dims[0] < 1 or any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("dims must be strictly increasing positive integers")
        need = required_ladder_length(self.m_max)
        if len(dims) < need:
            raise TruncationError(
                f"building e_1..e_{self.m_max} requires the ladder up to H_{need} "
                f"(ambient dimension dims[{need - 1}]); got only {len(dims)} entries"
            )
        n_couplings = self.m_max // 2
        couplings = tuple(
            _as_coupling(raw, dims[2 * k - 1] - dims[2 * k - 2], dims[2 * k] - dims[2 * k - 1], k)
            for k, raw in enumerate(self.couplings, start=1)
        )
        if len(couplings) != n_couplings:
            raise ValueError(f"need exactly {n_couplings} couplings for m_max={self.m_max}, got {len(couplings)}")
        # one SVD per block shape: a stacked SVD gives each block the values it has alone
        shapes, norms = [b.shape for b in couplings], np.zeros(len(couplings))
        for shape in set(shapes):
            at = [k for k, x in enumerate(shapes) if x == shape]
            norms[at] = singular_values(np.array([couplings[k].to_float() for k in at]))[:, 0]
        # equal norms of different block shapes may round apart, by their rounding budget at most
        if not bound_holds(norms[:-1], norms[1:], max((max(x) for x in shapes), default=1), 0.0).all():
            raise ValueError("coupling norms must be nondecreasing")
        norms = tuple(norms.tolist())
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "coupling_norms", norms)

    @classmethod
    def default(cls, m_max: int, couplings=None, dims=None) -> "ChainSpec":
        """Unit dimension gaps; couplings default to b_{2k} = k."""
        need = required_ladder_length(m_max)
        if dims is None:
            dims = tuple(range(1, need + 1))
        if couplings is None:
            couplings = tuple(range(1, m_max // 2 + 1))
        return cls(m_max=m_max, dims=tuple(dims), couplings=tuple(couplings))

    @property
    def truncation_dim(self) -> int:
        return self.dims[required_ladder_length(self.m_max) - 1]


@dataclass(frozen=True, eq=False)
class Chain:
    """A realized chain: the spec and e_1..e_m as one (m, d, d) stack,
    ``family``, with ``generators``, g_1 = e_1 and g_j = e_j - e_{j-1}, as
    one difference of ``family`` and ``family`` shifted down by one; the
    idempotents are ``Matrix`` views of ``family``, made when first read."""

    spec: ChainSpec
    family: Stack = field(repr=False)
    generators: Stack = field(init=False, repr=False)

    def __post_init__(self):
        shape = (self.m_max, self.truncation_dim, self.truncation_dim)
        if self.family.re.shape != shape:
            raise ValueError(f"a chain's family must have shape {shape}, got {self.family.re.shape}")
        below = self.family.apply(lambda x: np.concatenate([np.zeros_like(x[:1]), x[:-1]]))
        object.__setattr__(self, "generators", stack_difference(self.family, below))

    @cached_property
    def idempotents(self) -> tuple[Matrix, ...]:
        return tuple(Matrix.from_stack(self.family.take(k)) for k in range(self.m_max))

    @property
    def m_max(self) -> int:
        return self.spec.m_max

    @property
    def truncation_dim(self) -> int:
        return self.spec.truncation_dim

    def e(self, n: int) -> Matrix:
        """The n-th idempotent, 1-based."""
        if not 1 <= n <= self.m_max:
            raise IndexError(f"chain index {n} out of range 1..{self.m_max}")
        return self.idempotents[n - 1]


def _fill_family(spec: ChainSpec) -> Stack:
    """e_1..e_m as one (m, d, d) stack filled from the spec: e_n is the
    projection onto H_n, plus for even n the coupling b_n in the rows of the
    gap below H_n and the columns of the gap above it; over the couplings'
    least common denominator, on the dtype their bound allows."""
    m, d, dims = spec.m_max, spec.truncation_dim, spec.dims
    one, *blocks = _common([Stack(np.ones((1, 1), dtype=np.int64), None, 1, 1)] + [b._s for b in spec.couplings])
    bound = max(x.bound for x in [one] + blocks)
    re = np.zeros((m, d, d), dtype=kernel_dtype(bound))
    im = None if all(b.im is None for b in blocks) else np.zeros_like(re)
    re.reshape(m, -1)[:, ::d + 1] = (np.arange(d) < np.array(dims[:m])[:, None]) * one.re[0]  # the diagonals
    for k, b in enumerate(blocks, start=1):
        at = (2 * k - 1, slice(dims[2 * k - 2], dims[2 * k - 1]), slice(dims[2 * k - 1], dims[2 * k]))
        re[at] = b.re
        if b.im is not None:
            im[at] = b.im
    return Stack(re, im, one.den, bound)


def build_chain(spec: ChainSpec) -> Chain:
    """Realize the chain on its truncation and check idempotency."""
    chain = Chain(spec, _fill_family(spec))
    ok = products_agree(chain.family, chain.family, chain.family)[0].tolist()
    if not all(ok):
        raise CertificationError(f"constructed e_{ok.index(False) + 1} failed its idempotency check")
    return chain


@dataclass(frozen=True)
class SemilatticeReport:
    pairs_checked: int
    max_abs_deviation: float
    passed: bool
    idempotent: bool


def verify_semilattice(chain: Chain) -> SemilatticeReport:
    """Check e_m @ e_n == e_min(m, n) exactly over every ordered pair, as
    one product table; ``idempotent`` reads its diagonal."""
    m = chain.m_max
    ok, dev = product_table(chain.family, [[min(i, j) for j in range(m)] for i in range(m)])
    return SemilatticeReport(pairs_checked=m * m, max_abs_deviation=float(dev.max()), passed=bool(ok.all()),
                             idempotent=bool(ok.diagonal().all()))


@dataclass(frozen=True)
class NormEntry:
    index: int
    norm: float
    lower: float
    predicted: float
    ok: bool


def norm_profile(chain: Chain, tol: float = DEFAULT_TOL) -> tuple[NormEntry, ...]:
    """Operator norm of each idempotent, all from one stacked SVD.

    Odd entries must have norm 1 (within tol); even entries are bounded
    below by the coupling norm (:attr:`ChainSpec.coupling_norms`) up to
    :func:`opalg.matrices.bound_holds` and, in block form, equal
    sqrt(1 + |b|^2), reported as ``predicted``.
    """
    norms = singular_values(float_stack(chain.family))[:, 0]
    even = np.arange(1, len(norms) + 1) % 2 == 0
    lower = np.ones(len(norms))
    lower[even] = chain.spec.coupling_norms
    with np.errstate(over="ignore"):  # a coupling norm past 2**512 predicts inf
        predicted = np.where(even, np.sqrt(1.0 + lower * lower), 1.0)
    ok = np.where(even, bound_holds(lower, norms, chain.truncation_dim, tol), np.abs(norms - 1.0) <= tol)
    rows = zip(norms.tolist(), lower.tolist(), predicted.tolist(), ok.tolist())
    return tuple(NormEntry(n, *row) for n, row in enumerate(rows, start=1))
