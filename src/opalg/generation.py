"""Single-generator certification for families of orthogonal idempotents.

Given pairwise-orthogonal idempotents g_1, g_2, ... and strictly
decreasing positive rational weights, the weighted sum b = sum_j l_j g_j
generates every g_m back: powers of the rescaled residual generator
b_m = b - sum_{j<m} l_j g_j converge to g_m at a geometric rate with
ratio l_{m+1} / l_m.  A semilattice chain enters through its telescoping
differences, which are pairwise orthogonal and span the same algebra; the
chain stacks them once (:attr:`Chain.generators`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .chains import Chain
from .matrices import (
    DEFAULT_TOL,
    CertificationError,
    Matrix,
    Stack,
    bound_holds,
    eliminate,
    float_stack,
    product_table,
    singular_values,
    stack,
    stack_concat,
)

__all__ = [
    "WeightSeq",
    "GenerationRecord",
    "GenerationCertificate",
    "orthogonal_generators",
    "orthogonality_table",
    "certify_generation",
    "same_span",
]


@dataclass(frozen=True)
class WeightSeq:
    """Strictly decreasing, strictly positive rational weights."""

    lambdas: tuple[Fraction, ...]

    def __post_init__(self):
        lams = tuple(Fraction(x) for x in self.lambdas)
        if not lams:
            raise ValueError("weight sequence is empty")
        if any(x <= 0 for x in lams):
            raise ValueError("weights must be strictly positive")
        if any(b >= a for a, b in zip(lams, lams[1:])):
            raise ValueError("weights must be strictly decreasing")
        object.__setattr__(self, "lambdas", lams)

    def __len__(self):
        return len(self.lambdas)

    def __getitem__(self, i):
        return self.lambdas[i]

    @classmethod
    def norm_adaptive(cls, mats: Stack | Sequence[Matrix]) -> "WeightSeq":
        """l_j = 4^-j / (1 + N_j) with N_j a rational in sixteenths strictly
        above the largest norm among the first j idempotents, all from one
        stacked SVD of ``mats`` or of their stack.  Keeps sum l_j * norm(g_j)
        below sum 4^-j even when norms grow."""
        norms = singular_values(float_stack(mats if isinstance(mats, Stack) else stack(mats)))[:, 0]
        peaks = np.maximum.accumulate(np.array([Fraction(math.ceil(x * 16) + 1, 16) for x in norms], dtype=object))
        return cls(tuple(Fraction(1, 4**j) / (1 + peak) for j, peak in enumerate(peaks, start=1)))

    @property
    def numerators(self) -> np.ndarray:
        """The numerators L_j of the weights over their lcm (:meth:`Stack.of`),
        the only way :func:`certify_generation` reads the weights."""
        return Stack.of([(x, 0) for x in self.lambdas]).re

    def scaled(self, factor) -> "WeightSeq":
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return WeightSeq(tuple(x * factor for x in self.lambdas))


def orthogonal_generators(chain: Chain) -> tuple[Matrix, ...]:
    """Telescoping differences of the chain: g_1 = e_1, g_j = e_j - e_{j-1},
    as matrix views of the chain's stack :attr:`Chain.generators`.

    These are pairwise-orthogonal idempotents spanning the same algebra;
    :func:`orthogonality_table` measures that, and every consumer in this
    module checks it before use.
    """
    return tuple(Matrix.from_stack(chain.generators.take(j)) for j in range(len(chain.generators.re)))


def orthogonality_table(gens: Stack | Sequence[Matrix]) -> np.ndarray:
    """The (count, count) product table (:func:`opalg.matrices.product_table`)
    saying whether g_i g_j equals g_i for i == j and vanishes for i != j:
    exactly when every generator is exact, else within ``DEFAULT_TOL``;
    ``gens`` may be their stack."""
    if not isinstance(gens, Stack):
        return orthogonality_table(stack(gens)) if len(gens) else np.ones((0, 0), dtype=bool)
    return product_table(gens, np.diag(np.arange(1, len(gens.re) + 1)) - 1, DEFAULT_TOL)[0]


def _weight_powers(weights: WeightSeq, r_max: int) -> np.ndarray:
    """L_j^r for r = 0..r_max as an (r_max + 1, count) object array, L_j the
    :attr:`WeightSeq.numerators`, by one running product: every residual and
    bound of :func:`certify_generation` reads it."""
    nums = weights.numerators
    return np.multiply.accumulate(np.vstack([np.ones_like(nums), np.broadcast_to(nums, (r_max, len(nums)))]))


def _tail_residuals(family, powers: np.ndarray):
    """Yield (m, g_m - B_m^r for r = 1..r_max as one complex (r_max, d, d)
    array) for the rescaled residual generator B_m of every 0-based index m
    but the last, whose tail is empty, from the last but one down to the
    first.

    For pairwise-orthogonal idempotents, g_m - B_m^r = -sum_{j>m} (L_j/L_m)^r g_j
    exactly, with L_j^r read from ``powers`` (:func:`_weight_powers`).  Float
    families round each (L_j/L_m)^r once.  For exact families (numerators
    G_j over D, from :func:`opalg.matrices.stack`) the tail numerators
    -sum_{j>m} L_j^r G_j are one running sum, which gains one term per index
    on that generator's nonzero entries; only the entries the tail has
    reached are divided by L_m^r D, each rounded as :meth:`Matrix.to_float`
    rounds the same rational."""
    mats, count, r_max = family.re, len(family.re), len(powers) - 1
    if family.den is None:
        for m in range(count - 2, -1, -1):
            yield m, -np.tensordot((powers[1:, m + 1:] / powers[1:, m:m + 1]).astype(float), mats[m + 1:], axes=1)
        return
    parts = [x.reshape(count, -1) for x in (mats, family.im) if x is not None]
    cols = np.flatnonzero(np.any([part != 0 for part in parts], axis=(0, 1)))
    own = np.any([part[:, cols] != 0 for part in parts], axis=0)
    nums, bound = [np.zeros((r_max, len(cols)), dtype=object) for _ in parts] + [None] * (2 - len(parts)), 0
    for m in range(count - 2, -1, -1):
        at, live = np.flatnonzero(own[m + 1]), np.flatnonzero(own[m + 1:].any(axis=0))
        for num, part in zip(nums, parts):
            num[:, at] -= powers[1:, m + 1, None] * part[m + 1, cols[at]].astype(object)
        bound += powers[-1, m + 1] * family.bound
        tail = Stack(*(None if x is None else x[:, live] for x in nums), powers[1:, m:m + 1] * family.den, bound)
        out = np.zeros((r_max, mats[0].size), dtype=complex)
        out[:, cols[live]] = float_stack(tail)
        yield m, out.reshape(r_max, *mats.shape[1:])


@dataclass(frozen=True)
class GenerationRecord:
    index: int
    power: int
    residual: float
    bound: float
    passed: bool


@dataclass(frozen=True, eq=False)
class GenerationCertificate:
    """The generators certified and their (count, r_max) residuals, bounds
    and verdicts, entry (m - 1, r - 1) for index m and power r."""

    generators: tuple[Matrix, ...]
    residuals: np.ndarray
    bounds: np.ndarray
    verdicts: np.ndarray

    @property
    def per_index(self) -> dict[int, bool]:
        return {m: bool(row.all()) for m, row in enumerate(self.verdicts, start=1)}

    @property
    def passed(self) -> bool:
        return bool(self.verdicts.all())

    @cached_property
    def records(self) -> tuple[GenerationRecord, ...]:
        """The CSV rows (:meth:`csv_rows`) as records, made when first read."""
        return tuple(GenerationRecord(*row[:4], bool(row[4])) for row in self.csv_rows()[1:])

    def csv_rows(self) -> list[list]:
        m, r = np.indices(self.residuals.shape) + 1
        rows = zip(*(x.ravel().tolist() for x in (m, r, self.residuals, self.bounds, self.verdicts.astype(int))))
        return [["m", "r", "residual", "bound", "passed"]] + [list(row) for row in rows]


def certify_generation(source: Chain | Sequence[Matrix], weights: WeightSeq, r_max: int,
                       tol: float = DEFAULT_TOL) -> GenerationCertificate:
    """Check the geometric recovery bound for every generator.

    For each m, powers of the rescaled residual generator must satisfy
    norm(g_m - ((1/l_m) b_m)^r) <= (1/l_m) (l_{m+1}/l_m)^(r-1)
    sum_{j>m} l_j norm(g_j) for r = 1..r_max; the last generator must be
    recovered exactly (empty tail sum).  An index passes when all its
    records do; the bound falls geometrically, so it rules out stagnation.

    The generators must pass :func:`orthogonality_table`, checked once;
    otherwise CertificationError is raised.  Given that, the residuals are
    read off the spectral closed form g_m - B_m^r = -sum_{j>m} rho_j^r g_j,
    rho_j = l_j / l_m (:func:`_tail_residuals`), so on exact families they
    are those of the exact powers, bit for bit.  Each generator's r_max
    residual norms come from one stacked SVD, and the generators' norms
    from one more.  Each bound is one rational in the weights' numerators
    L_j (:func:`_weight_powers`) and the norms' exact binary values,
    rounded once.  The certificate keeps the generators it certified and
    the (count, r_max) residuals, bounds and verdicts, all verdicts from
    one :func:`opalg.matrices.bound_holds` call.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    gens = orthogonal_generators(source) if isinstance(source, Chain) else tuple(source)
    if not gens:
        raise ValueError("no generators supplied")
    count, family = len(gens), stack(gens)
    if not orthogonality_table(family).all():
        raise CertificationError("generators are not pairwise-orthogonal idempotents")
    if len(weights) != count:
        raise ValueError(f"got {len(weights)} weights for {count} generators")
    norms = singular_values(float_stack(family))[:, 0].tolist()
    powers = _weight_powers(weights, r_max)
    residuals, bounds = np.zeros((count, r_max)), np.zeros((count, r_max))
    for m, residual_stack in _tail_residuals(family, powers):
        residuals[m] = singular_values(residual_stack)[:, 0]
    # tails[k] = sum_{j>=k} L_j norm(g_j) over one denominator, exact from the norms' binary values
    tails = Stack.of([(x, 0) for x in np.cumsum([Fraction(x) * lam for x, lam in zip(norms, powers[1])][::-1])[::-1]])
    bounds[:-1] = (powers[:-1, 1:] * tails.re[1:] / (powers[1:, :-1] * tails.den)).T
    return GenerationCertificate(gens, residuals, bounds, bound_holds(residuals, bounds, gens[0].rows, tol))


def same_span(first: Stack | Sequence[Matrix], second: Stack | Sequence[Matrix]) -> bool:
    """Whether two families of matrices have equal linear span: both together
    have the rank of each, from :func:`opalg.matrices.eliminate` (exact on exact
    families; one with a float member runs wholly in floats, a remainder being
    zero when no entry exceeds 1e-8), which keeps as many of ``first`` as
    its rank when it eliminates ``first + second`` in order.  A family is a
    sequence of matrices or their stack, such as :attr:`Chain.family`; an
    empty one spans 0."""
    first, second = (x if isinstance(x, Stack) else stack(x) if len(x) else None for x in (first, second))
    parts = [x for x in (first, second) if x is not None]
    kept = lambda family: eliminate(family.take(None), zero_below=1e-8, coordinates=False)[0][0]
    both = kept(stack_concat(parts)) if parts else np.zeros(0, dtype=bool)
    return bool(both[:0 if first is None else len(first.re)].sum() == (0 if second is None else kept(second).sum())
                == both.sum())
