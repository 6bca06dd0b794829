"""Single-generator certification for families of orthogonal idempotents.

Given pairwise-orthogonal idempotents g_1, g_2, ... and strictly
decreasing positive rational weights, the weighted sum b = sum_j l_j g_j
generates every g_m back: powers of the rescaled residual generator
b_m = b - sum_{j<m} l_j g_j converge to g_m at a geometric rate with
ratio l_{m+1} / l_m.  A semilattice chain enters through its telescoping
differences, which are pairwise orthogonal and span the same algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

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

GeneratorSource = Union[Chain, Sequence[Matrix]]


def _rational_norm_bound(x: float) -> Fraction:
    """A small-denominator rational strictly above x."""
    return Fraction(math.ceil(x * 16) + 1, 16)


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
    def norm_adaptive(cls, mats: Sequence[Matrix]) -> "WeightSeq":
        """l_j = 4^-j / (1 + N_j) with N_j a rational bound on the largest
        norm among the first j idempotents, all from one stacked SVD.  Keeps
        sum l_j * norm(g_j) below sum 4^-j even when norms grow."""
        norms = singular_values(float_stack(stack(mats)))[:, 0]
        peaks = np.maximum.accumulate(np.array([_rational_norm_bound(x) for x in norms], dtype=object))
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
    """Telescoping differences of the chain: g_1 = e_1, g_j = e_j - e_{j-1}.

    These are pairwise-orthogonal idempotents spanning the same algebra;
    :func:`orthogonality_table` measures that, and every consumer in this
    module checks it before use.
    """
    mats = chain.idempotents
    return tuple([mats[0]] + [mats[j] - mats[j - 1] for j in range(1, len(mats))])


def orthogonality_table(gens: Sequence[Matrix]) -> np.ndarray:
    """The (count, count) product table (:func:`opalg.matrices.product_table`)
    saying whether g_i g_j equals g_i for i == j and vanishes for i != j:
    exactly when every generator is exact, else within ``DEFAULT_TOL``."""
    if not gens:
        return np.ones((0, 0), dtype=bool)
    return product_table(stack(gens), np.diag(np.arange(1, len(gens) + 1)) - 1, DEFAULT_TOL)[0]


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
    -sum_{j>m} L_j^r G_j are one running sum on the entries where some
    generator is nonzero, which gains one term per index, each then divided
    by L_m^r D, which rounds it as :meth:`Matrix.to_float` rounds the same
    rational."""
    mats, count, r_max = family.re, len(family.re), len(powers) - 1
    if family.den is None:
        for m in range(count - 2, -1, -1):
            yield m, -np.tensordot((powers[1:, m + 1:] / powers[1:, m:m + 1]).astype(float), mats[m + 1:], axes=1)
        return
    parts = [x.reshape(count, -1) for x in (mats, family.im) if x is not None]
    cols = np.flatnonzero(np.any([part != 0 for part in parts], axis=(0, 1)))
    nums, bound = [np.zeros((r_max, len(cols)), dtype=object) for _ in parts], 0
    for m in range(count - 2, -1, -1):
        for num, part in zip(nums, parts):
            num -= powers[1:, m + 1, None] * part[m + 1, cols].astype(object)
        bound += powers[-1, m + 1] * family.bound
        tail = Stack(nums[0], nums[1] if len(nums) == 2 else None, powers[1:, m:m + 1] * family.den, bound)
        out = np.zeros((r_max, mats[0].size), dtype=complex)
        out[:, cols] = float_stack(tail)
        yield m, out.reshape(r_max, *mats.shape[1:])


@dataclass(frozen=True)
class GenerationRecord:
    index: int
    power: int
    residual: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class GenerationCertificate:
    generators: tuple[Matrix, ...]
    records: tuple[GenerationRecord, ...]
    per_index: dict[int, bool]
    passed: bool

    def csv_rows(self) -> list[list]:
        rows = [["m", "r", "residual", "bound", "passed"]]
        rows += [[r.index, r.power, r.residual, r.bound, int(r.passed)] for r in self.records]
        return rows


def certify_generation(
    source: GeneratorSource,
    weights: WeightSeq,
    r_max: int,
    tol: float = DEFAULT_TOL,
) -> GenerationCertificate:
    """Check the geometric recovery bound for every generator.

    For each m, powers of the rescaled residual generator must satisfy
    norm(g_m - ((1/l_m) b_m)^r) <= (1/l_m) (l_{m+1}/l_m)^(r-1)
    sum_{j>m} l_j norm(g_j) for r = 1..r_max; the last generator must be
    recovered exactly (empty tail sum).  An index passes when all its
    records do; the bound falls geometrically, so it rules out stagnation.

    The generators must pass :func:`orthogonality_table`, checked once;
    otherwise CertificationError is raised.  Given that, the residuals are
    read off the spectral closed form g_m - B_m^r = -sum_{j>m} rho_j^r g_j,
    rho_j = l_j / l_m: on exact families this is the exact rational matrix
    the powers give, rounded entry by entry as :meth:`Matrix.to_float`
    rounds it, so the residuals are those of the exact powers, bit for
    bit; one running tail sum (:func:`_tail_residuals`) forms them from the
    last index down.  Each generator's r_max residual norms come from one
    stacked SVD, and the generators' norms from one more.  Each bound is
    one rational in the weights' numerators L_j (:func:`_weight_powers`)
    and the norms' exact binary values, rounded once.  Residuals and bounds
    are (count, r_max) arrays, and one :func:`opalg.matrices.bound_holds`
    call gives every record's verdict.  The certificate keeps the
    generators it certified.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    gens = orthogonal_generators(source) if isinstance(source, Chain) else tuple(source)
    if not gens:
        raise ValueError("no generators supplied")
    if not orthogonality_table(gens).all():
        raise CertificationError("generators are not pairwise-orthogonal idempotents")
    count, family = len(gens), stack(gens)
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
    passed = bound_holds(residuals, bounds, gens[0].rows, tol)
    records = tuple(
        GenerationRecord(index=m, power=r, residual=residual, bound=bound, passed=ok)
        for m, rows in enumerate(zip(residuals.tolist(), bounds.tolist(), passed.tolist()), start=1)
        for r, (residual, bound, ok) in enumerate(zip(*rows), start=1)
    )
    per_index = {m: bool(row.all()) for m, row in enumerate(passed, start=1)}
    return GenerationCertificate(generators=gens, records=records, per_index=per_index, passed=all(per_index.values()))


def same_span(first: Sequence[Matrix], second: Sequence[Matrix]) -> bool:
    """Whether two families of matrices have equal linear span: both together
    have the rank of each, from :func:`opalg.matrices.eliminate` (exact on exact
    families; one with a float member runs wholly in floats, a remainder being
    zero when no entry exceeds 1e-8), which keeps as many of ``first`` as
    its rank when it eliminates ``first + second`` in order."""
    first, second = list(first), list(second)

    def kept(mats):
        return eliminate(stack(mats).take(None), zero_below=1e-8, coordinates=False)[0][0]

    both = kept(first + second) if first + second else np.zeros(0, dtype=bool)
    return bool(both[:len(first)].sum() == (kept(second).sum() if second else 0) == both.sum())
