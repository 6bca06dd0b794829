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
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .chains import Chain
from .matrices import (
    DEFAULT_TOL,
    CertificationError,
    Matrix,
    eliminate,
    is_idempotent,
    op_norm,
    vanishes,
)

__all__ = [
    "WeightSeq",
    "GenerationRecord",
    "GenerationCertificate",
    "orthogonal_generators",
    "is_orthogonal_family",
    "single_generator",
    "rescaled_generators",
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
    def norm_adaptive(cls, mats: Sequence[Matrix], base: Fraction = Fraction(1, 4)) -> "WeightSeq":
        """l_j = base^j / (1 + N_j) with N_j a rational bound on the
        largest norm among the first j idempotents.  Keeps
        sum l_j * norm(g_j) below sum base^j even when norms grow."""
        lams = []
        peak = Fraction(0)
        for j, g in enumerate(mats, start=1):
            peak = max(peak, _rational_norm_bound(op_norm(g)))
            lams.append(base**j / (1 + peak))
        return cls(tuple(lams))

    def scaled(self, factor) -> "WeightSeq":
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return WeightSeq(tuple(x * factor for x in self.lambdas))


def orthogonal_generators(chain: Chain) -> tuple[Matrix, ...]:
    """Telescoping differences of the chain: g_1 = e_1, g_j = e_j - e_{j-1}.

    These are pairwise-orthogonal idempotents spanning the same algebra;
    :func:`is_orthogonal_family` measures that, and every consumer in this
    module checks it before use.
    """
    mats = chain.idempotents
    return tuple([mats[0]] + [mats[j] - mats[j - 1] for j in range(1, len(mats))])


def is_orthogonal_family(gens: Sequence[Matrix]) -> bool:
    """Whether every g is idempotent and g_i g_j vanishes for i != j, in
    the sense of :func:`opalg.matrices.agree` (exactly on exact input)."""
    return all(is_idempotent(g) for g in gens) and all(
        vanishes(gens[i] @ gens[j], DEFAULT_TOL) for i in range(len(gens)) for j in range(len(gens)) if i != j
    )


def _resolve_generators(source: GeneratorSource) -> tuple[Matrix, ...]:
    gens = orthogonal_generators(source) if isinstance(source, Chain) else tuple(source)
    if not gens:
        raise ValueError("no generators supplied")
    if not is_orthogonal_family(gens):
        raise CertificationError("generators are not pairwise-orthogonal idempotents")
    return gens


def single_generator(source: GeneratorSource, weights: WeightSeq) -> Matrix:
    """b = sum_j l_j g_j; exact when the inputs are exact."""
    gens = _resolve_generators(source)
    if len(weights) != len(gens):
        raise ValueError(f"got {len(weights)} weights for {len(gens)} generators")
    acc = gens[0] * weights[0]
    for g, lam in zip(gens[1:], weights.lambdas[1:]):
        acc = acc + g * lam
    return acc


def rescaled_generators(gens: Sequence[Matrix], weights: WeightSeq) -> tuple[Matrix, ...]:
    """The rescaled residual generators (1/l_m) b_m, m = 1, 2, ..., with
    b_m = sum_{j>=m} l_j g_j; exact when the inputs are exact.  Every
    residual of :func:`certify_generation` is read off their powers, so
    equal generators give equal residual series."""
    if len(weights) != len(gens):
        raise ValueError(f"got {len(weights)} weights for {len(gens)} generators")
    out = []
    for m, lam_m in enumerate(weights.lambdas):
        residual_gen = gens[m] * lam_m
        for j in range(m + 1, len(gens)):
            residual_gen = residual_gen + gens[j] * weights[j]
        out.append(residual_gen * (1 / lam_m))
    return tuple(out)


def _bound_holds(residual: float, bound: float, dim: int, power: int, tol: float) -> bool:
    """residual <= bound + budget + tol.  The budget covers rounding: by
    Weyl's bound and a backward-stable SVD, a norm of a float dim x dim
    matrix is off by at most 2 dim eps of itself; the bound sums such norms
    and raises a rounded ratio to power - 1; each of these 4 dim + power
    roundings may also lose the smallest subnormal."""
    budget = (4 * dim + power) * (sys.float_info.epsilon * (residual + bound) + math.ulp(0.0))
    return residual <= bound + budget + tol


@dataclass(frozen=True)
class GenerationRecord:
    index: int
    power: int
    residual: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class GenerationCertificate:
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
    recovered exactly (empty tail sum).  The per-index verdict also
    requires a monotone residual tail, to catch stagnation.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    gens = _resolve_generators(source)
    count = len(gens)
    norms = [op_norm(g) for g in gens]
    records: list[GenerationRecord] = []
    per_index: dict[int, bool] = {}
    tail_len = math.ceil(r_max / 2)
    for m, rescaled in enumerate(rescaled_generators(gens, weights), start=1):
        lam_m = weights[m - 1]
        # the last generator has an empty tail, so its bound is 0.0
        ratio = float(weights[m] / lam_m) if m < count else 0.0
        tail_sum = sum(float(weights[j]) * norms[j] for j in range(m, count))
        power = rescaled
        residuals = []
        ok_bounds = True
        for r in range(1, r_max + 1):
            residual = op_norm(gens[m - 1] - power)
            bound = (ratio ** (r - 1)) * tail_sum / float(lam_m)
            passed = _bound_holds(residual, bound, gens[m - 1].rows, r, tol)
            ok_bounds = ok_bounds and passed
            residuals.append(residual)
            records.append(GenerationRecord(index=m, power=r, residual=residual, bound=bound, passed=passed))
            if r < r_max:
                power = power @ rescaled
        tail = residuals[-tail_len:]
        monotone = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        per_index[m] = ok_bounds and monotone
    return GenerationCertificate(
        records=tuple(records),
        per_index=per_index,
        passed=all(per_index.values()),
    )


def same_span(first: Sequence[Matrix], second: Sequence[Matrix], tol: float = 1e-8) -> bool:
    """Whether two families of matrices have equal linear span: the ranks
    of each and of both together agree.  Ranks come from
    :func:`opalg.matrices.eliminate`, exactly on exact families; a float
    remainder counts as zero when no entry exceeds ``tol``."""
    first, second = list(first), list(second)

    def rank(mats):
        return len(eliminate(mats, lambda k, r: r.max_abs() <= tol, coordinates=False)[0])

    return rank(first) == rank(second) == rank(first + second)
