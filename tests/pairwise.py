"""Reference implementations kept as test oracles: the zero test one
matrix at a time, Gaussian elimination one
``Matrix`` at a time with its pivot rule, a matrix's content, an exact
stack's entries and largest numerator, the dense idempotents of the
rank-one family, and the tensor-element algebra term by term on (Matrix,
Matrix) pairs, with the reduced form and norm bounds read off them; and
the diagonal stage's commutator bounds, one reduction per diagonal, and its
regrouped unitized bounds, all by the reduction; the increments of a
diagonal sequence, found by comparing its diagonals term by term, and
padded into one batched element; a
chain's idempotents one ``Matrix`` expression each, its idempotent stack,
its telescoping generators one ``Matrix`` subtraction each and its telescoping diagonals from their pairs; the
generation residuals by one dense product of the power table with the tail
generators; the rescaled residual generators by their suffix sums, and the
norm-adaptive weights one norm at a time; the rank-one family's witnesses
trial by trial; the embedding bounds item by item and block by block, with
blockwise multiplicativity on seeded rational trials in place of the basis
products; and a tensor element's terms as (Matrix, Matrix) pairs.  They are slow and
simple; the package computes the same things on stacked arrays."""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from opalg import diagonals, embedding
from opalg.embedding import SubsetFamily, best_subset_sum, make_trace, phi
from opalg.matrices import (
    Matrix,
    Stack,
    float_stack,
    kernel_dtype,
    op_norm,
    products_agree,
    singular_values,
    stack,
    stack_concat,
    stack_product,
)


def eliminate(mats, rows=None, coordinates=True):
    """Gaussian elimination on same-shape matrices, in order.

    Each matrix is reduced against one pivot row per kept matrix before
    it, and is kept when its remainder r is nonzero and it is among the
    first ``rows`` (default: all).  The pivot is the nonzero entry of least
    modulus, the first in row order among equal ones.  Returns
    ``(kept, coords)``: the kept indices, and per matrix None when it is
    outside the span of the kept matrices before it, else its coordinates
    over them, a 1 x len(mats) matrix whose entry (0, b) multiplies
    ``mats[kept[b]]``.  With ``coordinates=False`` coords is None.
    """
    mats = list(mats)
    n = len(mats)
    kept, coords, pivots = [], [], []  # pivots: (pivot index, E, coordinates of E over the kept matrices)
    for k, m in enumerate(mats):
        r, x = m, Matrix.zeros(1, n) if coordinates else None
        for ij, e, e_coords in pivots:
            c = r.entry(*ij)
            if any(c):
                r = r - e * c
                if coordinates:
                    x = x + e_coords * c
        if is_zero(r):
            coords.append(x)
            continue
        coords.append(None)
        if rows is None or k < rows:
            ij = pivot(r)
            p = r.entry(*ij)
            if coordinates:
                unit = Matrix.exact([[int(j == len(kept)) for j in range(n)]])
                x = (unit - x) * reciprocal(p)
            pivots.append((ij, r * reciprocal(p), x))
            kept.append(k)
    return kept, coords if coordinates else None


def is_zero(m):
    """Whether every entry of the matrix m is zero."""
    return m._s.im is None and not np.count_nonzero(m._s.re)


def reciprocal(z):
    """1 / z for an (re, im) pair, as a pair of Fractions."""
    norm = Fraction(z[0] * z[0] + z[1] * z[1])
    return z[0] / norm, -z[1] / norm


def pivot(m):
    """Index (i, j) of the nonzero entry of least modulus, the first in row
    order among equal ones; None for a zero matrix."""
    mags = {}
    for i in range(m.rows):
        for j in range(m.cols):
            re, im = m.entry(i, j)
            if re * re + im * im:
                mags[(i, j)] = re * re + im * im
    if not mags:
        return None
    best = min(mags.values())
    return next(ij for ij, mag in mags.items() if mag == best)


def content(m):
    """The gcd g of all real and imaginary parts of m, a Fraction, so m / g
    has coprime integer entries (0 for the zero matrix)."""
    s = m._s
    return Fraction(math.gcd(*s.re.flat, *(() if s.im is None else s.im.flat)), s.den)


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

    def __sub__(self, other):
        return self + (-other)

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


def terms(t):
    """The (Matrix, Matrix) pairs of a tensor element, in order."""
    return tuple((Matrix.from_stack(t._left.take(i)), Matrix.from_stack(t._right.take(i)))
                 for i in range(len(t._left.re)))


def commutator(a, t):
    """a . t - t . a, term by term: (a u, v) for every term, then (u, -(v a))."""
    return t.left(a) + PairTensor([(u, -(v @ a)) for u, v in t.terms], t.dim)


def reduce(terms):
    """The reduced form over linearly independent left legs, as pairs: zero
    right legs dropped, each left leg divided by its content, the right legs
    of dependent terms folded onto the kept ones by their coordinates, and
    kept pairs with a zero leg dropped."""
    terms = [(u, v) for u, v in terms if not is_zero(v)]
    for i, (u, v) in enumerate(terms):
        g = content(u)
        if g not in (0, 1):
            terms[i] = (u * (1 / g), v * g)
    kept, coords = eliminate([u for u, _ in terms])
    pairs = [list(terms[k]) for k in kept]
    for (_, v), x in zip(terms, coords):
        if x is None:
            continue
        for b, pair in enumerate(pairs):
            k = x.entry(0, b)
            if any(k):
                pair[1] = pair[1] + v * k
    return [(b, v) for b, v in pairs if not (is_zero(b) or is_zero(v))]


def numerator_max(s):
    """The largest modulus of an exact stack's numerators, in Python integers."""
    return max((abs(int(x)) for x in (*s.re.flat, *(() if s.im is None else s.im.flat))), default=0)


def entries(s):
    """An exact stack's entries as a nested list of (re, im) Fraction pairs."""
    im = np.zeros_like(s.re) if s.im is None else s.im
    out = np.empty(s.re.size, dtype=object)
    for k, (x, y) in enumerate(zip(s.re.flat, im.flat)):
        out[k] = Fraction(int(x), s.den), Fraction(int(y), s.den)
    return out.reshape(s.re.shape).tolist()


def exponent(m):
    """k = (bit length of the largest numerator) - (bit length of the
    denominator) of m in lowest terms, so the largest entry modulus of
    2**-k m lies between 1/2 and 3; 0 for a zero m."""
    s = m._s
    big = max(abs(int(x)) for x in (*s.re.flat, *(() if s.im is None else s.im.flat)))
    return big.bit_length() - s.den.bit_length() if big else 0


def leg_norm(m):
    """(x, k) with ||m|| = x 2**k, reading a leg far from 1 as 2**-k m."""
    k = exponent(m)
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


def increments(deltas):
    """Per diagonal, what it adds to the one before (the first to zero): its
    terms after the longest prefix it shares with the previous one, minus
    the previous one's terms after that prefix, legs compared by
    :meth:`Matrix.equals`.  A telescoping sequence built term by term gives
    one term per increment, and any sequence gives increments that sum to
    each diagonal."""
    out, prev = [], diagonals.TensorElem.of((), deltas[0].dim)
    for d in deltas:
        k, pairs, prev_pairs = 0, terms(d), terms(prev)
        while k < min(len(prev_pairs), len(pairs)) and all(map(Matrix.equals, prev_pairs[k], pairs[k])):
            k += 1
        (dl, dr), (pl, pr) = ((x._left.take(slice(k, None)), x._right.take(slice(k, None))) for x in (d, prev))
        out.append(diagonals.TensorElem(stack_concat([dl, pl.apply(np.negative)]), stack_concat([dr, pr]), d.dim))
        prev = d
    return out


def batched(increments):
    """A list of increments as the one batched element that
    :func:`opalg.diagonals.certify_mbad` takes: (increment, term, n, n) legs,
    each increment padded with zero terms to the widest one, and at least one
    term wide."""
    width = max(1, *(len(inc._left.re) for inc in increments))
    pad = lambda x: np.concatenate([x, np.zeros((width - len(x), *x.shape[1:]), x.dtype)])[None]
    legs = (stack_concat([getattr(inc, side).apply(pad) for inc in increments]) for side in ("_left", "_right"))
    return diagonals.TensorElem(*legs, increments[0].dim)


def commutator_bounds(samples, increments):
    """The bounds of [a, D_n] for each n and each a of the stack ``samples``,
    one reduction per diagonal: the reduced [a, D_{n-1}] with the terms of
    [a, I_n], for D_n the sum of the first n increments I_n."""
    out, actors = [], samples.take((slice(None), None))
    for inc in increments:
        left, right = diagonals._commutator(actors, inc._left, inc._right)
        if out:
            left, right = (stack_concat([x, y], axis=-3) for x, y in zip(out[-1][3], (left, right)))
        out.append(diagonals._bounds(left, right))
    return out


def regrouped_uppers(comms, w, images, rests):
    """tensor_norm_upper of R = 2[a,D] - p.[a,D] + w (x) rest - rest (x) w for
    each D_n and sample a, as an (n, a) list, every one by the reduction,
    from the reduced [a, D_n], w = a_alg (1 - p) and rest = 1 - p."""
    slots = max(c[0].re.shape[1] for c in comms)
    pad = lambda x: np.concatenate([x, np.zeros((x.shape[0], slots - x.shape[1], *x.shape[2:]), x.dtype)], 1)[None]
    cl, cr = (stack_concat([c[side].apply(pad) for c in comms]) for side in (0, 1))
    wn = w.apply(lambda x: np.swapaxes(x, 0, 1)[..., None, :, :])
    rest = rests.apply(lambda x: np.broadcast_to(x[:, None, None], wn.re.shape))
    out = []
    for n in range(len(comms)):
        l, r, ws, rs = (x.take(slice(n, n + 1)) for x in (cl, cr, wn, rest))
        pl = stack_product(np.matmul, images.take((slice(n, n + 1), None, None)), l, l.re.shape[-1])
        left = stack_concat([diagonals._times(l, 2), pl.apply(np.negative), ws, rs.apply(np.negative)], axis=-3)
        flat = (x.apply(lambda y: y.reshape(-1, *y.shape[2:])) for x in (left, stack_concat([r, r, rs, ws], -3)))
        out.append(diagonals._upper(*diagonals._reduce(*flat)).tolist())
    return out


def select(m, rows, cols):
    """The restriction of a matrix to the given rows and columns, in order,
    by slicing its stack."""
    return Matrix.from_stack(m._s.take(np.ix_(rows, cols)))


def build_idempotent(spec, n):
    """The n-th idempotent of a chain spec one ``Matrix`` at a time: the
    projection onto H_n plus, for even n, the coupling b_n moved by 0/1
    selector matrices into the rows of the gap below H_n and the columns of
    the gap above it; what ``build_chain`` fills into its family."""
    dim, rank = spec.truncation_dim, spec.dims[n - 1]
    projection = Matrix.diag([1] * rank + [0] * (dim - rank))
    if n % 2 == 1:
        return projection
    block, top = spec.couplings[n // 2 - 1], spec.dims[n - 2]
    rows = Matrix.exact([[int(i == top + k) for k in range(block.rows)] for i in range(dim)])
    cols = Matrix.exact([[int(j == rank + k) for j in range(dim)] for k in range(block.cols)])
    return projection + rows @ block @ cols


def chain_family(chain):
    """A chain's idempotents, stacked: what :attr:`Chain.family` holds."""
    return stack(chain.idempotents)


def chain_generators(chain):
    """The telescoping differences g_1 = e_1, g_j = e_j - e_{j-1} of a chain,
    one ``Matrix`` subtraction each: what :attr:`Chain.generators` holds."""
    mats = chain.idempotents
    return (mats[0],) + tuple(mats[j] - mats[j - 1] for j in range(1, len(mats)))


def build_delta(chain, n):
    """The telescoping diagonal sum_{j<=n} g_j (x) g_j of a chain, from its
    generators by :func:`chain_generators` and their pairs."""
    if not 1 <= n <= chain.m_max:
        raise ValueError(f"diagonal index {n} out of range 1..{chain.m_max}")
    return diagonals.TensorElem.of([(g, g) for g in chain_generators(chain)[:n]], dim=chain.truncation_dim)


def rescaled_generators(gens, weights):
    """The rescaled residual generators (1/l_m) b_m, m = 1, 2, ..., with
    b_m = sum_{j>=m} l_j g_j built from the suffix sums
    b_m = b_{m+1} + l_m g_m, exactly."""
    if len(weights) != len(gens):
        raise ValueError(f"got {len(weights)} weights for {len(gens)} generators")
    out, suffix = [], None
    for g, lam in zip(reversed(gens), reversed(weights.lambdas)):
        suffix = g * lam if suffix is None else suffix + g * lam
        out.append(suffix * (1 / lam))
    return tuple(reversed(out))


def norm_adaptive(mats):
    """WeightSeq.norm_adaptive one matrix at a time: the running peak of
    the rational bounds on each op_norm(g_j)."""
    lams, peak = [], Fraction(0)
    for j, g in enumerate(mats, start=1):
        peak = max(peak, Fraction(math.ceil(op_norm(g) * 16) + 1, 16))
        lams.append(Fraction(1, 4**j) / (1 + peak))
    return tuple(lams)


def residual_stack(family, weights, m, r_max):
    """A residual stack of generation._tail_residuals, for the index m of an
    exact family, by the dense product (None when its tail is empty):
    the whole (r_max, tail) table of powers P_j^r times the tail numerators
    on every entry where some tail generator is nonzero, each entry then
    divided by Q^r L."""
    mats, im, den = family.re, family.im, family.den
    if m + 1 == len(mats):
        return None
    rho = [lam / weights[m] for lam in weights.lambdas[m + 1:]]
    q = math.lcm(*(x.denominator for x in rho))
    p = np.array([x.numerator * (q // x.denominator) for x in rho], dtype=object)
    parts = [x[m + 1:].reshape(len(p), -1) for x in (mats, im) if x is not None]
    cols = np.flatnonzero(np.any([part != 0 for part in parts], axis=(0, 1)))
    table = np.empty((r_max, len(p)), dtype=object)
    dens = np.empty((r_max, 1), dtype=object)
    row, scale = p, q * den
    for r in range(r_max):
        table[r], dens[r] = row, scale
        row, scale = row * p, scale * q
    nums = [-(table @ part[:, cols]) for part in parts]
    out = np.zeros((r_max, mats[0].size), dtype=complex)
    out[:, cols] = float_stack(Stack.read(nums[0], nums[1] if len(nums) == 2 else None, dens))
    return out.reshape(r_max, *mats.shape[1:])


def E(fam, n):
    """The dense idempotent E_n = y_n x_n* of a rank-one family, as an exact
    matrix."""
    if not 1 <= n <= fam.n_max:
        raise IndexError(f"index {n} out of range 1..{fam.n_max}")
    return Matrix.from_stack(Stack.read(np.outer(fam.y[:, n - 1], fam.x[:, n - 1])))


def e_family(fam, trials=100, seed=0, tol=1e-9):
    """certify_E_family one trial at a time: the structure checks on the
    factors, and each witness Y diag(c) X* as two exact Matrix products on
    the coefficients read as Fractions, its norm by its own SVD."""
    n, dim = fam.n_max, fam.ambient_dim
    x, y = fam.x.astype(object), fam.y.astype(object)
    squares = (x * x).sum(axis=0) * (y * y).sum(axis=0)
    gram = x.T @ y
    allowed = np.vstack([np.ones((2, n), dtype=bool), np.eye(n, dtype=bool)])
    x_star, y_mat = Matrix.from_stack(Stack.read(x.T)), Matrix.from_stack(Stack.read(y))
    rng = np.random.default_rng(seed)
    witness_exact = witness_dominated = True
    for _ in range(trials):
        re = rng.uniform(-1.0, 1.0, n)
        im = rng.uniform(-1.0, 1.0, n)
        coeffs = [(Fraction(float(p)), Fraction(float(q))) for p, q in zip(re, im)]
        acc = y_mat @ Matrix.diag(coeffs) @ x_star
        total = (sum(c[0] for c in coeffs), sum(c[1] for c in coeffs))
        if acc.entry(1, 1) != total:
            witness_exact = False
        if abs(complex(float(total[0]), float(total[1]))) > op_norm(acc) + tol:
            witness_dominated = False
    checks = dict(
        norms_ok=bool((squares == 9).all()),
        idempotent=bool((gram.diagonal() == 1).all()),
        pairwise_zero=not gram[~np.eye(n, dtype=bool)].any(),
        range_contained=not (((x != 0) | (y != 0)) & ~allowed).any(),
        witness_exact=witness_exact,
        witness_dominated=witness_dominated,
    )
    max_norm_error = float(np.abs(np.sqrt(squares.astype(float)) - 3.0).max())
    return embedding.EFamilyReport(n_max=n, max_norm_error=max_norm_error, witness_trials=trials,
                                   passed=all(checks.values()), **checks)


def is_product(ea, eb, ep):
    """Whether every block of the embedded element ep is the product of the
    blocks of ea and eb, exactly, one products_agree call per stack."""
    return all(
        products_agree(a, b, p)[0].all() for (_, a), (_, b), (_, p) in zip(ea.stacks, eb.stacks, ep.stacks)
    )


def rational_trial(rng, n):
    """Two seeded rational sequences a and b, as numerators over 16 drawn
    from [-32, 32], and their pointwise product, over 16**2: three
    (re, im, den) triples."""
    ar, ai, br, bi = (rng.integers(-32, 33, n) for _ in range(4))
    return (ar, ai, 16), (br, bi, 16), (ar * br - ai * bi, ar * bi + ai * br, 16**2)


def trial_is_product(family, trial):
    """Whether every block of p over ``family`` is the product of those of a
    and b, exactly, for a trial's (re, im, den) triples of a, b and p: their
    six numerator vectors as one (6, n_max) array (int64 under the bound of
    ``embedding._embedded``), one ``_fill`` and one products_agree per size."""
    nums, dens = np.stack([x for re, im, _ in trial for x in (re, im)]), [den for *_, den in trial]
    bound = Stack.read(nums).bound * family.n_max  # every s_F sums at most n_max numerators
    nums = nums.astype(kernel_dtype(bound))
    for _, idx in family._by_size:
        blocks = embedding._fill(nums[:, idx])
        stacks = (Stack(blocks[k], blocks[k + 1], d, bound) for k, d in zip((0, 2, 4), dens))
        if not products_agree(*stacks)[0].all():
            return False
    return True


def block_norms(e):
    """Per block of an embedded element, in family order: its singular values."""
    out = [None] * len(e.family)
    for positions, s in e.stacks:
        for pos, values in zip(positions, singular_values(float_stack(s))):
            out[pos] = values
    return out


def embedding_bounds(n_max=10, f_cap=512, s_max=8, trials=100, seed=0, tol=1e-9, mult_trials=10,
                     csv_scheme="geometric"):
    """certify_embedding_bounds one item at a time: phi on the base family
    augmented by the item's sweep-optimal subset, the sup norm as the
    largest norm over its blocks and each trace norm summed block by block
    in family order; multiplicativity from ``mult_trials`` rational trials,
    each as three embedded elements, where the package multiplies basis
    blocks, so the two verdicts must agree."""
    base = SubsetFamily.enumerate(n_max, f_cap=f_cap, s_max=s_max)
    rng = np.random.default_rng(seed)
    inv_pi, slack = 1.0 / math.pi, 1e-12
    named = {
        "single-index": [1.0] + [0.0] * (n_max - 1),
        "unit-circle": [cmath.exp(2j * math.pi * j / n_max) for j in range(n_max)],
    }
    random_trials = [
        list(rng.uniform(-1.0, 1.0, n_max) + 1j * rng.uniform(-1.0, 1.0, n_max)) for _ in range(trials)
    ]
    lower_ok = upper_ok = trace_ok = trace_le_sup_ok = True
    min_ratio, max_ratio, max_trace_to_inf = math.inf, -math.inf, 0.0
    named_ratio, rows = {}, []
    for label, a in list(named.items()) + [(str(i), a) for i, a in enumerate(random_trials)]:
        l1 = sum(abs(complex(v)) for v in a)
        linf = max(abs(complex(v)) for v in a)
        f_star, sweep_val = best_subset_sum(a)
        fam = base.augmented([f_star])
        norms = block_norms(phi(a, fam))
        sup = max(float(s[0]) for s in norms)
        ratio = sup / l1
        if sweep_val < l1 * inv_pi * (1.0 - slack) or sup < sweep_val * (1.0 - slack):
            lower_ok = False
        if sup > 3.0 * l1 * (1.0 + slack):
            upper_ok = False
        min_ratio, max_ratio = min(min_ratio, ratio), max(max_ratio, ratio)
        trace_row = 0.0
        for scheme in ("geometric", "uniform"):
            tn = 0.0
            for subset, weight, s in zip(fam.subsets, make_trace(fam, scheme).floats, norms):
                tn += weight / (len(subset) + 2) * float(s.sum())
            if scheme == csv_scheme:
                trace_row = tn
            max_trace_to_inf = max(max_trace_to_inf, tn / linf)
            trace_ok = trace_ok and tn <= 3.0 * linf + tol
            trace_le_sup_ok = trace_le_sup_ok and tn <= sup + tol
        if label in named:
            named_ratio[label] = ratio
        else:
            rows.append((int(label), l1, sup, ratio, trace_row))
    mult_exact = True
    for _ in range(mult_trials):
        if not is_product(*(embedding._embedded(base, Stack.read(*x)) for x in rational_trial(rng, n_max))):
            mult_exact = False
    return embedding.EmbeddingReport(
        n_max=n_max, f_cap=f_cap, s_max=s_max, trials=trials, seed=seed,
        min_sup_ratio=min_ratio, max_sup_ratio=max_ratio,
        single_index_ratio=named_ratio["single-index"], roots_ratio=named_ratio["unit-circle"],
        max_trace_to_inf=max_trace_to_inf, lower_ok=lower_ok, upper_ok=upper_ok, trace_ok=trace_ok,
        trace_le_sup_ok=trace_le_sup_ok, mult_sizes=tuple(sorted({len(f) for f in base.subsets})),
        mult_exact=mult_exact,
        passed=lower_ok and upper_ok and trace_ok and trace_le_sup_ok and mult_exact, rows=tuple(rows),
    )
