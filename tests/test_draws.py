"""The pure-Python draws against their oracles: hashlib's SHA-256 and numpy's default_rng."""
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opalg.draws import Pcg64, sha256

# high - low of 1 draws nothing, 65 is the span of the embedding oracle's
# rational trials (tests/pairwise.py), and 2**32 - 1 and 2**32 are the
# widest the 32-bit Lemire rejection covers
spans = st.sampled_from([1, 65, 2**32 - 1, 2**32])
sizes = st.one_of(st.integers(0, 5), st.tuples(st.integers(0, 3), st.integers(0, 3)))
calls = st.one_of(
    st.tuples(st.just("uniform"), st.tuples(st.floats(-8, 8), st.floats(0, 8), sizes)
              .map(lambda t: (t[0], t[0] + t[1], t[2]))),
    st.tuples(st.just("integers"), st.tuples(st.integers(-2**40, 2**40), spans, st.none() | sizes)
              .map(lambda t: (t[0], t[0] + t[1]) + ((t[2],) if t[2] is not None else ()))),
)


@given(st.integers(0, 2**200), st.lists(calls, max_size=8))
@example(0, [("integers", (1, 13)), ("uniform", (-1.0, 1.0, 3)), ("integers", (-32, 33, 3))])
@example(2**128 - 1, [("integers", (0, 2**32, 3)), ("integers", (7, 8, (2, 2))), ("integers", (0, 65))])  # 4 words
@example(2**128, [("uniform", (-1.0, 1.0, (2, 2))), ("integers", (0, 2**32 - 1, 5))])  # 5 entropy words
@settings(max_examples=150, deadline=None)
def test_pcg64_streams_are_default_rng(seed, calls):
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    for name, args in calls:
        a, b = getattr(ours, name)(*args), getattr(theirs, name)(*args)
        assert (type(a), a.dtype, a.shape, a.tobytes()) == (type(b), b.dtype, b.shape, b.tobytes()), (name, args)


FIRST_DRAWS = {
    0: ([0.2739233746429086, -0.4604265724722594, -0.9180529521276106, -0.9669447289429418], [23, 9, 1, -15]),
    2**63 - 1: ([-0.6490677513944374, -0.06014269719698184, 0.6500748883061376, -0.39013472756665935],
                [-4, -21, -18, -2]),
}


# NEP 19 lets numpy change its Generator streams between versions; pinned
# literals name the side that moved when the oracle test fails
@pytest.mark.parametrize("make", [Pcg64, np.random.default_rng], ids=["Pcg64", "default_rng"])
@pytest.mark.parametrize("seed", sorted(FIRST_DRAWS))
def test_first_draws_are_pinned(make, seed):
    uniform, integers = FIRST_DRAWS[seed]
    assert make(seed).uniform(-1, 1, 4).tolist() == uniform
    assert make(seed).integers(-32, 33, 4).tolist() == integers


def test_numpy_integer_seeds_draw_like_python_ints():
    for seed in (np.int64(5), np.uint64(2**64 - 1)):
        assert Pcg64(seed).uniform(-1, 1, 3).tobytes() == Pcg64(int(seed)).uniform(-1, 1, 3).tobytes()


def test_draws_past_the_32_bit_range_and_negative_seeds_raise():
    with pytest.raises(ValueError, match="seed"):
        Pcg64(-1)
    rng = Pcg64(0)
    for low, high in ((0, 2**32 + 1), (-2**40, 2**40), (5, 5), (6, 5)):
        with pytest.raises(ValueError, match="high - low"):
            rng.integers(low, high)
        with pytest.raises(ValueError, match="high - low"):
            rng.integers(low, high, 3)


@given(st.binary(max_size=300))
@example(bytes(55))  # the last length whose padding fits one block
@example(bytes(56))
@example(bytes(63))
@example(bytes(64))
@example(bytes(119))
@example(bytes(120))
@settings(max_examples=200, deadline=None)
def test_sha256_is_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).digest()
