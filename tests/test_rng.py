import pytest

from dataeff.rng import SplitMix64

MASK = (1 << 64) - 1


def below(stream, n):
    """Unbiased draw in [0, n): a next_u64 at or above the largest multiple of n is redrawn."""
    threshold = ((1 << 64) // n) * n
    while True:
        u = stream.next_u64()
        if u < threshold:
            return u % n


def reference_shuffle_prefix(stream, items, m):
    """Front-to-back Fisher-Yates through next_u64 and below, one call per draw."""
    for i in range(m):
        j = i + below(stream, len(items) - i)
        items[i], items[j] = items[j], items[i]
    return items[:m]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 1000])
def test_shuffle_prefix_equals_the_reference_fisher_yates(n):
    for seed in range(200):
        for m in sorted({0, n // 2, n}):
            stream, reference = SplitMix64(seed), SplitMix64(seed)
            items, expected = list(range(n)), list(range(n))
            prefix = stream.shuffle_prefix(items, m)
            assert prefix == reference_shuffle_prefix(reference, expected, m)
            assert items == expected
            assert stream.state == reference.state


def test_first_outputs_are_pinned():
    # Recorded from the generator before the shuffle ran it inline.
    pinned = {
        0: (0xE220A8397B1DCDAF, 0.43152799704850997, [9, 8, 5, 2, 0, 3], 0xF1BBCDCBFA53E0A8),
        12345: (0x22118258A9D111A0, 0.20481663336165912, [5, 4, 0, 9, 6, 8], 0xF1BBCDCBFA5410E1),
    }
    for seed, (u64, unit, prefix, state) in pinned.items():
        stream = SplitMix64(seed)
        assert stream.next_u64() == u64
        assert stream.unit() == unit
        assert stream.shuffle_prefix(list(range(10)), 6) == prefix
        assert stream.state == state


def _unshift(z, k):
    """The x with x ^ (x >> k) == z (64-bit)."""
    x = z
    for _ in range(64 // k + 1):
        x = z ^ (x >> k)
    return x


def _state_before(z):
    """The seed whose first next_u64 is z: the SplitMix64 finalizer run backwards."""
    x = _unshift(z, 31)
    x = _unshift((x * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK, 27)
    x = _unshift((x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK, 30)
    return (x - 0x9E3779B97F4A7C15) & MASK


@pytest.mark.parametrize("n, draws", [(3, 4), (2, 2), (4, 4)])
def test_a_first_draw_of_2_64_minus_1_is_redrawn_unless_the_bound_divides_2_64(n, draws):
    # 2**64 - 1 is at or above (2**64 // 3) * 3, so a bound of 3 redraws it, while a
    # power-of-two bound keeps it. A redraw comes with probability below 2**-48 for
    # fewer than 2**16 items, so only a seed built for it reaches one.
    seed = _state_before(MASK)
    assert SplitMix64(seed).next_u64() == MASK
    stream, reference = SplitMix64(seed), SplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    assert stream.shuffle_prefix(items, n) == reference_shuffle_prefix(reference, expected, n)
    assert items == expected
    assert stream.state == reference.state == (seed + draws * 0x9E3779B97F4A7C15) & MASK


def test_shuffle_prefix_rejects_a_length_out_of_range():
    for m in (-1, 4):
        with pytest.raises(ValueError, match=f"prefix length {m} out of range for 3 items"):
            SplitMix64(1).shuffle_prefix([1, 2, 3], m)
