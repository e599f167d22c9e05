"""Seeded generator and the uniform path samplers."""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chungfeller import (
    IndexOutOfRange,
    RandomSource,
    is_dyck,
    negativity,
    render_path,
    sample_balanced,
    sample_dyck,
    sample_k_negative,
)
from support import (
    chi_square,
    paths_by_negativity,
    randbelow_by_scalar,
    shuffle_by_randbelow,
    splitmix64_by_scalar,
)

GAMMA = 0x9E3779B97F4A7C15
# 0, 1, the largest seed, and a seed whose first step wraps past 2**64
EDGE_SEEDS = [0, 1, 2**64 - 1, 2**64 - GAMMA]


def scalar_source(words):
    """An object with the randbelow of the scalar oracle over `words`."""
    return SimpleNamespace(randbelow=lambda bound: randbelow_by_scalar(words, bound))


# 0.999 quantiles of chi-square with 4, 30 and 50 degrees of freedom
CHI2_4DF = 18.47
CHI2_30DF = 59.703
CHI2_50DF = 86.661


class TestRandomSource:
    def test_known_stream_for_seed_zero(self):
        # reference output of splitmix64 for seed 0
        rng = RandomSource(0)
        assert [rng.next_uint64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_determinism(self):
        a, b = RandomSource(987654321), RandomSource(987654321)
        assert [a.next_uint64() for _ in range(100)] == [
            b.next_uint64() for _ in range(100)
        ]

    def test_seed_range(self):
        RandomSource(2**64 - 1)
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)

    def test_randbelow_range(self):
        rng = RandomSource(5)
        draws = [rng.randbelow(7) for _ in range(2000)]
        assert set(draws) == set(range(7))
        with pytest.raises(ValueError):
            rng.randbelow(0)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer$"):
            RandomSource(1.0)

    @pytest.mark.parametrize("bound", [0, -3, 2**64 + 1])
    def test_bound_out_of_range(self, bound):
        with pytest.raises(ValueError) as info:
            RandomSource(1).randbelow(bound)
        assert str(info.value) == f"bound must be in 1..2**64, got {bound}"

    @pytest.mark.parametrize("seed", EDGE_SEEDS, ids=hex)
    def test_stream_matches_scalar(self, seed):
        # 1000 words span more than three 256-word blocks
        rng, oracle = RandomSource(seed), splitmix64_by_scalar(seed)
        assert [rng.next_uint64() for _ in range(1000)] == [
            next(oracle) for _ in range(1000)
        ]

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**64 - 1))
    def test_stream_matches_scalar_for_any_seed(self, seed):
        rng, oracle = RandomSource(seed), splitmix64_by_scalar(seed)
        assert [rng.next_uint64() for _ in range(600)] == [
            next(oracle) for _ in range(600)
        ]

    @pytest.mark.parametrize(
        "bound",
        [1, 2, 3, 7, 2**5, 2**5 + 1, 2**32, 2**32 + 1, 2**63, 2**63 + 1, 2**64],
    )
    def test_randbelow_matches_scalar(self, bound):
        rng, oracle = RandomSource(31), splitmix64_by_scalar(31)
        assert [rng.randbelow(bound) for _ in range(600)] == [
            randbelow_by_scalar(oracle, bound) for _ in range(600)
        ]

    @pytest.mark.parametrize("length", [0, 1, 2, 25, 257, 4001])
    def test_shuffle_matches_randbelow_loop(self, length):
        # two shuffles per source, so the second starts mid-block; at 257
        # the first already crosses a block boundary
        rng, oracle = RandomSource(4242), splitmix64_by_scalar(4242)
        scalar = scalar_source(oracle)
        for _ in range(2):
            items, expected = list(range(length)), list(range(length))
            rng.shuffle(items)
            shuffle_by_randbelow(scalar, expected)
            assert items == expected

    def test_interleaved_calls_share_one_stream(self):
        rng, oracle = RandomSource(99), splitmix64_by_scalar(99)
        scalar = scalar_source(oracle)
        for length in (0, 1, 2, 25, 257, 30, 4001, 3):
            assert rng.next_uint64() == next(oracle)
            assert rng.randbelow(length + 5) == randbelow_by_scalar(oracle, length + 5)
            items, expected = list(range(length)), list(range(length))
            rng.shuffle(items)
            shuffle_by_randbelow(scalar, expected)
            assert items == expected
        assert [rng.next_uint64() for _ in range(300)] == [
            next(oracle) for _ in range(300)
        ]

    def test_shuffle_permutes(self):
        rng = RandomSource(11)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))


class TestSampleDyck:
    def test_trivial_sizes(self):
        rng = RandomSource(1)
        assert render_path(sample_dyck(0, rng)) == ""
        assert all(render_path(sample_dyck(1, rng)) == "UD" for _ in range(10))

    def test_every_draw_is_dyck(self):
        rng = RandomSource(2)
        for n in range(7):
            for _ in range(50):
                assert is_dyck(sample_dyck(n, rng))

    def test_negative_n(self):
        with pytest.raises(IndexOutOfRange):
            sample_dyck(-1, RandomSource(0))

    def test_frozen_stream(self):
        rng = RandomSource(0xC0FFEE)
        assert [render_path(sample_dyck(4, rng)) for _ in range(4)] == [
            "UUDDUDUD",
            "UUUUDDDD",
            "UUUUDDDD",
            "UUDUDUDD",
        ]


class TestSampleKNegative:
    def test_trivial_class(self):
        rng = RandomSource(3)
        assert all(
            render_path(sample_k_negative(1, 1, rng)) == "DU" for _ in range(10)
        )

    def test_zero_lift_matches_dyck_sampler(self):
        a, b = RandomSource(77), RandomSource(77)
        assert [sample_k_negative(5, 0, a) for _ in range(30)] == [
            sample_dyck(5, b) for _ in range(30)
        ]

    def test_negativity_exact_per_draw(self):
        rng = RandomSource(4)
        for n in range(6):
            for k in range(n + 1):
                for _ in range(20):
                    assert negativity(sample_k_negative(n, k, rng)) == k

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            sample_k_negative(3, 4, RandomSource(0))
        with pytest.raises(IndexOutOfRange):
            sample_k_negative(3, -1, RandomSource(0))

    def test_uniform_over_class(self):
        # |S_2| = C_3 = 5 paths for n = 3; 10000 draws, alpha = 0.001
        rng = RandomSource(1337)
        observed = Counter(
            render_path(sample_k_negative(3, 2, rng)) for _ in range(10000)
        )
        classes = [render_path(p) for p in paths_by_negativity(3)[2]]
        assert chi_square(observed, classes, 10000) < CHI2_4DF


class TestSampleBalanced:
    def test_trivial_sizes(self):
        rng = RandomSource(6)
        assert render_path(sample_balanced(0, rng)) == ""
        draws = Counter(render_path(sample_balanced(1, rng)) for _ in range(200))
        assert set(draws) == {"UD", "DU"}

    def test_balanced_per_draw(self):
        rng = RandomSource(8)
        for n in range(7):
            for _ in range(30):
                path = sample_balanced(n, rng)
                assert path.is_balanced and len(path) == 2 * n

    def test_negative_n(self):
        with pytest.raises(IndexOutOfRange):
            sample_balanced(-2, RandomSource(0))

    @pytest.mark.parametrize(
        "n,per_class,critical",
        [(30, 100, CHI2_30DF), (50, 60, CHI2_50DF)],
        ids=["n30", "n50"],
    )
    def test_negativity_uniform_past_the_enumeration_bound(
        self, n, per_class, critical
    ):
        # the theorem itself, statistically, at sizes enumeration cannot
        # reach and with no counting mechanism involved: the negativity of
        # a uniform balanced path is uniform on 0..n; alpha = 0.001
        rng = RandomSource(2004)
        draws = per_class * (n + 1)
        observed = Counter(negativity(sample_balanced(n, rng)) for _ in range(draws))
        assert chi_square(observed, range(n + 1), draws) < critical
