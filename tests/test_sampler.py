"""Seeded generator and the uniform path samplers."""

from collections import Counter

import pytest

from chungfeller import (
    IndexOutOfRange,
    RandomSource,
    is_dyck,
    negativity,
    paths_by_negativity,
    render_path,
    sample_balanced,
    sample_dyck,
    sample_k_negative,
)
from support import chi_square

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
