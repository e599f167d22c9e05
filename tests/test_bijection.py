"""The negativity-raising/lowering maps and their factorizations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chungfeller import (
    DOWN,
    UP,
    IndexOutOfRange,
    LatticePath,
    NoNegativePrime,
    NoPositivePrime,
    NotDyckPath,
    RandomSource,
    bijection,
    enumerate_balanced,
    is_dyck,
    lift,
    negativity,
    parse_path,
    phi_minus,
    phi_plus,
    render_path,
    sample_dyck,
)
from support import factor_last_prime, lift_by_phi_plus, paths_by_negativity


def _triple(f):
    return tuple(render_path(piece) for piece in f[1:])


def _reassemble(f):
    sign, prefix, inner, suffix = f
    return LatticePath(prefix.steps + (sign,) + inner.steps + (-sign,) + suffix.steps)


class TestPositiveFactorization:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("UUDD", ("", "UD", "")),
            ("UDUD", ("UD", "", "")),
            ("UDDU", ("", "", "DU")),
        ],
    )
    def test_examples(self, text, expected):
        f = factor_last_prime(parse_path(text), UP)
        assert _triple(f) == expected
        assert _reassemble(f) == parse_path(text)

    def test_no_positive_prime(self):
        with pytest.raises(NoPositivePrime):
            factor_last_prime(parse_path("DDUU"), UP)
        with pytest.raises(NoPositivePrime):
            factor_last_prime(parse_path(""), UP)


class TestNegativeFactorization:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("DUUD", ("", "", "UD")),
            ("UDDU", ("UD", "", "")),
        ],
    )
    def test_examples(self, text, expected):
        f = factor_last_prime(parse_path(text), DOWN)
        assert _triple(f) == expected
        assert _reassemble(f) == parse_path(text)

    def test_no_negative_prime(self):
        with pytest.raises(NoNegativePrime):
            factor_last_prime(parse_path("UUDD"), DOWN)


def _is_negative_dyck(path):
    return 2 * negativity(path) == len(path)


@pytest.mark.parametrize("n", range(9))
def test_split_shapes(n):
    # forced by "last": after the last positive prime every prime is
    # negative, and after the last negative prime every prime is positive
    for path in enumerate_balanced(n):
        k = negativity(path)
        if k < n:
            f = sign, _, inner, suffix = factor_last_prime(path, UP)
            assert sign == UP
            assert negativity(inner) == 0
            assert _is_negative_dyck(suffix)
            assert _reassemble(f) == path
        if k > 0:
            f = sign, _, inner, suffix = factor_last_prime(path, DOWN)
            assert sign == DOWN
            assert _is_negative_dyck(inner)
            assert negativity(suffix) == 0
            assert _reassemble(f) == path


class TestPhiMaps:
    @pytest.mark.parametrize(
        "source,image",
        [
            ("UUDD", "DUUD"),
            ("UDUD", "UDDU"),
            ("DUUD", "DUDU"),
        ],
    )
    def test_phi_plus_examples(self, source, image):
        s = parse_path(source)
        out = phi_plus(s)
        assert render_path(out) == image
        assert negativity(out) == negativity(s) + 1
        assert phi_minus(out) == s

    @pytest.mark.parametrize(
        "source,image",
        [
            ("DUUD", "UUDD"),
            ("UDDU", "UDUD"),
        ],
    )
    def test_phi_minus_examples(self, source, image):
        out = phi_minus(parse_path(source))
        assert render_path(out) == image

    def test_phi_plus_at_top(self):
        with pytest.raises(NoPositivePrime):
            phi_plus(parse_path("DDUU"))

    def test_phi_minus_at_bottom(self):
        with pytest.raises(NoNegativePrime):
            phi_minus(parse_path("UDUD"))


class TestLift:
    def test_identity(self):
        assert lift(parse_path("UUDD"), 0) == parse_path("UUDD")

    def test_single(self):
        assert render_path(lift(parse_path("UUDD"), 1)) == "DUUD"

    def test_double(self):
        lifted = lift(parse_path("UDUD"), 2)
        assert render_path(lifted) == "DDUU"
        assert negativity(lifted) == 2
        assert phi_minus(phi_minus(lifted)) == parse_path("UDUD")

    def test_rejects_non_dyck(self):
        with pytest.raises(NotDyckPath):
            lift(parse_path("DU"), 1)

    def test_rejects_bad_k(self):
        with pytest.raises(IndexOutOfRange, match=r"^require 0 <= k <= n, got n=1, k=2$"):
            lift(parse_path("UD"), 2)
        with pytest.raises(IndexOutOfRange, match=r"^require 0 <= k <= n, got n=1, k=-1$"):
            lift(parse_path("UD"), -1)


@pytest.mark.parametrize("n", range(7))
def test_exhaustive_bijection(n):
    classes = paths_by_negativity(n)
    for k in range(n):
        images = [phi_plus(s) for s in classes[k]]
        assert all(negativity(sigma) == k + 1 for sigma in images)
        assert len(set(images)) == len(images)
        assert set(images) == set(classes[k + 1])
        assert all(phi_minus(phi_plus(s)) == s for s in classes[k])
        assert all(phi_plus(phi_minus(sigma)) == sigma for sigma in classes[k + 1])


@pytest.mark.parametrize("n", range(7))
def test_lift_is_bijection_onto_each_class(n):
    classes = paths_by_negativity(n)
    for k in range(n + 1):
        lifted = [lift(s, k) for s in classes[0]]
        assert len(set(lifted)) == len(lifted)
        assert set(lifted) == set(classes[k])


@pytest.mark.parametrize("n", range(9))
def test_lift_matches_phi_plus_loop_exhaustive(n):
    for path in enumerate_balanced(n):
        if is_dyck(path):
            for k in range(n + 1):
                assert lift(path, k) == lift_by_phi_plus(path, k)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 500).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.integers(0, 2**64 - 1),
)
def test_lift_matches_phi_plus_loop_past_the_enumeration_bound(n_k, seed):
    n, k = n_k
    path = sample_dyck(n, RandomSource(seed))
    assert lift(path, k) == lift_by_phi_plus(path, k)


def test_lift_routes_through_neither_phi_plus_nor_factor_primes(monkeypatch):
    path = sample_dyck(60, RandomSource(6))
    expected = [lift_by_phi_plus(path, k) for k in range(61)]

    def forbidden(*_):
        raise AssertionError("lift must not call this")

    monkeypatch.setattr(bijection, "phi_plus", forbidden)
    monkeypatch.setattr(bijection, "factor_primes", forbidden)
    assert [lift(path, k) for k in range(61)] == expected


def test_lift_closed_forms_far_past_the_enumeration_bound():
    # lifting U^n D^n descends n levels and lifting (UD)^n writes one
    # forest of n - 1 primes, so lift may neither recurse nor rescan; the
    # k-fold phi_plus loop would take minutes at n = 20,000, and a lift
    # quadratic in the depth at 200,000
    for n, lifted in ((6, lift_by_phi_plus), (20_000, lift), (200_000, lift)):
        assert lifted(parse_path("UD" * n), n) == parse_path("D" * n + "U" * n)
        assert lifted(parse_path("U" * n + "D" * n), n) == parse_path("DU" * n)


def _deep(n, k):
    # lift(U^n D^n, k): the k innermost pairs open into D (UD)^(k-1) U,
    # around which the n - k unopened ones stay nested
    return parse_path("D" + "UD" * (k - 1) + "U" * (n - k + 1) + "D" * (n - k))


def _wide(n, k):
    # lift((UD)^n, k): the last k primes open, the first n - k stay
    return parse_path("UD" * (n - k) + "D" * k + "U" * k)


@pytest.mark.parametrize("n", range(1, 10))
def test_lift_closed_forms_at_every_k(n):
    for k in range(1, n + 1):
        for lifted in (lift, lift_by_phi_plus):
            assert lifted(parse_path("U" * n + "D" * n), k) == _deep(n, k)
            assert lifted(parse_path("UD" * n), k) == _wide(n, k)


@pytest.mark.parametrize(
    "n,k", [(20_000, 1), (20_000, 10_000), (20_000, 19_999), (200_000, 100_000)]
)
def test_lift_closed_forms_cut_far_past_the_enumeration_bound(n, k):
    # deeper than any recursion limit, with opened and unopened pairs
    # on both sides of the cut
    assert lift(parse_path("U" * n + "D" * n), k) == _deep(n, k)
    assert lift(parse_path("UD" * n), k) == _wide(n, k)
