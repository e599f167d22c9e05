"""The negativity-raising/lowering maps and their factorizations."""

import pytest

from chungfeller import (
    DOWN,
    UP,
    IndexOutOfRange,
    NoNegativePrime,
    NoPositivePrime,
    NotDyckPath,
    enumerate_balanced,
    factor_last_negative_prime,
    factor_last_positive_prime,
    lift,
    negativity,
    parse_path,
    paths_by_negativity,
    phi_minus,
    phi_plus,
    render_path,
)


def _triple(f):
    return (render_path(f.prefix), render_path(f.inner), render_path(f.suffix))


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
        f = factor_last_positive_prime(parse_path(text))
        assert _triple(f) == expected
        assert f.reassemble() == parse_path(text)

    def test_no_positive_prime(self):
        with pytest.raises(NoPositivePrime):
            factor_last_positive_prime(parse_path("DDUU"))
        with pytest.raises(NoPositivePrime):
            factor_last_positive_prime(parse_path(""))


class TestNegativeFactorization:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("DUUD", ("", "", "UD")),
            ("UDDU", ("UD", "", "")),
        ],
    )
    def test_examples(self, text, expected):
        f = factor_last_negative_prime(parse_path(text))
        assert _triple(f) == expected
        assert f.reassemble() == parse_path(text)

    def test_no_negative_prime(self):
        with pytest.raises(NoNegativePrime):
            factor_last_negative_prime(parse_path("UUDD"))


def _is_negative_dyck(path):
    return 2 * negativity(path) == len(path)


@pytest.mark.parametrize("n", range(9))
def test_split_shapes(n):
    # forced by "last": after the last positive prime every prime is
    # negative, and after the last negative prime every prime is positive
    for path in enumerate_balanced(n):
        k = negativity(path)
        if k < n:
            f = factor_last_positive_prime(path)
            assert f.sign == UP
            assert negativity(f.inner) == 0
            assert _is_negative_dyck(f.suffix)
            assert f.reassemble() == path
        if k > 0:
            f = factor_last_negative_prime(path)
            assert f.sign == DOWN
            assert _is_negative_dyck(f.inner)
            assert negativity(f.suffix) == 0
            assert f.reassemble() == path


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
