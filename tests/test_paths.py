"""Path primitives: parsing, heights, negativity, prime factorization."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chungfeller.bijection import lift, phi_minus, phi_plus
from chungfeller.counting import count_recurrence, enumerate_balanced
from chungfeller.cycle import CyclicSequence
from chungfeller.errors import IndexOutOfRange, InvalidCharacter, NotBalanced
from chungfeller.paths import (
    DOWN,
    UP,
    LatticePath,
    check_class,
    factor_primes,
    is_dyck,
    negativity,
    parse_path,
    render_path,
)
from chungfeller.sampler import (
    RandomSource,
    sample_balanced,
    sample_dyck,
    sample_k_negative,
)
from chungfeller.series import BivariateSeries
from support import heights

ud_text = st.text(alphabet="UD", max_size=16)


def _below_axis_steps(text):
    # independent classifier: step i is below iff h(i-1) + h(i) < 0
    h = [0]
    for char in text:
        h.append(h[-1] + (1 if char == "U" else -1))
    return [i for i in range(1, len(text) + 1) if h[i - 1] + h[i] < 0]


class TestParseRender:
    def test_empty(self):
        assert parse_path("") == LatticePath()
        assert render_path(LatticePath()) == ""

    def test_uudd(self):
        assert parse_path("UUDD").steps == (UP, UP, DOWN, DOWN)

    def test_invalid_character_position(self):
        with pytest.raises(InvalidCharacter) as info:
            parse_path("UXDD")
        assert info.value.position == 1

    def test_lowercase_rejected(self):
        with pytest.raises(InvalidCharacter):
            parse_path("ud")

    @given(ud_text)
    def test_round_trip(self, text):
        assert render_path(parse_path(text)) == text

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            LatticePath((1, 2))


# (make, field, repr, str)
_VALUES = {
    "LatticePath": (
        lambda: LatticePath((1, -1)),
        "steps",
        "LatticePath(steps=(1, -1))",
        "UD",
    ),
    "CyclicSequence": (
        lambda: CyclicSequence((1, -1)),
        "terms",
        "CyclicSequence(terms=(1, -1))",
        "+-",
    ),
    "BivariateSeries": (
        lambda: BivariateSeries(1, ((1,), (0, 2))),
        "coeffs",
        "BivariateSeries(order=1, coeffs=((1,), (0, 2)))",
        "BivariateSeries(order=1, coeffs=((1,), (0, 2)))",
    ),
}


@pytest.mark.parametrize("name", _VALUES)
def test_value_type_contract(name):
    make, field, text, string = _VALUES[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert make() == value
    assert hash(make()) == hash(value)
    # equal fields do not make values of different classes equal, as
    # LatticePath((1, -1)) != CyclicSequence((1, -1))
    assert all(value != other() for other, *_ in _VALUES.values() if other is not make)
    assert repr(value) == text
    assert str(value) == string
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


class TestHeights:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("UUDD", [0, 1, 2, 1, 0]),
            ("DUUD", [0, -1, 0, 1, 0]),
            ("", [0]),
        ],
    )
    def test_examples(self, text, expected):
        assert heights(parse_path(text)) == expected


class TestNegativity:
    @pytest.mark.parametrize("text,expected", [("UUDD", 0), ("DUUD", 1), ("DDUU", 2)])
    def test_examples(self, text, expected):
        assert negativity(parse_path(text)) == expected
        assert len(_below_axis_steps(text)) == 2 * expected

    def test_not_balanced(self):
        with pytest.raises(NotBalanced, match="^path has 2 up and 1 down steps$"):
            negativity(parse_path("UUD"))

    @given(ud_text)
    def test_matches_classifier_on_balanced(self, text):
        path = parse_path(text)
        if path.is_balanced:
            assert 2 * negativity(path) == len(_below_axis_steps(text))


def _primes(path):
    # (sign, body) of each prime, read off the ends factor_primes returns
    ends = factor_primes(path)
    starts = (0,) + ends[:-1]
    return [(path.steps[a], LatticePath(path.steps[a:b])) for a, b in zip(starts, ends)]


class TestFactorPrimes:
    def test_mixed(self):
        path = parse_path("UDDU")
        assert factor_primes(path) == (2, 4)
        assert [(sign, render_path(body)) for sign, body in _primes(path)] == [
            (UP, "UD"),
            (DOWN, "DU"),
        ]

    def test_single_excursion(self):
        path = parse_path("UUDD")
        assert factor_primes(path) == (4,)
        assert [(sign, render_path(body)) for sign, body in _primes(path)] == [
            (UP, "UUDD")
        ]

    def test_empty(self):
        assert factor_primes(LatticePath()) == ()

    def test_not_balanced(self):
        with pytest.raises(NotBalanced, match="^path has 1 up and 0 down steps$"):
            factor_primes(parse_path("U"))


class TestIsDyck:
    @pytest.mark.parametrize(
        "text,expected", [("UDUD", True), ("DU", False), ("UUD", False), ("", True)]
    )
    def test_examples(self, text, expected):
        assert is_dyck(parse_path(text)) is expected


class TestPathClass:
    def test_invalid(self):
        with pytest.raises(ValueError):
            check_class(2, 3)

    @pytest.mark.parametrize(
        "make",
        [
            check_class,
            count_recurrence,
            lambda n, k: sample_k_negative(n, k, RandomSource(0)),
        ],
        ids=["check_class", "count_recurrence", "sample_k_negative"],
    )
    @pytest.mark.parametrize("n,k", [(2, 3), (2, -1), (-1, 0)])
    def test_invalid_is_one_domain_error(self, make, n, k):
        # one check for the class rule: the same error and message everywhere
        with pytest.raises(IndexOutOfRange) as raised:
            make(n, k)
        assert str(raised.value) == f"require 0 <= k <= n, got n={n}, k={k}"


@pytest.mark.parametrize(
    "make",
    [
        enumerate_balanced,
        lambda n: sample_dyck(n, RandomSource(0)),
        lambda n: sample_balanced(n, RandomSource(0)),
    ],
    ids=["enumerate_balanced", "sample_dyck", "sample_balanced"],
)
@pytest.mark.parametrize("n", [-1, -7])
def test_negative_half_length_is_one_domain_error(make, n):
    # one check for the half-length rule: the same error and message everywhere
    with pytest.raises(IndexOutOfRange) as raised:
        make(n)
    assert str(raised.value) == f"half-length must be nonnegative, got {n}"


@pytest.mark.parametrize("n", range(9))
def test_exhaustive_invariants(n):
    # below-axis count even; prime ends are exactly the returns to height
    # 0; negativity is the total half-length of the negative primes
    for path in enumerate_balanced(n):
        below = _below_axis_steps(render_path(path))
        assert len(below) % 2 == 0
        hs = heights(path)
        assert factor_primes(path) == tuple(i for i in range(1, len(hs)) if hs[i] == 0)
        primes = _primes(path)
        neg_prime_halves = sum(body.half_length for sign, body in primes if sign == DOWN)
        assert negativity(path) == neg_prime_halves
        # each prime stays strictly on the side of its first step between
        # its endpoints
        for sign, body in primes:
            internal = heights(body)[1:-1]
            if sign == UP:
                assert all(h > 0 for h in internal)
            else:
                assert all(h < 0 for h in internal)


def test_up_steps_below_axis_equals_negativity():
    # the "up-steps starting below the axis" statistic agrees with half
    # the below-axis step count on every balanced path
    for n in range(9):
        for path in enumerate_balanced(n):
            hs = heights(path)
            ups_below = sum(
                1
                for i, step in enumerate(path.steps)
                if step == UP and hs[i] <= -1
            )
            assert ups_below == negativity(path)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 500).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.integers(0, 2**64 - 1),
)
def test_invariants_past_the_enumeration_bound(n_k, seed):
    # lifted uniform Dyck paths with n up to 500, far past enumeration
    n, k = n_k
    path = lift(sample_dyck(n, RandomSource(seed)), k)
    assert len(_below_axis_steps(render_path(path))) == 2 * negativity(path) == 2 * k
    if k < n:
        assert phi_minus(phi_plus(path)) == path
    if k > 0:
        assert phi_plus(phi_minus(path)) == path
