"""Acceptance suite: the equidistribution theorem end to end.

Each test covers one acceptance criterion at full scale and prints one
PASS/FAIL line (visible with `pytest -s`).  All count comparisons are
exact; the sampler criteria use chi-square thresholds at significance
0.001.
"""

import time
from collections import Counter
from contextlib import contextmanager

from chungfeller import (
    canonical_rotation,
    catalan,
    central_binomial,
    cli,
    count_recurrence,
    dominating_shifts,
    is_dyck,
    n_series,
    negativity,
    nonpositive_count_at_rank,
    partition_by_negativity,
    phi_minus,
    phi_plus,
    rank_order,
    render_path,
    CyclicSequence,
    RandomSource,
    sample_balanced,
    sample_dyck,
    sample_k_negative,
)
from support import (
    all_pm1_sequences,
    chi_square,
    dominating_shifts_by_rotation,
    paths_by_negativity,
)

# 0.999 chi-square quantiles
CHI2_13DF = 34.53
CHI2_5DF = 20.52


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_equidistribution():
    with criterion("criterion 1 (equidistribution, n <= 9)"):
        for n in range(10):
            table = partition_by_negativity(n)
            assert all(table[k] == catalan(n) for k in range(n + 1))
            assert sum(table.values()) == central_binomial(n)
            assert (n + 1) * catalan(n) == central_binomial(n)


def test_criterion_2_recurrence_equals_brute_force():
    with criterion("criterion 2 (recurrence vs brute force, n <= 9)"):
        for n in range(10):
            table = partition_by_negativity(n)
            for k in range(n + 1):
                assert count_recurrence(n, k) == table[k]


def test_criterion_3_bijection_suite():
    with criterion("criterion 3 (bijection suite, n <= 8)"):
        for n in range(9):
            classes = paths_by_negativity(n)
            for k in range(n):
                images = [phi_plus(s) for s in classes[k]]
                assert len(set(images)) == len(images)
                assert set(images) == set(classes[k + 1])
                assert all(phi_minus(phi_plus(s)) == s for s in classes[k])
                assert all(
                    phi_plus(phi_minus(sigma)) == sigma for sigma in classes[k + 1]
                )


def test_criterion_4_series_identity():
    with criterion("criterion 4 (series coefficients, n <= 30)"):
        order = 30
        table = n_series(order)
        for n in range(order + 1):
            for k in range(n + 1):
                assert table.coefficient(n, k) == catalan(n)
        for n in range(10):
            counts = partition_by_negativity(n)
            for k in range(n + 1):
                assert table.coefficient(n, k) == counts[k]


def test_criterion_5_cycle_lemma():
    with criterion("criterion 5 (cycle lemma, L <= 15)"):
        for length in range(1, 16):
            for terms in all_pm1_sequences(length):
                k = sum(terms)
                if k < 1:
                    continue
                seq = CyclicSequence(terms)
                shifts = dominating_shifts(seq)
                oracle = dominating_shifts_by_rotation(terms)
                assert shifts == oracle
                assert len(oracle) == k
                if k == 1:
                    shift, _ = canonical_rotation(seq)
                    assert shifts == (shift,)
                    ranks = rank_order(seq)
                    assert shift == ranks[0] % length
                    for i in range(length + 1):
                        assert nonpositive_count_at_rank(seq, i) == i + 1


def test_criterion_6a_dyck_sampler_uniform():
    with criterion("criterion 6a (Dyck sampler chi-square, n = 4)"):
        rng = RandomSource(20260811)
        draws = 14000
        observed = Counter()
        for _ in range(draws):
            path = sample_dyck(4, rng)
            assert is_dyck(path) and len(path) == 8
            observed[render_path(path)] += 1
        classes = [render_path(p) for p in paths_by_negativity(4)[0]]
        assert len(classes) == 14
        assert chi_square(observed, classes, draws) < CHI2_13DF


def test_criterion_6b_balanced_sampler_negativity_uniform():
    with criterion("criterion 6b (balanced sampler negativity chi-square, n = 5)"):
        rng = RandomSource(424242)
        draws = 22000
        observed = Counter()
        for _ in range(draws):
            path = sample_balanced(5, rng)
            assert path.is_balanced and len(path) == 10
            observed[negativity(path)] += 1
        assert chi_square(observed, list(range(6)), draws) < CHI2_5DF


def test_criterion_6c_class_checks_on_every_draw():
    with criterion("criterion 6c (class check per draw)"):
        rng = RandomSource(5150)
        for n in range(6):
            for k in range(n + 1):
                for _ in range(25):
                    assert negativity(sample_k_negative(n, k, rng)) == k


def test_criterion_7_cli_contract(capsys):
    with criterion("criterion 7 (CLI contract)"):
        assert cli.run(["verify", "--max-n", "8"]) == 0
        capsys.readouterr()

        assert cli.run(["count", "--n", "3"]) == 0
        assert capsys.readouterr().out == "0\t5\n1\t5\n2\t5\n3\t5\n"

        assert cli.run(["phi", "--dir", "up", "--path", "UUDD"]) == 0
        assert capsys.readouterr().out == "DUUD\t1\n"

        assert cli.run(["phi", "--dir", "down", "--path", "UDUD"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no negative prime" in captured.err
