"""Scaling cases: each primitive of the package timed at 3-4 sizes.

Each size is timed as the median of repeated samples (a sample loops the
call until it has run for at least MIN_SAMPLE_S), and `<name>.exp` is the
least-squares slope of log(time) against log(size) through those medians,
so an O(L^2) -> O(L) change shows as a drop of about 1.  count_recurrence
and catalan memoize in module globals, so count_recurrence is timed cold:
one fresh process per size and repeat.

Inputs are built by the benchmark from the seed (random.Random), not by
the package's own sampler, except where a primitive needs a Dyck path,
which `_dyck` makes by the Cycle Lemma in a few lines.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections.abc import Callable

MIN_SAMPLE_S = 0.01
REPEATS = 5
SLOW_REPEATS = 3  # for sizes where one call takes longer than SLOW_CALL_S
SLOW_CALL_S = 0.05

COLD_COUNT_RECURRENCE = """\
import sys, time
from chungfeller import counting
n = int(sys.argv[1])
start = time.perf_counter()
counting.count_recurrence(n, 0)
print(time.perf_counter() - start)
"""


def median_time(call: Callable[[], object]) -> float:
    """Median seconds per call."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            call()
        first = time.perf_counter() - start
        if first >= MIN_SAMPLE_S:
            break
        loops = max(2 * loops, math.ceil(loops * MIN_SAMPLE_S / max(first, 1e-9)))
    repeats = SLOW_REPEATS if first / loops > SLOW_CALL_S else REPEATS
    samples = [first / loops]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples)


def slope(sizes, seconds) -> float:
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in seconds]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum((x - mean_x) ** 2 for x in xs)


def _terms(rng: random.Random, length: int, total: int) -> tuple[int, ...]:
    terms = [1] * ((length + total) // 2) + [-1] * ((length - total) // 2)
    rng.shuffle(terms)
    return tuple(terms)


def _dyck(rng: random.Random, n: int) -> tuple[int, ...]:
    """Uniform Dyck steps: rotate a sum-1 sequence past its last minimum, drop the first up."""
    terms = _terms(rng, 2 * n + 1, 1)
    height, low, cut = 0, 0, 0
    for position, term in enumerate(terms, start=1):
        height += term
        if height <= low:
            low, cut = height, position
    return (terms[cut:] + terms[:cut])[1:]


def run(seed: int, cold: Callable[[str, int], float]) -> dict[str, float]:
    """All scaling metrics; `cold(code, n)` runs `python -c code n` in a fresh process."""
    from chungfeller import bijection, counting, cycle, paths, sampler, series

    rng = random.Random(f"scaling/{seed}")
    metrics: dict[str, float] = {}

    def case(name: str, sizes, make_call, keep: bool = False) -> None:
        seconds = [median_time(make_call(size)) for size in sizes]
        metrics[f"{name}.exp"] = slope(sizes, seconds)
        if keep:
            metrics.update({f"{name}.s_{size}": value for size, value in zip(sizes, seconds)})

    balanced = {n: paths.LatticePath(_terms(rng, 2 * n, 0)) for n in (500, 1000, 2000, 4000)}
    case("paths.negativity", balanced, lambda n: lambda: paths.negativity(balanced[n]))
    case("paths.factor_primes", balanced, lambda n: lambda: paths.factor_primes(balanced[n]))

    for n in (8, 10):
        seconds = median_time(lambda: sum(1 for _ in counting.enumerate_balanced(n)))
        metrics[f"counting.enumerate_balanced.paths_per_s_{n}"] = math.comb(2 * n, n) / seconds

    sizes = (50, 100, 200)
    seconds = [statistics.median(cold(COLD_COUNT_RECURRENCE, n) for _ in range(SLOW_REPEATS)) for n in sizes]
    metrics.update({f"counting.count_recurrence.s_{n}": value for n, value in zip(sizes, seconds)})
    metrics["counting.count_recurrence.exp"] = slope(sizes, seconds)

    # the product geometric_inverse forms: the two-term prime series times a dense series
    orders = (15, 30, 45, 60)
    primes = {d: series.prime_series_pos(d) + series.prime_series_neg(d) for d in orders}
    dense = {d: series.BivariateSeries(d, tuple((1,) * (n + 1) for n in range(d + 1))) for d in orders}
    case("series.mul", orders, lambda d: lambda: primes[d] * dense[d])
    case("series.geometric_inverse", orders, lambda d: lambda: series.geometric_inverse(primes[d]), True)

    lengths = (501, 1001, 2001, 4001)
    unit = {length: cycle.CyclicSequence(_terms(rng, length, 1)) for length in lengths}
    case("cycle.canonical_rotation", lengths, lambda L: lambda: cycle.canonical_rotation(unit[L]), True)
    several = {length: cycle.CyclicSequence(_terms(rng, length, 5)) for length in lengths[1:]}
    case("cycle.dominating_shifts", lengths[1:], lambda L: lambda: cycle.dominating_shifts(several[L]))
    ranked = {length: cycle.CyclicSequence(_terms(rng, length, 1)) for length in (1001, 4001, 16001)}
    case("cycle.rank_order", ranked, lambda L: lambda: cycle.rank_order(ranked[L]))

    dyck = {n: paths.LatticePath(_dyck(rng, n)) for n in (125, 250, 500, 1000, 2000, 4000)}
    case("bijection.lift", (125, 250, 500), lambda n: lambda: bijection.lift(dyck[n], n // 2))
    case("bijection.phi_plus", (500, 1000, 2000, 4000), lambda n: lambda: bijection.phi_plus(dyck[n]))

    source = sampler.RandomSource(rng.getrandbits(64))
    items = {length: list(range(length)) for length in (1000, 2000, 4000, 8000)}
    case("sampler.shuffle", items, lambda L: lambda: source.shuffle(items[L]))
    bounds = range(2, 2002)
    per_round = median_time(lambda: [source.randbelow(bound) for bound in bounds])
    metrics["sampler.randbelow.ns_per_draw"] = per_round / len(bounds) * 1e9
    return metrics
