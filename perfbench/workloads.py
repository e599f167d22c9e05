"""Seeded command lists for the four workloads.

A workload is one *round*: a fixed mix of command sizes whose order,
output formats, sampler seeds and cycle sequences are drawn from the
workload seed.  run.py repeats the round until its time is
up, so every seed asks for the same amount of work per round while the
program sees different inputs.  Each command carries the work it completes
(in the workload's unit) and the oracle check for its output.

    verify        balanced paths classified, sum of C(2m, m)
    tables        coefficients emitted
    sample-large  +-1 steps emitted (sample) or analysed (cycle)
    sample-small  +-1 steps emitted
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from math import comb

import oracle


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, the work it completes and its output check."""

    args: tuple[str, ...]
    work: int
    check: Callable[[str], None]


def _cli(work: int, fmt: str, check, *args: str, **expect) -> Command:
    return Command((*args, "--format", fmt), work, partial(check, fmt=fmt, **expect))


def _formats(rng: random.Random, count: int) -> list[str]:
    """Half text, half json, in seeded positions."""
    formats = ["text", "json"] * (count // 2) + ["text"] * (count % 2)
    rng.shuffle(formats)
    return formats


def _shuffled(rng: random.Random, commands: list[Command]) -> list[Command]:
    rng.shuffle(commands)
    return commands


def _verify(rng: random.Random) -> list[Command]:
    # enumeration-bound: millions of LatticePath constructions and
    # negativity calls; the control workload for series, recurrence,
    # cycle and bijection changes
    sizes = [("verify", 10), ("count", 10)] + [("verify", 9), ("count", 9), ("verify", 8), ("count", 8)] * 2
    commands = []
    for (kind, m), fmt in zip(sizes, _formats(rng, len(sizes))):
        if kind == "verify":
            work = sum(comb(2 * j, j) for j in range(m + 1))
            commands.append(_cli(work, fmt, oracle.check_verify, "verify", "--max-n", str(m), n=m))
        else:
            work = comb(2 * m, m)
            commands.append(_cli(work, fmt, oracle.check_counts, "count", "--n", str(m), "--brute-force", n=m))
    return _shuffled(rng, commands)


def _tables(rng: random.Random) -> list[Command]:
    # exact big-integer arithmetic in count_recurrence and the series
    # product and inverse, plus tens of KB of formatting; every size runs
    # in both formats so the seed does not change the text/json mix, and
    # the two count --n 150 sit in the middle of the round's times, so
    # the median does not fall in the gap between light and heavy commands
    commands = []
    for fmt in ("text", "json"):
        for n in (180, 150, 100):
            commands.append(_cli(n + 1, fmt, oracle.check_counts, "count", "--n", str(n), n=n))
        for order in (60, 30):
            work = (order + 1) * (order + 2) // 2
            commands.append(_cli(work, fmt, oracle.check_series, "series", "--order", str(order), n=order))
    return _shuffled(rng, commands)


def _spread(n: int, parts: int) -> list[int]:
    """The middle k of each of `parts` equal slices of 0..n.

    A class draw costs about n*k, so k is not drawn from the seed: every
    seed then asks for the same work.
    """
    return [round((i + 0.5) * n / parts) for i in range(parts)]


def _sample(rng: random.Random, fmt: str, n: int, k: int | None, count: int) -> Command:
    args = ["sample", "--n", str(n)]
    if k is not None:
        args += ["--k", str(k)]
    args += ["--count", str(count), "--seed", str(rng.getrandbits(64))]
    return _cli(2 * n * count, fmt, oracle.check_paths, *args, n=n, k=k or 0, count=count)


def _cycle(rng: random.Random, fmt: str, length: int, k: int) -> Command:
    terms = ["+"] * ((length + k) // 2) + ["-"] * ((length - k) // 2)
    rng.shuffle(terms)
    seq = "".join(terms)
    return _cli(length, fmt, oracle.check_cycle, "cycle", f"--seq={seq}", seq=seq)


def _sample_large(rng: random.Random) -> list[Command]:
    # the quadratic code: canonical_rotation in every Dyck draw, lift's
    # k-fold phi_plus in every class draw, dominating_shifts in cycle
    specs = [("dyck", 2000, None, 3), ("dyck", 1500, None, 3), ("dyck", 1000, None, 4)]
    specs += [("class", 500, k, 3) for k in _spread(500, 4)]
    specs += [("class", 300, k, 3) for k in _spread(300, 2)]
    specs += [("cycle", 4001, 2 * rng.randrange(1, 16) + 1, 0) for _ in range(2)]
    specs += [("cycle", 3001, 2 * rng.randrange(1, 16) + 1, 0)]
    commands = []
    for (kind, n, k, count), fmt in zip(specs, _formats(rng, len(specs))):
        if kind == "cycle":
            commands.append(_cycle(rng, fmt, n, k))
        else:
            commands.append(_sample(rng, fmt, n, k, count))
    return _shuffled(rng, commands)


def _sample_small(rng: random.Random) -> list[Command]:
    # thousands of tiny draws: per-call object construction, validation
    # and splitmix64 words dominate
    specs = []
    for n in (8, 10, 12):
        specs += [(n, None)] + [(n, k) for k in _spread(n, 3)]
    formats = _formats(rng, len(specs))
    return _shuffled(rng, [_sample(rng, fmt, n, k, 2000) for (n, k), fmt in zip(specs, formats)])


ROUNDS: dict[str, Callable[[random.Random], list[Command]]] = {
    "verify": _verify,
    "tables": _tables,
    "sample-large": _sample_large,
    "sample-small": _sample_small,
}


def round_for(workload: str, seed: int) -> list[Command]:
    """The workload's command list for this seed; the same seed gives the same list."""
    return ROUNDS[workload](random.Random(f"{workload}/{seed}"))


def idle_commands(seed: int, count: int) -> list[Command]:
    """Commands that do no work: they time interpreter start, import and argparse."""
    rng = random.Random(f"idle/{seed}")
    kinds = [
        lambda: _cli(1, "text", oracle.check_counts, "count", "--n", "0", n=0),
        lambda: _cli(1, "text", oracle.check_series, "series", "--order", "0", n=0),
        lambda: _cli(1, "text", oracle.check_verify, "verify", "--max-n", "0", n=0),
        lambda: _sample(rng, "text", 0, None, 1),
    ]
    return [kinds[i % len(kinds)]() for i in range(count)]
