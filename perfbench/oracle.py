"""Independent checks of chungfeller CLI output.

Nothing here imports chungfeller.  Counts, series coefficients and verify
lines are checked against the closed form C(2n, n) / (n + 1); sampled
paths against a negativity computed by the midpoint rule below; Cycle
Lemma shifts by rotating the sequence and summing.  Every check raises
Mismatch with a one-line reason.
"""

from __future__ import annotations

import json
from itertools import accumulate
from math import comb


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def negativity(path: str) -> int:
    """Half the number of steps from height a to b with a + b < 0."""
    below = 0
    height = 0
    for char in path:
        previous = height
        height += 1 if char == "U" else -1
        if previous + height < 0:
            below += 1
    return below // 2


def _expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def _json(out: str) -> dict:
    _expect(out.endswith("\n") and out.count("\n") == 1, "json output is not one line")
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Mismatch(f"json output does not parse: {exc}") from None


def check_counts(out: str, *, fmt: str, n: int) -> None:
    """`count --n n`: every class (n, 0..n) has C_n paths."""
    want = catalan(n)
    if fmt == "json":
        got = _json(out)
        _expect(got == {"counts": {str(k): want for k in range(n + 1)}}, f"count n={n} wrong")
    else:
        _expect(out == "".join(f"{k}\t{want}\n" for k in range(n + 1)), f"count n={n} wrong")


def check_verify(out: str, *, fmt: str, n: int) -> None:
    """`verify --max-n n`: one PASS per half-length 0..n."""
    if fmt == "json":
        got = _json(out)
        _expect(got == {"results": [{"n": m, "pass": True} for m in range(n + 1)]}, "verify not all PASS")
    else:
        _expect(out == "".join(f"{m}\tPASS\n" for m in range(n + 1)), "verify not all PASS")


def check_series(out: str, *, fmt: str, n: int) -> None:
    """`series --order n`: the coefficient of t^k x^m is C_m for k <= m <= n."""
    terms = [[m, k, catalan(m)] for m in range(n + 1) for k in range(m + 1)]
    if fmt == "json":
        _expect(_json(out) == {"terms": terms}, f"series order={n} wrong")
    else:
        _expect(out == "".join(f"{m}\t{k}\t{c}\n" for m, k, c in terms), f"series order={n} wrong")


def check_paths(out: str, *, fmt: str, n: int, k: int, count: int) -> None:
    """`sample`: `count` U/D strings of length 2n, balanced, with negativity k."""
    if fmt == "json":
        paths = _json(out).get("paths")
        _expect(isinstance(paths, list), "json output has no path list")
    else:
        _expect(out.endswith("\n") or count == 0, "text output not newline-terminated")
        paths = out.split("\n")[:-1]
    _expect(len(paths) == count, f"{len(paths)} paths, expected {count}")
    for path in paths:
        _expect(
            isinstance(path, str)
            and len(path) == 2 * n
            and set(path) <= {"U", "D"}
            and path.count("U") == n,
            f"not a balanced path of length {2 * n}: {str(path)[:40]!r}",
        )
        _expect(negativity(path) == k, f"path has negativity {negativity(path)}, expected {k}")


def check_cycle(out: str, *, fmt: str, seq: str) -> None:
    """`cycle --seq` with sum k > 1: sums, rank order and the k dominating shifts."""
    terms = [1 if char == "+" else -1 for char in seq]
    k = sum(terms)
    if fmt == "json":
        got = _json(out)
    else:
        lines = [line.split("\t") for line in out.split("\n")[:-1]]
        _expect([line[0] for line in lines] == ["sums", "ranks", "dominating"], "unexpected cycle lines")
        got = {label: [int(v) for v in values.split()] for label, values in lines}
    _expect(set(got) == {"sums", "ranks", "dominating"}, "unexpected cycle fields")
    sums = list(accumulate(terms, initial=0))
    _expect(got["sums"] == sums, "partial sums wrong")
    ranks = got["ranks"]
    _expect(sorted(ranks) == list(range(len(terms) + 1)), "ranks are not a permutation of 0..L")
    keys = [(sums[p], -p) for p in ranks]
    _expect(all(a < b for a, b in zip(keys, keys[1:])), "ranks out of order")
    shifts = got["dominating"]
    _expect(len(set(shifts)) == len(shifts) == k, f"{len(shifts)} dominating shifts, expected {k}")
    for j in shifts:
        _expect(0 <= j < len(terms), f"shift {j} out of range")
        _expect(min(accumulate(terms[j:] + terms[:j])) >= 1, f"shift {j} is not dominating")


def check_seconds(out: str) -> None:
    """A cold scaling case: one positive float, the seconds it measured."""
    try:
        seconds = float(out)
    except ValueError:
        raise Mismatch(f"not a time: {out[:40]!r}") from None
    _expect(seconds > 0, f"nonpositive time {seconds}")
