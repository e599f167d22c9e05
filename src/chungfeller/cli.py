"""Command-line front end.

Subcommands: count, verify, phi, cycle, series, sample.  Text output is
one line per row, fields joined by TAB (_emit alone writes it); --format
json emits the same content as JSON.  Text rows go out _CHUNK per write.
Only count and verify build their rows first, at most n + 1 each; the
other commands pass rows and JSON lists as iterators, written as they
are made, and cycle joins each list's text a chunk at a time.  Each
handler imports the mechanism modules it uses, so a command loads only
its own.  Exit codes: 0 success, 1 domain error (one-line diagnostic on
stderr, written by run alone), 2 usage error.  verify also exits 1 when
a mechanism disagrees, but then every row is on stdout, the failing n
marked FAIL, and stderr stays empty.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice

from .errors import ChungFellerError, NoNegativePrime, NoPositivePrime

# rows per write to stdout
_CHUNK = 256


def _integer(low: int, high: int | None = None):
    """argparse type: an int in low..high, or at least low when high is None."""
    bounds = f">= {low}" if high is None else f"in {low}..{high}"

    def integer(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    return integer


def _chunks(items: Iterable) -> Iterator[list]:
    """items in lists of _CHUNK, the last one shorter."""
    items = iter(items)
    while chunk := list(islice(items, _CHUNK)):
        yield chunk


def _emit(args: argparse.Namespace, rows: Iterable[Iterable], payload: dict) -> None:
    # rows go out _CHUNK per write while they are still being made: one
    # write per line costs a syscall each when stdout is unbuffered, one
    # write for all of them holds every row
    write = sys.stdout.write
    if args.format == "text":
        for chunk in _chunks(rows):
            write("".join("\t".join(map(str, row)) + "\n" for row in chunk))
        return
    # imported here: text output, the default, never pays for json
    import json

    # the bytes of print(json.dumps(payload)), but a value that is an
    # iterator is written as a list a chunk at a time, never held whole
    pending = "{"
    for i, (key, value) in enumerate(payload.items()):
        pending += (", " if i else "") + json.dumps(key) + ": "
        if not isinstance(value, Iterator):
            pending += json.dumps(value)
            continue
        pending += "["
        for j, chunk in enumerate(_chunks(value)):
            # a chunk's items are the dumped chunk without its brackets
            write(pending + (", " if j else "") + json.dumps(chunk)[1:-1])
            pending = ""
        pending += "]"
    write(pending + "}\n")


def _cmd_count(args: argparse.Namespace) -> int:
    from . import counting

    # enumerate first: past the bound this fails before the recurrence runs
    oracle = counting.partition_by_negativity(args.n) if args.brute_force else None
    counts = {k: counting.count_recurrence(args.n, k) for k in range(args.n + 1)}
    if oracle is not None and oracle != counts:
        raise ChungFellerError(f"recurrence disagrees with brute force at n={args.n}")
    _emit(args, counts.items(), {"counts": {str(k): v for k, v in counts.items()}})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import counting, series

    # largest n first: past the bound the classifier itself refuses, before
    # the series, the recurrence and the smaller n are computed
    brute = {n: counting.partition_by_negativity(n) for n in range(args.max_n, -1, -1)}
    table_series = series.n_series(args.max_n)
    results = []
    for n in range(args.max_n + 1):
        reference = counting.catalan(n)
        total = counting.central_binomial(n)
        ok = (
            reference == total // (n + 1)
            and sum(brute[n].values()) == total
            and all(
                brute[n][k] == reference
                and counting.count_recurrence(n, k) == reference
                and table_series.coefficient(n, k) == reference
                for k in range(n + 1)
            )
        )
        results.append((n, ok))
    _emit(
        args,
        ((n, "PASS" if ok else "FAIL") for n, ok in results),
        {"results": [{"n": n, "pass": ok} for n, ok in results]},
    )
    return 0 if all(ok for _, ok in results) else 1


def _cmd_phi(args: argparse.Namespace) -> int:
    from .bijection import phi_minus, phi_plus
    from .paths import negativity, parse_path, render_path

    apply_map = phi_plus if args.dir == "up" else phi_minus
    error = None
    done = 0  # applications that succeeded

    def steps(current):
        nonlocal error, done
        while done < args.times:
            try:
                current = apply_map(current)
            except (NoPositivePrime, NoNegativePrime) as exc:
                error = exc
                return
            done += 1
            yield render_path(current), negativity(current)

    rows = steps(parse_path(args.path))  # parsed now: a bad path writes nothing
    _emit(args, rows, {"steps": ({"path": p, "negativity": k} for p, k in rows)})
    if error is not None:
        raise ChungFellerError(f"{error} ({done} of {args.times} applications succeeded)")
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    from . import cycle

    seq = cycle.parse_sequence(args.seq)
    lists = {"sums": cycle.partial_sums(seq), "ranks": cycle.rank_order(seq)}
    if seq.total > 0:
        lists["dominating"] = cycle.dominating_shifts(seq)
    payload: dict = {key: iter(v) for key, v in lists.items()}
    # text, made only when written: a row per list, its items space
    # separated and joined a chunk at a time
    rows = (
        (key, " ".join(" ".join(map(str, chunk)) for chunk in _chunks(v)))
        for key, v in lists.items()
    )
    if seq.total == 1:
        shift, rotated = cycle.canonical_rotation(seq)
        payload["canonical_shift"] = shift
        payload["canonical"] = cycle.render_sequence(rotated)
        rows = chain(rows, [("canonical", shift, payload["canonical"])])
    _emit(args, rows, payload)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    from . import series

    table = series.n_series(args.order)
    terms = (
        [n, k, value]
        for n, row in enumerate(table.coeffs)
        for k, value in enumerate(row)
    )
    _emit(args, terms, {"terms": terms})
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    from .paths import check_class, render_path
    from .sampler import RandomSource, sample_dyck, sample_k_negative

    rng = RandomSource(args.seed)
    if args.k is None:
        draws = (sample_dyck(args.n, rng) for _ in range(args.count))
    else:
        check_class(args.n, args.k)
        draws = (sample_k_negative(args.n, args.k, rng) for _ in range(args.count))
    paths = map(render_path, draws)
    _emit(args, zip(paths), {"paths": paths})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="chungfeller",
        description="Lattice-path counting, verification, bijections, and sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="class sizes for one n")
    p.add_argument("--n", type=_integer(0), required=True, help="half-length")
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="cross-check the recurrence against enumeration",
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "verify", parents=[common], help="check enumeration = recurrence = series = Catalan"
    )
    p.add_argument(
        "--max-n", type=_integer(0), required=True, help="largest half-length"
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "phi", parents=[common], help="apply the negativity-shifting bijection"
    )
    p.add_argument("--dir", choices=["up", "down"], required=True)
    p.add_argument("--path", required=True, help="path as a 'U'/'D' string")
    p.add_argument(
        "--times", type=_integer(1), default=1, help="number of applications"
    )
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("cycle", parents=[common], help="cycle-lemma views of a sequence")
    p.add_argument(
        "--seq",
        required=True,
        help="sequence as a '+'/'-' string (use --seq=-++ for a leading '-')",
    )
    p.set_defaults(handler=_cmd_cycle)

    p = sub.add_parser("series", parents=[common], help="dump the path-count series")
    p.add_argument(
        "--order", type=_integer(0), required=True, help="truncation order"
    )
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("sample", parents=[common], help="draw uniform random paths")
    p.add_argument("--n", type=_integer(0), required=True, help="half-length")
    p.add_argument("--k", type=int, default=None, help="negativity class (default: Dyck)")
    p.add_argument(
        "--count", type=_integer(0), required=True, help="number of draws"
    )
    p.add_argument(
        "--seed", type=_integer(0, 2**64 - 1), required=True, help="generator seed"
    )
    p.set_defaults(handler=_cmd_sample)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse on some Pythons drops a "--" given as an option's value
        # (--n=--) and leaves an empty list; no option here takes a list
        if any(type(value) is list for value in vars(args).values()):
            parser.error("'--' cannot be an option's value")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ChungFellerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
