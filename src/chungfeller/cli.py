"""Command-line front end.

Subcommands: count, verify, phi, cycle, series, sample.  Text output is
TAB-separated; --format json emits the same content as JSON.  Exit codes:
0 success, 1 domain error (one-line diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from . import counting, cycle, series
from .bijection import phi_minus, phi_plus
from .errors import ChungFellerError, NoNegativePrime, NoPositivePrime
from .paths import check_class, negativity, parse_path, render_path
from .sampler import RandomSource, sample_dyck, sample_k_negative


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("must be an unsigned 64-bit integer")
    return value


def _emit(args: argparse.Namespace, lines: list[str], payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _cmd_count(args: argparse.Namespace) -> int:
    # enumerate first: past the bound this fails before the recurrence runs
    oracle = counting.partition_by_negativity(args.n) if args.brute_force else None
    counts = {k: counting.count_recurrence(args.n, k) for k in range(args.n + 1)}
    if oracle is not None and oracle != counts:
        raise ChungFellerError(f"recurrence disagrees with brute force at n={args.n}")
    _emit(
        args,
        [f"{k}\t{count}" for k, count in counts.items()],
        {"counts": {str(k): count for k, count in counts.items()}},
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # raises BoundExceeded now, before the series and the smaller n are computed
    counting.enumerate_balanced(args.max_n)
    table_series = series.n_series(args.max_n)
    results = []
    for n in range(args.max_n + 1):
        reference = counting.catalan(n)
        total = counting.central_binomial(n)
        brute = counting.partition_by_negativity(n)
        ok = (
            reference == total // (n + 1)
            and sum(brute.values()) == total
            and all(
                brute[k] == reference
                and counting.count_recurrence(n, k) == reference
                and table_series.coefficient(n, k) == reference
                for k in range(n + 1)
            )
        )
        results.append((n, ok))
    _emit(
        args,
        [f"{n}\t{'PASS' if ok else 'FAIL'}" for n, ok in results],
        {"results": [{"n": n, "pass": ok} for n, ok in results]},
    )
    return 0 if all(ok for _, ok in results) else 1


def _cmd_phi(args: argparse.Namespace) -> int:
    apply_map = phi_plus if args.dir == "up" else phi_minus
    current = parse_path(args.path)
    steps = []
    error = None
    for _ in range(args.times):
        try:
            current = apply_map(current)
        except (NoPositivePrime, NoNegativePrime) as exc:
            error = exc
            break
        steps.append((render_path(current), negativity(current)))
    _emit(
        args,
        [f"{text}\t{k}" for text, k in steps],
        {"steps": [{"path": text, "negativity": k} for text, k in steps]},
    )
    if error is not None:
        print(
            f"error: {error} ({len(steps)} of {args.times} applications succeeded)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    seq = cycle.parse_sequence(args.seq)
    sums = cycle.partial_sums(seq)
    ranks = cycle.rank_order(seq)
    lines = [
        "sums\t" + " ".join(str(v) for v in sums),
        "ranks\t" + " ".join(str(v) for v in ranks),
    ]
    payload: dict = {"sums": sums, "ranks": list(ranks)}
    if seq.total >= 1:
        shifts = cycle.dominating_shifts(seq)
        lines.append("dominating\t" + " ".join(str(v) for v in shifts))
        payload["dominating"] = list(shifts)
    if seq.total == 1:
        shift, rotated = cycle.canonical_rotation(seq)
        lines.append(f"canonical\t{shift}\t{cycle.render_sequence(rotated)}")
        payload["canonical_shift"] = shift
        payload["canonical"] = cycle.render_sequence(rotated)
    _emit(args, lines, payload)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    table = series.n_series(args.order)
    terms = [
        [n, k, value]
        for n, row in enumerate(table.coeffs)
        for k, value in enumerate(row)
    ]
    _emit(args, [f"{n}\t{k}\t{value}" for n, k, value in terms], {"terms": terms})
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.k is not None:
        check_class(args.n, args.k)
    rng = RandomSource(args.seed)
    paths = []
    for _ in range(args.count):
        if args.k is None:
            path = sample_dyck(args.n, rng)
        else:
            path = sample_k_negative(args.n, args.k, rng)
        paths.append(render_path(path))
    _emit(args, paths, {"paths": paths})
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
    p.add_argument("--n", type=_nonnegative_int, required=True, help="half-length")
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="cross-check the recurrence against enumeration",
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "verify", parents=[common], help="cross-check all counting methods"
    )
    p.add_argument(
        "--max-n", type=_nonnegative_int, required=True, help="largest half-length"
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "phi", parents=[common], help="apply the negativity-shifting bijection"
    )
    p.add_argument("--dir", choices=["up", "down"], required=True)
    p.add_argument("--path", required=True, help="path as a 'U'/'D' string")
    p.add_argument(
        "--times", type=_positive_int, default=1, help="number of applications"
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
        "--order", type=_nonnegative_int, required=True, help="truncation order"
    )
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("sample", parents=[common], help="draw uniform random paths")
    p.add_argument("--n", type=_nonnegative_int, required=True, help="half-length")
    p.add_argument("--k", type=int, default=None, help="negativity class (default: Dyck)")
    p.add_argument(
        "--count", type=_nonnegative_int, required=True, help="number of draws"
    )
    p.add_argument("--seed", type=_uint64, required=True, help="generator seed")
    p.set_defaults(handler=_cmd_sample)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
