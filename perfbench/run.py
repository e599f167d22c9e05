"""Benchmark of the chungfeller command line, one workload per run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Every command is a fresh `python -m chungfeller ...` process, started one
at a time by this process (a closed loop with one client), so each pays
the cold module-level caches a real CLI call pays.  Outputs are checked
by oracle.py, which never calls into chungfeller.

--trace 0 times the workload's round (workloads.py) again and again until
--seconds have passed, after timing idle commands for set-up, and reports:

    work_per_s   work completed / summed command wall time (unit: see workloads.py)
    cmd_p50_s    median command wall time
    cmd_tail_s   the highest percentile with at least ten commands beyond it
    setup_s      median wall time of a command that does no work
    peak_rss_mb  largest resident set of any one command process (launch.py)

--trace 1 runs the round untraced and then under tracer.py, in pairs,
until half of --seconds has passed, then the scaling cases (scaling.py),
and reports the per-layer metrics: calls per round and share of traced
wall time per wrapped function, cli self time and stdout bytes per round,
the tracing overhead (traced / untraced wall time) and the scaling times
and exponents.

A report precedes the result: metrics with their counts, error_rate
(failed / attempted), the sha256 of one round's stdout (the same seed
gives the same digest on any commit with the same outputs) and, traced,
the top functions by self time.  The same data goes to
.perfbench/<workload>-<seed>-<trace>.json.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import scaling
import tracer
import workloads
from workloads import Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TRACER = str(Path(__file__).with_name("tracer.py"))
LAUNCH = str(Path(__file__).with_name("launch.py"))
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
IDLE_RUNS = 9
RUN_LIMIT_S = 160  # every command is killed past this point of a run
TAIL_BEYOND = 10
HOTSPOTS = 10

# per-layer functions reported from the traced run; every wrapped
# function appears in the hotspot list
TRACED = (
    "paths.negativity",
    "paths.LatticePath.post_init",
    "paths.factor_primes",
    "counting.partition_by_negativity",
    "counting.count_recurrence",
    "counting.catalan",
    "series.mul",
    "series.geometric_inverse",
    "cycle.canonical_rotation",
    "cycle.dominating_shifts",
    "cycle.rank_order",
    "bijection.lift",
    "bijection.phi_plus",
    "sampler.randbelow",
    "sampler.next_uint64",
    "sampler.shuffle",
    "sampler.sample_dyck",
    "sampler.sample_k_negative",
)
UNITS = {
    "work_per_s": "work/s",
    "peak_rss_mb": "MB",
    "calls": "count",
    "share": "ratio",
    "stdout_bytes": "bytes",
    "words_per_draw": "ratio",
    "overhead": "ratio",
    "exp": "slope",
    "ns_per_draw": "ns",
}


@dataclass
class Result:
    command: Command
    wall_s: float
    rss_mb: float
    stdout: bytes
    error: str | None  # None when the command exited 0 and its output checked out


class Runner:
    """Starts commands one at a time and keeps every result."""

    def __init__(self):
        self.start = time.perf_counter()
        self.results: list[Result] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def execute(self, command: Command, prefix: tuple[str, ...] = ("-m", "chungfeller")) -> Result:
        report_read, report_write = os.pipe()
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", LAUNCH, str(report_write), sys.executable, *prefix, *command.args],
            cwd=ROOT,
            env=ENV,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            pass_fds=(report_write,),
            start_new_session=True,  # one process group: a timeout kills the command too
        )
        os.close(report_write)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
        with os.fdopen(report_read) as report:
            fields = report.read().split()
        if fields:
            status, rss_kib, wall = int(fields[0]), int(fields[1]), float(fields[2])
            code = os.waitstatus_to_exitcode(status)
        else:
            code, rss_kib, wall = None, 0, RUN_LIMIT_S
        error = None
        if code is None:
            error = "killed at the run's time limit"
        elif code != 0:
            message = stderr.decode(errors="replace").strip().splitlines() or [""]
            error = f"exit {code}: {message[-1]}"
        else:
            try:
                command.check(stdout.decode())
            except (oracle.Mismatch, ValueError, LookupError, TypeError) as exc:
                error = f"wrong output: {exc}"
        result = Result(command, wall, rss_kib / 1024, stdout, error)
        self.results.append(result)
        return result

    def run_round(self, commands: list[Command], prefix=None, first: list[Result] | None = None) -> list[Result]:
        """Run every command; with `first`, also require its stdout byte for byte."""
        results = []
        for index, command in enumerate(commands):
            result = self.execute(command) if prefix is None else self.execute(command, prefix(index))
            if result.error is None and first is not None and result.stdout != first[index].stdout:
                result.error = "stdout differs from the first run of the same command"
            results.append(result)
        return results

    def failures(self) -> list[Result]:
        return [result for result in self.results if result.error is not None]


def _digest(results: list[Result]) -> str:
    return "sha256:" + hashlib.sha256(b"".join(result.stdout for result in results)).hexdigest()


def measure(workload: str, seed: int, seconds: int) -> tuple[Runner, dict, dict]:
    """The untraced run: end-to-end metrics and the facts behind them."""
    runner = Runner()
    commands = workloads.round_for(workload, seed)
    runner.execute(workloads.idle_commands(seed, 1)[0])  # writes bytecode caches
    idle = [runner.execute(command).wall_s for command in workloads.idle_commands(seed, IDLE_RUNS)]
    rounds: list[list[Result]] = []
    measured = time.perf_counter()
    while not rounds or (time.perf_counter() - measured < seconds and runner.elapsed() < RUN_LIMIT_S):
        rounds.append(runner.run_round(commands, first=rounds[0] if rounds else None))
    first = rounds[0]
    results = [result for rnd in rounds for result in rnd]
    times = sorted(result.wall_s for result in results)
    beyond = min(TAIL_BEYOND, len(times) - 1)
    metrics = {
        "work_per_s": sum(r.command.work for r in results if r.error is None) / sum(times),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": times[-1 - beyond],
        "setup_s": statistics.median(idle),
        "peak_rss_mb": max(result.rss_mb for result in runner.results),
    }
    facts = {
        "rounds": len(rounds),
        "commands": len(times),
        "tail_percentile": 100 * (len(times) - beyond) / len(times),
        "commands_beyond_tail": beyond,
        "idle_commands": len(idle),
        "digest": _digest(first),
        "round_commands": [" ".join(command.args)[:100] for command in commands],
        "round_wall_s": [[result.wall_s for result in rnd] for rnd in rounds],
    }
    return runner, metrics, facts


def _cold_timer(runner: Runner):
    def cold(code: str, n: int) -> float:
        result = runner.execute(Command((str(n),), 0, oracle.check_seconds), ("-c", code))
        if result.error is not None:
            raise RuntimeError(f"cold scaling case n={n} failed: {result.error}")
        return float(result.stdout)

    return cold


def measure_traced(workload: str, seed: int, seconds: int) -> tuple[Runner, dict, dict]:
    """The traced run: per-layer metrics, hotspots and the tracing overhead."""
    runner = Runner()
    commands = workloads.round_for(workload, seed)
    OUT.mkdir(exist_ok=True)
    spans = [OUT / f"spans-{workload}-{index}.bin" for index in range(len(commands))]
    runner.execute(workloads.idle_commands(seed, 1)[0])
    stats: dict[str, list] = {}
    untraced_s = traced_s = 0.0
    stdout_bytes = 0
    rounds = 0
    first = None
    while rounds == 0 or runner.elapsed() < min(seconds, RUN_LIMIT_S) / 2:
        plain = runner.run_round(commands, first=first)
        first = first or plain
        for path in spans:
            path.unlink(missing_ok=True)
        traced = runner.run_round(commands, lambda index: (TRACER, str(spans[index])), first)
        for path in spans:
            if path.exists():  # a command that crashed before cli.run wrote none
                for name, values in tracer.load(str(path)).items():
                    entry = stats.setdefault(name, [0, 0.0, 0.0])
                    for field, value in enumerate(values):
                        entry[field] += value
                path.unlink()
        untraced_s += sum(result.wall_s for result in plain)
        traced_s += sum(result.wall_s for result in traced)
        stdout_bytes += sum(len(result.stdout) for result in plain)
        rounds += 1
    process_s = traced_s - stats.setdefault("cli", [0, 0.0, 0.0])[2]
    stats["(interpreter start and import)"] = [rounds * len(commands), process_s, process_s]

    def calls(name: str) -> int:
        return stats.get(name, [0])[0] // rounds

    def share(name: str) -> float:
        return stats.get(name, [0, 0.0])[1] / traced_s

    metrics: dict[str, float] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls(name)
        if name not in tracer.COUNTED_ONLY:
            metrics[f"{name}.share"] = share(name)
    metrics["cli.self_s"] = stats["cli"][1] / rounds
    metrics["cli.share"] = share("cli")
    metrics["cli.stdout_bytes"] = stdout_bytes // rounds
    draws = calls("sampler.randbelow")
    metrics["sampler.words_per_draw"] = calls("sampler.next_uint64") / draws if draws else 0.0
    metrics["trace.wall_s"] = traced_s / rounds
    metrics["trace.overhead"] = traced_s / untraced_s
    metrics.update(scaling.run(seed, _cold_timer(runner)))

    def top(field: int, names) -> list[dict]:
        ranked = sorted(names, key=lambda name: -stats[name][field])[:HOTSPOTS]
        return [
            {"name": name, "calls": stats[name][0] // rounds, "self_s": stats[name][1] / rounds,
             "total_s": stats[name][2] / rounds, "share": stats[name][1] / traced_s}
            for name in ranked
        ]

    facts = {
        "rounds": rounds,
        "commands_per_round": len(commands),
        "digest": _digest(first),
        "hotspots": top(1, [name for name in stats if stats[name][0]]),
        # the same by total time, below the cli root: where the time starts
        "inclusive": top(2, [name for name in stats if stats[name][0] and name[0] != "(" and name != "cli"]),
    }
    return runner, metrics, facts


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.startswith("paths_per_s"):
        return "paths/s"
    return "s"  # cmd_p50_s, cmd_tail_s, setup_s, self_s, wall_s and s_<size>


def report(workload: str, seed: int, trace: int, runner: Runner, metrics: dict, facts: dict) -> dict:
    """Print the human-readable report and return the result line."""
    failures = runner.failures()
    attempted = len(runner.results)
    print(f"workload {workload}  seed {seed}  trace {trace}  rounds {facts['rounds']}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {_unit(name)}")
    if trace:
        for key, order in (("hotspots", "self"), ("inclusive", "total")):
            print(f"  top functions by {order} time per round of {facts['commands_per_round']} commands "
                  f"(self s, share of traced wall, total s, calls):")
            for spot in facts[key]:
                print(f"    {spot['name']:40s} {spot['self_s']:9.4f} {100 * spot['share']:5.1f}% "
                      f"{spot['total_s']:9.4f} {spot['calls']:9d}")
    else:
        print(f"  cmd_p50_s and cmd_tail_s over {facts['commands']} commands; tail is "
              f"p{facts['tail_percentile']:.1f} with {facts['commands_beyond_tail']} beyond it")
        print(f"  setup_s is the median of {facts['idle_commands']} idle commands")
    print(f"  error_rate {len(failures) / attempted:.6g} ratio ({len(failures)} failed of {attempted} attempted)")
    print(f"  stdout digest of one round {facts['digest']}")
    for failure in failures[:5]:
        print(f"error: {' '.join(failure.command.args)[:80]}: {failure.error}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace, **facts, **result}
    (OUT / f"{workload}-{seed}-{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "chungfeller" / "__main__.py").is_file():
        print(f"error: no chungfeller package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the in-process scaling cases
    measure_run = measure_traced if args.trace else measure
    runner, metrics, facts = measure_run(args.workload, args.seed, args.seconds)
    result = report(args.workload, args.seed, args.trace, runner, metrics, facts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
