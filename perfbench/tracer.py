"""Run one chungfeller CLI command with a span around every public function.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_FILE ARGS...

behaves like `python -m chungfeller ARGS...` (same stdout, stderr and exit
code) and also writes the spans of the run to SPANS_FILE.  The wrappers
are installed from outside the package: every public function of every
module is replaced at each module attribute that refers to it, because
`cli`, `sampler`, `bijection` and `counting` import functions by name.
Methods (`LatticePath.__post_init__`, `BivariateSeries.__mul__`, the
`RandomSource` draws) are patched on their classes.  The root span is
`cli.run`, reported as `cli`; its self time is argument parsing,
formatting and JSON.

A span is (parent span, name, start, end).  Spans are kept in flat arrays
in memory and written once, when the command has finished.  `catalan` is
only counted: count_recurrence looks it up about n**3/3 times, and a span
per lookup would triple the traced time of `count`.

`load` reads a spans file back and returns calls, self time and total
time per name, self time being a span's duration minus the durations of
its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("paths", "counting", "series", "cycle", "bijection", "sampler")
METHODS = {
    "paths.LatticePath.post_init": ("paths", "LatticePath", "__post_init__"),
    "cycle.CyclicSequence.post_init": ("cycle", "CyclicSequence", "__post_init__"),
    "series.mul": ("series", "BivariateSeries", "__mul__"),
    "series.add": ("series", "BivariateSeries", "__add__"),
    "sampler.next_uint64": ("sampler", "RandomSource", "next_uint64"),
    "sampler.randbelow": ("sampler", "RandomSource", "randbelow"),
    "sampler.shuffle": ("sampler", "RandomSource", "shuffle"),
}
COUNTED_ONLY = {"counting.catalan"}
_FIELDS = (("parents", "q"), ("names", "H"), ("starts", "d"), ("ends", "d"))


class Recorder:
    """Spans in flat arrays; a stack of open span ids gives each span its parent."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self.arrays = {field: array(code) for field, code in _FIELDS}
        self.stack = [-1]

    def span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        parents, names, starts, ends = (self.arrays[field] for field, _ in _FIELDS)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(starts)
            parents.append(stack[-1])
            names.append(name_id)
            ends.append(0.0)
            stack.append(span_id)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span_id] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        header = {"names": self.names, "counts": self.counts, "spans": len(self.arrays["starts"])}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                self.arrays[field].tofile(out)


def install(recorder: Recorder):
    """Wrap the package's functions and methods; return the wrapped `cli.run`."""
    package = importlib.import_module("chungfeller")
    cli = importlib.import_module("chungfeller.cli")
    modules = [importlib.import_module(f"chungfeller.{name}") for name in MODULES]
    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            make = recorder.counter if name in COUNTED_ONLY else recorder.span
            wrappers[id(value)] = (value, make(name, value))
    for module in [package, cli, *modules]:
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                setattr(module, attr, wrapper)
    for name, (module, cls, method) in METHODS.items():
        owner = getattr(importlib.import_module(f"chungfeller.{module}"), cls)
        setattr(owner, method, recorder.span(name, vars(owner)[method]))
    return recorder.span("cli", cli.run)


def load(path: str) -> dict[str, list]:
    """name -> [calls, self seconds, total seconds] from a spans file."""
    with open(path, "rb") as spans:
        header = json.loads(spans.readline())
        count = header["spans"]
        fields = {}
        for field, code in _FIELDS:
            fields[field] = array(code)
            fields[field].fromfile(spans, count)
    durations = [end - start for start, end in zip(fields["starts"], fields["ends"])]
    covered = [0.0] * count
    for duration, parent in zip(durations, fields["parents"]):
        if parent >= 0:
            covered[parent] += duration
    names = header["names"]
    stats = {name: [0, 0.0, 0.0] for name in names}
    for name_id, duration, children in zip(fields["names"], durations, covered):
        entry = stats[names[name_id]]
        entry[0] += 1
        entry[1] += duration - children
        entry[2] += duration
    for name, calls in header["counts"].items():
        stats[name] = [calls, 0.0, 0.0]
    return stats


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    run = install(recorder)
    code = 1
    try:
        code = run(argv)
    finally:
        recorder.write(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
