"""CLI contract: output formats, exit codes, and fault detection."""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chungfeller import BivariateSeries, cli, counting, series

# `python -m` imports from the working directory first, so a child process
# started here runs this copy of the package, installed or not
PACKAGE_PARENT = Path(cli.__file__).parent.parent


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_text_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "3")
        assert code == 0
        assert out == "0\t5\n1\t5\n2\t5\n3\t5\n"

    def test_json_round_trip(self, capsys):
        code, text_out, _ = run_cli(capsys, "count", "--n", "4")
        assert code == 0
        code, json_out, _ = run_cli(capsys, "count", "--n", "4", "--format", "json")
        assert code == 0
        from_text = {
            int(line.split("\t")[0]): int(line.split("\t")[1])
            for line in text_out.splitlines()
        }
        from_json = {int(k): v for k, v in json.loads(json_out)["counts"].items()}
        assert from_text == from_json

    def test_brute_force_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "5", "--brute-force")
        assert code == 0
        assert out.splitlines() == [f"{k}\t42" for k in range(6)]

    def test_brute_force_detects_fault(self, capsys, monkeypatch):
        real = counting.count_recurrence
        monkeypatch.setattr(
            counting,
            "count_recurrence",
            lambda n, k: real(n, k) + (1 if (n, k) == (3, 2) else 0),
        )
        code, out, err = run_cli(capsys, "count", "--n", "3", "--brute-force")
        assert code == 1
        assert out == ""
        assert err == "error: recurrence disagrees with brute force at n=3\n"

    def test_bound_exceeded_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "13", "--brute-force")
        assert code == 1
        assert "error:" in err

    def test_bound_checked_before_any_work(self, capsys, monkeypatch):
        def unreachable(n, k):
            raise AssertionError("recurrence computed before the bound check")

        monkeypatch.setattr(counting, "count_recurrence", unreachable)
        code, out, err = run_cli(capsys, "count", "--n", "13", "--brute-force")
        assert code == 1
        assert out == ""
        assert "enumeration bound" in err


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
        assert code == 0
        assert out.splitlines() == [f"{n}\tPASS" for n in range(7)]

    def test_json_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results == [{"n": n, "pass": True} for n in range(5)]

    def test_detects_recurrence_fault(self, capsys, monkeypatch):
        real = counting.count_recurrence
        monkeypatch.setattr(
            counting,
            "count_recurrence",
            lambda n, k: real(n, k) + (1 if (n, k) == (3, 1) else 0),
        )
        code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
        assert code == 1
        assert "3\tFAIL" in out
        assert "2\tPASS" in out

    def test_detects_series_fault(self, capsys, monkeypatch):
        real = series.n_series

        def doctored(order):
            table = real(order)
            rows = [list(row) for row in table.coeffs]
            rows[2][1] += 1
            return BivariateSeries(order, tuple(tuple(r) for r in rows))

        monkeypatch.setattr(series, "n_series", doctored)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
        assert code == 1
        assert "2\tFAIL" in out

    def test_detects_enumeration_fault(self, capsys, monkeypatch):
        real = counting.partition_by_negativity

        def doctored(n, **kwargs):
            table = real(n, **kwargs)
            if n == 2:
                table[0] += 1
            return table

        monkeypatch.setattr(counting, "partition_by_negativity", doctored)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert "2\tFAIL" in out

    def test_bound_checked_before_any_work(self, capsys, monkeypatch):
        def unreachable(order):
            raise AssertionError("series built before the bound check")

        monkeypatch.setattr(series, "n_series", unreachable)
        code, out, err = run_cli(capsys, "verify", "--max-n", "13")
        assert code == 1
        assert out == ""
        assert "enumeration bound" in err


# sha256 of stdout as printed by the Horner series inverse and by a
# recurrence calling catalan() per term; the faster kernels print the same
LARGE_TABLE_DIGESTS = {
    ("count", "--n", "180", "--format", "text"): (
        "58d22c5aa6b895df51e19cc0f39bd88caa73ed2d3fe264b6f6801caeeb643c19"
    ),
    ("count", "--n", "180", "--format", "json"): (
        "d38adb44c9c0417e3e9fd3123c1b8901fa30dfee5a3ca876362bdaca914bbec8"
    ),
    ("series", "--order", "60", "--format", "text"): (
        "335b05e2fc753ba89cc24cc4686fa7f5e76566f2f0591808b78ca20fb225e923"
    ),
    ("series", "--order", "60", "--format", "json"): (
        "18000cd5ecce7e300ca4e91ddc9ca03bd8cb35eaeb8ff5a90796f0f68a988ee2"
    ),
}


@pytest.mark.parametrize(
    "argv", list(LARGE_TABLE_DIGESTS), ids=lambda argv: "-".join(argv[::2])
)
def test_large_table_bytes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_TABLE_DIGESTS[argv]


# sha256 of stdout as printed by the k-fold phi_plus loop; the block-stack
# lift prints the same
LARGE_SAMPLE_DIGESTS = {
    "text": "740418fc6023ee6fbfcc933ae01b9c408bf3ca36f4a074c69ba482ea08668adf",
    "json": "074a9acaf8419bb6d15e857cb95bf62eca5049745df23ab15d1c9d87a1045e8d",
}


@pytest.mark.parametrize("fmt", list(LARGE_SAMPLE_DIGESTS))
def test_large_sample_bytes(capsys, fmt):
    code, out, err = run_cli(
        capsys,
        "sample", "--n", "2000", "--k", "1000", "--count", "2", "--seed", "7",
        "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_SAMPLE_DIGESTS[fmt]


# sha256 of stdout as printed by the one-word-at-a-time splitmix64; the
# block kernel prints the same.  Each pair of commands draws more than
# 100,000 words, across hundreds of 256-word blocks
SMALL_SAMPLE_DIGESTS = {
    ("--n", "12", "--k", "6", "--count", "2000", "--seed", "2026", "--format", "text"): (
        "eb38796dd5e7ecbf79826869781f30dedc21f9606046f3a0c89b0a64a97f564c"
    ),
    ("--n", "12", "--k", "6", "--count", "2000", "--seed", "2026", "--format", "json"): (
        "ca3a864f76ecd42ae65776ee0eb53fcde0d6497f5e8b295841bf353b99b7520f"
    ),
    ("--n", "10", "--count", "2000", "--seed", "7", "--format", "text"): (
        "fb7cab6b0892264477789309546796ff6ddbfe011a6a135a1a76e44ffbf303cc"
    ),
    ("--n", "10", "--count", "2000", "--seed", "7", "--format", "json"): (
        "e1171b6af2de6ad92bfa4c2821a2b3437a41972098117ebed966e3731625a318"
    ),
}


@pytest.mark.parametrize(
    "argv", list(SMALL_SAMPLE_DIGESTS), ids=lambda argv: "-".join(argv[1::2])
)
def test_small_sample_bytes(capsys, argv):
    code, out, err = run_cli(capsys, "sample", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SMALL_SAMPLE_DIGESTS[argv]


class TestPhi:
    def test_up_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--dir", "up", "--path", "UUDD")
        assert code == 0
        assert out == "DUUD\t1\n"

    def test_down_error(self, capsys):
        code, out, err = run_cli(capsys, "phi", "--dir", "down", "--path", "UDUD")
        assert code == 1
        assert out == ""
        assert "no negative prime" in err

    def test_times_prints_each_intermediate(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "--dir", "up", "--path", "UUDD", "--times", "2"
        )
        assert code == 0
        assert out == "DUUD\t1\nDUDU\t2\n"

    def test_times_stops_at_first_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "phi", "--dir", "up", "--path", "UUDD", "--times", "3"
        )
        assert code == 1
        assert out == "DUUD\t1\nDUDU\t2\n"
        assert "2 of 3 applications succeeded" in err

    def test_multi_prime_bytes(self, capsys):
        # ten primes, several of each sign
        code, out, _ = run_cli(
            capsys, "phi", "--dir", "up", "--times", "5",
            "--path", "UUDDDUUDUUDUDDDDUUUUDDUDDUUDUD",
        )
        assert code == 0
        assert out.splitlines() == [
            "UUDDDUUDUUDUDDDDUUUUDDUDDUUDDU\t5",
            "UUDDDUUDUUDUDDDDUUUUDDUDDUDDUU\t6",
            "UUDDDUUDUUDUDDDDUUUUDDDDUDDUUU\t7",
            "UUDDDUUDUUDUDDDDUUDDDUDDUUUUUD\t8",
            "UUDDDUUDUUDUDDDDUUDDDUDDUUUUDU\t9",
        ]

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "--dir", "up", "--path", "UUDD", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"steps": [{"path": "DUUD", "negativity": 1}]}

    def test_invalid_path_character(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--dir", "up", "--path", "UXDD")
        assert code == 1
        assert "invalid character" in err

    def test_unbalanced_path(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--dir", "up", "--path", "UUD")
        assert code == 1
        assert "error:" in err


class TestCycle:
    def test_unit_sum_output(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--seq=-++")
        assert code == 0
        assert out.splitlines() == [
            "sums\t0 -1 0 1",
            "ranks\t1 2 0 3",
            "dominating\t1",
            "canonical\t1\t++-",
        ]

    def test_long_unit_sum_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--seq=-----++-++-+--+++++-+-----++++++---++--++"
        )
        assert code == 0
        assert out.splitlines() == [
            "sums\t0 -1 -2 -3 -4 -5 -4 -3 -4 -3 -2 -3 -2 -3 -4 -3 -2 -1 0 1 0 1 0"
            " -1 -2 -3 -4 -3 -2 -1 0 1 2 1 0 -1 0 1 0 -1 0 1",
            "ranks\t5 26 14 8 6 4 27 25 15 13 11 9 7 3 28 24 16 12 10 2 39 35 29"
            " 23 17 1 40 38 36 34 30 22 20 18 0 41 37 33 31 21 19 32",
            "dominating\t5",
            "canonical\t5\t++-++-+--+++++-+-----++++++---++--++-----",
        ]

    def test_zero_sum_prints_defined_parts(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--seq", "+-")
        assert code == 0
        assert out.splitlines() == ["sums\t0 1 0", "ranks\t2 0 1"]

    def test_large_sum_has_no_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--seq", "++")
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "dominating\t0 1"
        assert len(lines) == 3

    def test_json_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--seq=-++", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "sums": [0, -1, 0, 1],
            "ranks": [1, 2, 0, 3],
            "dominating": [1],
            "canonical_shift": 1,
            "canonical": "++-",
        }

    def test_invalid_character(self, capsys):
        code, _, err = run_cli(capsys, "cycle", "--seq", "+1-")
        assert code == 1
        assert "invalid character" in err


class TestSeries:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--order", "2")
        assert code == 0
        assert out.splitlines() == [
            "0\t0\t1",
            "1\t0\t1",
            "1\t1\t1",
            "2\t0\t2",
            "2\t1\t2",
            "2\t2\t2",
        ]

    def test_json_round_trip(self, capsys):
        _, text_out, _ = run_cli(capsys, "series", "--order", "5")
        code, json_out, _ = run_cli(
            capsys, "series", "--order", "5", "--format", "json"
        )
        assert code == 0
        from_text = [
            [int(part) for part in line.split("\t")]
            for line in text_out.splitlines()
        ]
        assert json.loads(json_out)["terms"] == from_text


class TestSample:
    def test_deterministic_given_seed(self, capsys):
        _, first, _ = run_cli(
            capsys, "sample", "--n", "4", "--count", "5", "--seed", "42"
        )
        _, second, _ = run_cli(
            capsys, "sample", "--n", "4", "--count", "5", "--seed", "42"
        )
        assert first == second
        assert len(first.splitlines()) == 5

    def test_k_class(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "3", "--k", "2", "--count", "3", "--seed", "7"
        )
        assert code == 0
        assert out.splitlines() == ["UDDDUU", "DUDUUD", "DUUDDU"]

    def test_k_class_multi_prime(self, capsys):
        # the same seed must keep giving the same splitmix64 stream and lift
        code, out, _ = run_cli(
            capsys,
            "sample", "--n", "40", "--k", "17", "--count", "5", "--seed", "2026",
        )
        assert code == 0
        assert out.splitlines() == [
            "UDDDUUUDDDDDUDUDUUDDUUUUDUUUDUUDUUUDUUDUDDUDDDDUUUUUDDUDUDDDDDDDUDUUUDDDUUDUUDUD",
            "UUDDDDDDUUUDUDUDDDDUUUDDUUUDUUUDUUDUUUUDDDUDUUUUUUDUDDUDDDDUDDDUUDDUUDDDDDUUDUDU",
            "DUUUUDDDDDUDUUDDUUDUDUDUUDDUDUUDUDDUDUUDDDUUUUDDUUDUUDUUDDDUDDDDUUUDUUUDDUUUDDDD",
            "UDUUUDDUUUUDUDDDUDUUDUUDDDDUUDUDUUUDDUDDDUUDDDDDUDUUDUDUDUDDUDDDUUDDUDDUUUUUDDUU",
            "UUUUUDDUDUDDDUUUDDUUDUDUDDDUDDDDUDDUUDDUDUDUDUDDUDUUUUUDUUDDUDDDUUDUUDUDDUDUUDUD",
        ]

    def test_json_mirror(self, capsys):
        _, text_out, _ = run_cli(
            capsys, "sample", "--n", "2", "--count", "4", "--seed", "9"
        )
        code, json_out, _ = run_cli(
            capsys,
            "sample", "--n", "2", "--count", "4", "--seed", "9",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(json_out)["paths"] == text_out.splitlines()

    @pytest.mark.parametrize("count", ["0", "1"])
    @pytest.mark.parametrize("k", ["9", "-1"])
    def test_k_out_of_range_is_domain_error(self, capsys, k, count):
        # the class is checked even when no path is drawn
        code, out, err = run_cli(
            capsys, "sample", "--n", "3", "--k", k, "--count", count, "--seed", "1"
        )
        assert code == 1
        assert out == ""
        assert err == f"error: require 0 <= k <= n, got n=3, k={k}\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["unknown"],
            ["count"],
            ["count", "--n", "three"],
            ["count", "--n", "-2"],
            ["count", "--n", "3", "--bogus"],
            ["phi", "--dir", "sideways", "--path", "UD"],
            ["sample", "--n", "1", "--count", "1", "--seed", str(2**64)],
            [],
        ],
    )
    def test_exit_two(self, capsys, argv):
        assert cli.run(argv) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "5"],
        ["sample", "--n", "30", "--k", "11", "--count", "3", "--seed", "1"],
        ["phi", "--dir", "down", "--times", "3", "--path", "DUDDUUUD"],
        ["cycle", "--seq=-+-++++-+"],
    ],
)
def test_optimized_interpreter_prints_the_same(argv):
    # python -O strips assert statements; no output may depend on them
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-m", "chungfeller", *argv],
            cwd=PACKAGE_PARENT,
            capture_output=True,
            text=True,
        )
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout
    assert optimized.stdout == plain.stdout


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no invariant may live in one
    package = Path(cli.__file__).parent
    asserts = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chungfeller", "count", "--n", "2"],
        cwd=PACKAGE_PARENT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\t2\n1\t2\n2\t2\n"


@pytest.mark.parametrize("fmt,loaded", [("text", "False"), ("json", "True")])
def test_json_is_imported_only_for_json_output(fmt, loaded):
    # json only under --format json; dataclasses, and inspect through it,
    # cost more start-up time than the rest of the package, and no format
    # may load them
    script = (
        "import sys\n"
        "from chungfeller import cli\n"
        f"cli.run(['count', '--n', '2', '--format', '{fmt}'])\n"
        "print(*(name in sys.modules for name in ('json', 'dataclasses', 'inspect')),"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=PACKAGE_PARENT,
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, f"{loaded} False False\n")
