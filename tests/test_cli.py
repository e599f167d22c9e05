"""CLI contract: output formats, exit codes, and fault detection."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chungfeller import cli, counting, series
from chungfeller.series import BivariateSeries

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

    @pytest.mark.parametrize("text,plain", [("1_0", "10"), (" 5", "5"), ("\u0663", "3")])
    def test_integer_options_read_what_int_reads(self, capsys, text, plain):
        # underscores, surrounding blanks and non-ASCII decimal digits parse
        # as int() parses them, to the same bytes as the plain digits
        expected = run_cli(capsys, "count", "--n", plain)
        assert expected[0] == 0
        assert run_cli(capsys, "count", "--n", text) == expected

    def test_brute_force_agrees(self, capsys):
        # n = 12 is the enumeration bound: 2.7 M paths, the most the CLI
        # enumerates, against the recurrence for every class
        for n, catalan in [(5, 42), (12, 208012)]:
            code, out, _ = run_cli(capsys, "count", "--n", str(n), "--brute-force")
            assert code == 0
            assert out.splitlines() == [f"{k}\t{catalan}" for k in range(n + 1)]

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
        # 12 is the enumeration bound: every mechanism at every n it allows
        for max_n in [6, 12]:
            code, out, _ = run_cli(capsys, "verify", "--max-n", str(max_n))
            assert code == 0
            assert out.splitlines() == [f"{n}\tPASS" for n in range(max_n + 1)]

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
            return BivariateSeries(order, rows)

        monkeypatch.setattr(series, "n_series", doctored)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
        assert code == 1
        assert "2\tFAIL" in out

    def test_detects_enumeration_fault(self, capsys, monkeypatch):
        real = counting.partition_by_negativity

        def doctored(n):
            table = real(n)
            if n == 2:
                table[0] += 1
            return table

        monkeypatch.setattr(counting, "partition_by_negativity", doctored)
        code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert "2\tFAIL" in out

    @staticmethod
    def _spy_on_classifier(monkeypatch):
        """The n of every partition_by_negativity call, in call order."""
        real = counting.partition_by_negativity
        calls = []

        def spy(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(counting, "partition_by_negativity", spy)
        return calls

    def test_bound_checked_before_any_work(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("work done before the bound check")

        for module, name in [
            (counting, "count_recurrence"),
            (counting, "catalan"),
            (series, "n_series"),
        ]:
            monkeypatch.setattr(module, name, unreachable)
        calls = self._spy_on_classifier(monkeypatch)
        code, out, err = run_cli(capsys, "verify", "--max-n", "13")
        assert code == 1
        assert out == ""
        assert err == "error: n=13 exceeds the enumeration bound 12\n"
        # the refusal is the classifier's own, on its first call
        assert calls == [13]

    def test_classifies_each_n_once_largest_first(self, capsys, monkeypatch):
        calls = self._spy_on_classifier(monkeypatch)
        code, _, _ = run_cli(capsys, "verify", "--max-n", "5")
        assert code == 0
        assert calls == [5, 4, 3, 2, 1, 0]


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


# sha256 of stdout as printed by the k-fold phi_plus loop; the linear lift
# prints the same
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


# sha256 of stdout as printed when every row was held until the last one
# was made; rows now go out cli._CHUNK = 256 per write, and these counts sit
# on either side of the chunk edges
CHUNK_EDGE_SAMPLE_DIGESTS = {
    (0, "text"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (0, "json"): "1a6f5ef09ee490a3f159409d564b072ee9ab81469c9b4eeab697f36773c5b6b7",
    (1, "text"): "6458b9001d43e6a2a49fe01e70c4bf860cbd57bc81af1fa764df1deac01b6ef5",
    (1, "json"): "758ac4335cbce133de6faa5ead5f8e4e03b05e7759571dc2eb3df52d0025393f",
    (255, "text"): "0a1b1b6a35ec033afbe59b467d949869a5b2dcf78d7223f1db93c7578dfa2ca2",
    (255, "json"): "4c41a7a3f30fa9a8deb2ce0184c5e5c946f1122aa09bf1a6bad738ecd83fd637",
    (256, "text"): "b99b9c2d9927c27f93caa93505f0ae88c5ae28930ac9f7f3ce65e43786681e9e",
    (256, "json"): "d4fd8e66ff674bb8def82e8880a266d243ada1503721957a80e8dc9a6ced3531",
    (257, "text"): "c31a78fa1fd3ccf0f1c2b64b91608ac815a680323d3356d856639d22bc2fd920",
    (257, "json"): "e8436f36a60b21235b33083e757a740ced03055448f0e3dcb5e0f29520616da5",
    (513, "text"): "4d23107723381e29b4ee3a885d77744bd6b82e1ad666a1e97d15ccbd59ef70be",
    (513, "json"): "c5d27492f128c61c998550d46bfb183456b6e5049b7d5ddbc7d4d8aad7f53eb6",
}


@pytest.mark.parametrize(
    "count,fmt", list(CHUNK_EDGE_SAMPLE_DIGESTS), ids=str
)
def test_sample_bytes_at_chunk_edges(capsys, count, fmt):
    code, out, err = run_cli(
        capsys,
        "sample", "--n", "5", "--k", "2", "--count", str(count), "--seed", "11",
        "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHUNK_EDGE_SAMPLE_DIGESTS[count, fmt]
    paths = json.loads(out)["paths"] if fmt == "json" else out.splitlines()
    assert len(paths) == count


# (exit code, sha256 of stdout, stderr) as printed when every row was held
# until the last one was made.  (UD)^300 has 300 primes, so the 301st
# application finds no positive prime, past the edge of the second chunk
CHUNK_EDGE_PHI = {
    ("up", "UD" * 300, 256, "text"): (
        0, "29655d091d047c73f5d21f7a4c11b0171dabedd2764ade6dd0c15b29f70fe17e", "",
    ),
    ("up", "UD" * 300, 256, "json"): (
        0, "443cebb3c5e247fe70d08517af002052648cc9de102e07ef178e831aff0c67ab", "",
    ),
    ("up", "UD" * 300, 257, "text"): (
        0, "7e884000395f4a8476f3620f7783148a0139d89416667da475d4ac98158006c8", "",
    ),
    ("up", "UD" * 300, 257, "json"): (
        0, "2b94debf94784a3caf6d46aef7f4226bd4bf27f8f96d1f52a90878541e8dbd45", "",
    ),
    ("up", "UD" * 300, 301, "text"): (
        1, "e1066da13fe9f51624f9c497870fa51236c50807d76d3add7fa43e693828473b",
        "error: no positive prime (300 of 301 applications succeeded)\n",
    ),
    ("up", "UD" * 300, 301, "json"): (
        1, "209c7513ef58116085b80a35dadee4a1c27736237ff9701cc8e1318162a5d0e4",
        "error: no positive prime (300 of 301 applications succeeded)\n",
    ),
    ("down", "UDUD", 1, "text"): (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: no negative prime (0 of 1 applications succeeded)\n",
    ),
    ("down", "UDUD", 1, "json"): (
        1, "2b30deaa41c87a3e8a1f997de832be868a297b780dbb3144359237f5f6d533df",
        "error: no negative prime (0 of 1 applications succeeded)\n",
    ),
}


@pytest.mark.parametrize(
    "direction,path,times,fmt",
    list(CHUNK_EDGE_PHI),
    ids=lambda v: v if len(str(v)) < 10 else f"{v[:2]}^{len(v) // 2}",
)
def test_phi_bytes_at_chunk_edges(capsys, direction, path, times, fmt):
    code, out, err = run_cli(
        capsys,
        "phi", "--dir", direction, "--path", path, "--times", str(times), "--format", fmt,
    )
    expected_code, digest, expected_err = CHUNK_EDGE_PHI[direction, path, times, fmt]
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (
        expected_code, digest, expected_err,
    )
    steps = json.loads(out)["steps"] if fmt == "json" else out.splitlines()
    assert len(steps) == min(times, path.count("UD") if direction == "up" else 0)


def _cycle_text(length, total):
    """A '+'/'-' string of that length and sum, term i a '+' iff i * 97 % length
    is below the number of '+' terms."""
    plus = (length + total) // 2
    return "".join("+" if i * 97 % length < plus else "-" for i in range(length))


# sha256 of stdout as printed when cycle held each list, and series every
# term, before the first write.  Keyed by (length, sum, format), the sums
# list has length + 1 items, on either side of the chunk edges; a sum-1
# sequence has odd length, so the odd item counts take sums 0 and 2, and
# the last case writes 257 dominating shifts
CHUNK_EDGE_CYCLE_DIGESTS = {
    (254, 2, "text"): "ec1d8c876edc9cf350ac1ed406c1b690c320563904d24371c32082009856019c",
    (254, 2, "json"): "c696f016cd73fce2aa92e6c955e2a88d61102de66832326998bed32fa2d313d7",
    (255, 1, "text"): "5be23aa3888dba00fccae8818e725907bc0e839f44672f2896f78e2ce3170627",
    (255, 1, "json"): "6ab95eb42b542324bcd4d81409d10d7a50724cf5e8409efed22ad388e418551d",
    (256, 0, "text"): "59e889938e2eb8ba084c2e8441e9b9ff239aed97b7c938d25d6ed7430586d2d6",
    (256, 0, "json"): "c7a59bf1c57f75239cfe4faf0b1dbb06492880ed716dffb9e805d825d065c8d8",
    (512, 2, "text"): "717fcfe815c140a0b9e287192cf04871e0f18ce5cd306c7d686cc6aa10ddcb87",
    (512, 2, "json"): "4d4ad6ef79620ae3c7360f02166844e55a18f8302e60ed0e64d3d7e04df99e48",
    (513, 1, "text"): "07404af55251f759a6f7e5697014bb4cd0ba5709090285a647cdc54ac90e4276",
    (513, 1, "json"): "3d319e685613556196618bba540473787aeccafc40729e1a9aff512c5e8bd246",
    (513, 257, "text"): "9eac6f502f9f72aae73b021152a0e55d0298f6f1e987140b5f0585b7a0569a0f",
    (513, 257, "json"): "b3527681a35bf1c15ccc889756f4474b3f95e1afab957219405471b5b5684023",
}


@pytest.mark.parametrize(
    "length,total,fmt", list(CHUNK_EDGE_CYCLE_DIGESTS), ids=str
)
def test_cycle_bytes_at_chunk_edges(capsys, length, total, fmt):
    code, out, err = run_cli(
        capsys, "cycle", f"--seq={_cycle_text(length, total)}", "--format", fmt
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHUNK_EDGE_CYCLE_DIGESTS[length, total, fmt]
    if fmt == "json":
        lists = json.loads(out)
    else:
        rows = (line.split("\t", 1) for line in out.splitlines())
        lists = {key: value.split(" ") for key, value in rows}
    assert len(lists["sums"]) == length + 1
    assert len(lists.get("dominating", [])) == total
    assert ("canonical" in lists) == (total == 1)


# series --order 21 and 22 write 253 and 276 terms
CHUNK_EDGE_SERIES_DIGESTS = {
    (21, "text"): "87a44f5ed5cfd6eeb239b8fc1306832182da091c6bce3adb628489ed2706b680",
    (21, "json"): "968ebc986d43c501911242e60ea3d6953374f09ba35a5c7fe4165d9dbc231742",
    (22, "text"): "3c1c2f7f5273a32f570d39333bbc0c945d5e4011e15fb1015f41430870c39a2e",
    (22, "json"): "1f3a356b146f56f778372f1b10907c0d252bde5d3b65b764b3810fd9a06ae120",
}


@pytest.mark.parametrize(
    "order,fmt", list(CHUNK_EDGE_SERIES_DIGESTS), ids=str
)
def test_series_bytes_at_chunk_edges(capsys, order, fmt):
    code, out, err = run_cli(capsys, "series", "--order", str(order), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHUNK_EDGE_SERIES_DIGESTS[order, fmt]
    terms = json.loads(out)["terms"] if fmt == "json" else out.splitlines()
    assert len(terms) == (order + 1) * (order + 2) // 2


@pytest.mark.parametrize(
    "argv,size,limit",
    [
        # on CPython 3.11 the peak is near 105 KB streamed; with every row
        # held before the first write, near 615 KB
        (["sample", "--n", "12", "--k", "6", "--seed", "5", "--count"], "4000", 256 << 10),
        # 300 rows of 600 steps: near 72 KB streamed, 268 KB held
        (["phi", "--dir", "up", "--path", "UD" * 300, "--times"], "300", 140 << 10),
        # a JSON list fed by a generator, 200 rows of 400 steps: near 66 KB
        # streamed, 408 KB held
        (["phi", "--format", "json", "--dir", "up", "--path", "UD" * 200, "--times"],
         "200", 160 << 10),
        # L = 4001 with sum 3, most of the peak the mechanism's own lists:
        # text near 337 KB streamed, 518 KB with each list's text joined at
        # once; JSON near 345 KB streamed, 590 KB with the lists copied and
        # dumped whole
        (["cycle", "--seq"], _cycle_text(4001, 3), 440 << 10),
        (["cycle", "--format", "json", "--seq"], _cycle_text(4001, 3), 460 << 10),
        # 1891 terms: near 167 KB streamed, 784 KB dumped whole
        (["series", "--format", "json", "--order"], "60", 400 << 10),
    ],
    ids=["sample", "phi", "phi-json", "cycle", "cycle-json", "series-json"],
)
def test_rows_stream_in_bounded_memory(monkeypatch, argv, size, limit):
    # chunks of 8 rows keep a streamed peak far below a held one at a few
    # hundred rows; stdout goes to os.devnull, as a StringIO would keep
    # every row itself
    assert cli._CHUNK == 256  # the chunk size that ships
    monkeypatch.setattr(cli, "_CHUNK", 8)
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        # warm imports and caches on a small input: a count or order of
        # 1 to 6, or a one-term sequence
        cli.run([*argv, size[:1]])
        tracemalloc.start()
        try:
            cli.run([*argv, size])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < limit


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

    def test_unit_sum_json_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--seq=-++", "--format", "json")
        assert code == 0
        assert out == (
            '{"sums": [0, -1, 0, 1], "ranks": [1, 2, 0, 3], "dominating": [1],'
            ' "canonical_shift": 1, "canonical": "++-"}\n'
        )

    @pytest.mark.parametrize(
        "seq, text, json_out",
        [
            # empty: sum 0, no dominating shifts
            ("", "sums\t0\nranks\t0\n", '{"sums": [0], "ranks": [0]}\n'),
            # one term, sum 1: dominating 0 and the canonical rotation
            (
                "+",
                "sums\t0 1\nranks\t0 1\ndominating\t0\ncanonical\t0\t+\n",
                '{"sums": [0, 1], "ranks": [0, 1], "dominating": [0],'
                ' "canonical_shift": 0, "canonical": "+"}\n',
            ),
            # sum equal to the length: every shift dominates, no canonical row
            (
                "+++",
                "sums\t0 1 2 3\nranks\t0 1 2 3\ndominating\t0 1 2\n",
                '{"sums": [0, 1, 2, 3], "ranks": [0, 1, 2, 3], "dominating": [0, 1, 2]}\n',
            ),
        ],
        ids=["empty", "single-plus", "all-plus"],
    )
    def test_boundary_bytes(self, capsys, seq, text, json_out):
        assert run_cli(capsys, "cycle", f"--seq={seq}") == (0, text, "")
        assert run_cli(capsys, "cycle", f"--seq={seq}", "--format", "json") == (0, json_out, "")

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

    def test_dyck_draws_equal_class_zero_draws(self, capsys):
        # sample dispatches to sample_dyck without --k and to
        # sample_k_negative with it; at k = 0 both give the same paths
        argv = ["sample", "--n", "12", "--count", "20", "--seed", "7"]
        dyck = run_cli(capsys, *argv)
        assert dyck[0] == 0
        assert run_cli(capsys, *argv, "--k", "0") == dyck

    @pytest.mark.parametrize("fmt, expected", [("text", ""), ("json", '{"paths": []}\n')])
    def test_zero_count_bytes(self, capsys, fmt, expected):
        # no draw: text writes zero bytes, json an empty list
        assert run_cli(
            capsys, "sample", "--n", "3", "--count", "0", "--seed", "1", "--format", fmt
        ) == (0, expected, "")

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
            ["phi", "--dir", "up", "--path", "UD", "--times", "0"],
            # argparse may drop a "--" value and leave an empty list
            ["count", "--n=--"],
            ["phi", "--dir=--", "--path", "UD"],
        ],
    )
    def test_exit_two(self, capsys, argv):
        assert cli.run(argv) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["phi", "--dir", "up", "--path", "UD", "--times", "0"],
                "chungfeller phi: error: argument --times: must be >= 1, got 0",
            ),
            (
                ["sample", "--n", "1", "--count", "1", "--seed", str(2**64)],
                "chungfeller sample: error: argument --seed: must be in"
                f" 0..{2**64 - 1}, got {2**64}",
            ),
            (
                ["count", "--n", "three"],
                "chungfeller count: error: argument --n: invalid integer value: 'three'",
            ),
        ],
        ids=["times-below-range", "seed-above-range", "n-not-an-integer"],
    )
    def test_integer_option_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", message)

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "5"],
        ["sample", "--n", "30", "--k", "11", "--count", "3", "--seed", "1"],
        ["phi", "--dir", "down", "--times", "3", "--path", "DUDDUUUD"],
        ["cycle", "--seq=-+-++++-+"],
        ["count", "--n", "60", "--format", "json"],
        ["series", "--order", "12"],
        # a sum-1 sequence takes cycle's canonical-rotation branch
        ["cycle", "--seq=+-++-"],
        ["phi", "--dir", "up", "--path", "UUDDUD", "--times", "2"],
    ],
)
def test_optimized_interpreter_prints_the_same(argv):
    # python -O strips assert statements, so no output may depend on them;
    # -W error -X dev makes any warning, ResourceWarning included, fatal
    plain, *flagged = (
        subprocess.run(
            [sys.executable, *flags, "-m", "chungfeller", *argv],
            cwd=PACKAGE_PARENT,
            capture_output=True,
            text=True,
        )
        for flags in ([], ["-O"], ["-W", "error", "-X", "dev"])
    )
    assert (plain.returncode, plain.stderr) == (0, "")
    assert plain.stdout
    for proc in flagged:
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, plain.stdout, "")


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


@pytest.mark.parametrize(
    "code,loaded",
    [
        ("import chungfeller", []),
        # a submodule named in a from-import is imported and bound
        ("from chungfeller import counting", ["counting", "errors", "paths"]),
        ("cli.run(['count', '--n', '2'])", ["cli", "counting", "errors", "paths"]),
        ("cli.run(['verify', '--max-n', '2'])", ["cli", "counting", "errors", "paths", "series"]),
        ("cli.run(['phi', '--dir', 'up', '--path', 'UDUD'])", ["bijection", "cli", "errors", "paths"]),
        ("cli.run(['cycle', '--seq=-++'])", ["cli", "cycle", "errors", "paths"]),
        ("cli.run(['series', '--order', '2'])", ["cli", "counting", "errors", "paths", "series"]),
        (
            "cli.run(['sample', '--n', '3', '--k', '1', '--count', '2', '--seed', '1'])",
            ["bijection", "cli", "cycle", "errors", "paths", "sampler"],
        ),
    ],
    ids=["import", "submodule", "count", "verify", "phi", "cycle", "series", "sample"],
)
def test_each_command_loads_only_its_own_modules(code, loaded):
    # every command is a fresh process that compiles what it imports when
    # no bytecode is cached, so no subcommand may load another's mechanism
    script = (
        "import sys\n"
        + ("from chungfeller import cli\n" if code.startswith("cli.") else "")
        + f"{code}\n"
        "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'chungfeller'),"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=PACKAGE_PARENT,
        capture_output=True,
        text=True,
    )
    expected = ["chungfeller", *(f"chungfeller.{name}" for name in loaded)]
    assert (proc.returncode, proc.stderr) == (0, " ".join(expected) + "\n")


# Valid values of each subcommand's options, every size small enough to run
# at once: enumeration sizes are at most 8 or at least 13, which the bound
# refuses before any work.  No junk word is an integer that int() reads as
# more than 5.
_ENUMERABLE = st.one_of(st.integers(0, 8), st.integers(13, 60))
_OPTIONS = {
    "count": [("--n", _ENUMERABLE), ("--brute-force", None)],
    "verify": [("--max-n", st.one_of(st.integers(0, 8), st.integers(13, 10**6)))],
    "phi": [
        ("--dir", st.sampled_from(["up", "down"])),
        ("--path", st.text("UDx", max_size=14)),
        ("--times", st.integers(-1, 5)),
    ],
    "cycle": [("--seq", st.text("+-x", max_size=40))],
    "series": [("--order", st.integers(0, 25))],
    "sample": [
        ("--n", st.integers(0, 40)),
        ("--k", st.integers(-2, 42)),
        ("--count", st.integers(0, 5)),
        ("--seed", st.integers(0, 2**64)),
    ],
}
_FORMAT = ("--format", st.sampled_from(["text", "json"]))
_JUNK = ["", "x", "-1", "1.5", "0x10", " 5", "\u0663", "--", "-", "--bogus",
         "--format", "json", "UD", "+-", "-h"]


@st.composite
def argvs(draw):
    """A subcommand and, in any order, most of its options, their values
    mostly valid; now and then a junk word anywhere, the command's place
    included."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    words = []
    for option, values in [*_OPTIONS[command], _FORMAT]:
        if draw(st.integers(0, 7)) == 0:
            continue
        if values is None:
            words.append([option])
            continue
        junk = draw(st.integers(0, 7)) == 0
        value = draw(st.sampled_from(_JUNK) if junk else values.map(str))
        words.append(draw(st.sampled_from([[option, value], [f"{option}={value}"]])))
    argv = [command, *chain.from_iterable(draw(st.permutations(words)))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_JUNK)))
    return argv


@settings(deadline=None, max_examples=300)
@given(argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    # any argv ends in exit 0, 1 or 2 with no traceback; an exception other
    # than the package's own errors would propagate out of cli.run
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
