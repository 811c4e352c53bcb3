import errno
import fcntl
import hashlib
import io
import json
import os
import random
import runpy
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crystalk
from crystalk import cli, oracle, toruskt
from crystalk.cli import CATALOG, MAX_ENTRY_BITS, MAX_N, VERIFY_MAX_COUNT, VERIFY_MAX_N, main
from crystalk.intlin import IntMatrix
from crystalk.lattice import canonical_matrix, validate_involution
from crystalk.repring import _load_table_bytes, canonical_table_bytes, load_tables, table_checksum
from crystalk.toruskt import build_report

PM = {"n": 2, "matrix": [[1, 0], [0, -1]]}
SWAP = {"n": 2, "matrix": [[0, 1], [1, 0]]}
SHEAR = {"n": 2, "matrix": [[1, 1], [0, 1]]}


def write_input(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sheared_canonical(a, b, c, shears, seed):
    """canonical_matrix(a, b, c) conjugated by seeded elementary shears.

    Conjugating by E = I + s·e_i e_j^T is the row operation row_i += s·row_j
    followed by the inverse column operation col_j -= s·col_i, O(n) each.
    """
    rows = canonical_matrix(a, b, c).to_rows()
    rng = random.Random(seed)
    for _ in range(shears):
        i, j = rng.sample(range(len(rows)), 2)
        s = rng.choice((-1, 1))
        rows[i] = [x + s * y for x, y in zip(rows[i], rows[j])]
        for row in rows:
            row[j] -= s * row[i]
    return rows


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestClassify:
    def test_swap(self, tmp_path, capsys):
        code, doc = run_json(
            capsys, ["classify", "--input", write_input(tmp_path, SWAP), "--format", "json"]
        )
        assert code == 0
        assert doc["class"] == "MixedNonSplit"
        assert doc["invariants"] == {"a": 0, "b": 0, "c": 1}

    def test_stdin_default(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": 1, "matrix": [[-1]]})))
        code, doc = run_json(capsys, ["classify", "--format", "json"])
        assert code == 0
        assert doc["class"] == "FreeOutsideOrigin"

    def test_input_dash_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": 1, "matrix": [[-1]]})))
        code, doc = run_json(capsys, ["classify", "--input", "-", "--format", "json"])
        assert code == 0
        assert doc["class"] == "FreeOutsideOrigin"

    def test_shear_exits_3_with_entry(self, tmp_path, capsys):
        code = main(["classify", "--input", write_input(tmp_path, SHEAR)])
        err = capsys.readouterr().err
        assert code == 3
        assert "(A*A)[0][1]" in err

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classify", "--input", str(path)]) == 2

    def test_deep_nesting_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "matrix": ' + "[" * 100_000)
        assert main(["classify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: input JSON is nested too deeply to parse\n"

    def test_missing_field_exits_2(self, tmp_path, capsys):
        assert main(["classify", "--input", write_input(tmp_path, {"n": 2})]) == 2

    def test_non_square_exits_2(self, tmp_path, capsys):
        doc = {"n": 2, "matrix": [[1, 0, 0], [0, 1, 0]]}
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2

    def test_row_count_mismatch_exits_2(self, tmp_path, capsys):
        doc = {"n": 3, "matrix": [[1, 0], [0, 1]]}
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2

    def test_n_above_cap_exits_2_before_reading_rows(self, tmp_path, capsys, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("rows read above the size cap")

        monkeypatch.setattr(crystalk.cli.IntMatrix, "from_rows", no_matrix)
        doc = {"n": MAX_N + 1, "matrix": [[1]]}
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"n = {MAX_N + 1} exceeds the supported maximum n <= {MAX_N}" in err

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_exits_2_before_reading_rows(self, tmp_path, capsys, n):
        doc = {"n": n, "matrix": "never read"}
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "input error: n must be at least 1\n"

    def test_n_at_cap_is_accepted(self, tmp_path, capsys):
        doc = {"n": MAX_N, "matrix": [[int(i == j) for j in range(MAX_N)] for i in range(MAX_N)]}
        path = write_input(tmp_path, doc)
        code, out = run_json(capsys, ["classify", "--input", path, "--format", "json"])
        assert code == 0
        assert out["invariants"] == {"a": MAX_N, "b": 0, "c": 0}

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([1, 2], "matrix row 0 must be a list of n = 2 integers, got 1"),
            ([[1, 0], None], "matrix row 1 must be a list of n = 2 integers, got None"),
            ([[1, 0], "ab"], "matrix row 1 must be a list of n = 2 integers, got 'ab'"),
            ([[1, 0], [0, 1, 0]], "matrix row 1 must be a list of n = 2 integers, got 3 entries"),
            ([[1, 0], [0, 1.0]], "matrix entry [1][1] must be an integer, got 1.0"),
        ],
    )
    def test_malformed_row_names_row_and_column(self, tmp_path, capsys, rows, message):
        assert main(["classify", "--input", write_input(tmp_path, {"n": 2, "matrix": rows})]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_entry_over_bit_cap_exits_2_before_validation(self, tmp_path, capsys, monkeypatch):
        def no_validation(*args):
            raise AssertionError("validated an entry over the bit cap")

        monkeypatch.setattr(crystalk.cli, "validate_involution", no_validation)
        doc = {"n": 2, "matrix": [[1, 0], [-(1 << MAX_ENTRY_BITS), -1]]}
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"input error: matrix entry [1][0] has {MAX_ENTRY_BITS + 1} bits, "
            f"over the cap of {MAX_ENTRY_BITS} bits\n"
        )

    def test_entry_at_bit_cap_is_accepted(self, tmp_path, capsys):
        # an odd shear of the reflection is the swap lattice
        doc = {"n": 2, "matrix": [[1, 0], [1 - (1 << MAX_ENTRY_BITS), -1]]}
        path = write_input(tmp_path, doc)
        code, out = run_json(capsys, ["classify", "--input", path, "--format", "json"])
        assert code == 0
        assert out["invariants"] == {"a": 0, "b": 0, "c": 1}

    @pytest.mark.parametrize("doc", [{"n": 1, "matrix": [[True]]}, {"n": True, "matrix": [[1]]}])
    def test_boolean_exits_2(self, tmp_path, capsys, doc):
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2
        assert "got True" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1, 2], "x", {"n": 2}])
    def test_wrong_shape_names_expected_shape(self, tmp_path, capsys, doc):
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2
        assert '{"n": int, "matrix": [[int, ...], ...]}' in capsys.readouterr().err

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_input_and_catalog_exclude_each_other(self, tmp_path, capsys, stdin):
        path = "-" if stdin else write_input(tmp_path, SWAP)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--catalog", "pm-type", "--input", path])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
    def test_json_is_the_report_header(self, capsys, entry):
        code, doc = run_json(capsys, ["classify", "--catalog", entry.name, "--format", "json"])
        assert code == 0
        report = build_report(validate_involution(entry.matrix))
        assert doc == {key: report[key] for key in doc}


class TestRanks:
    def test_both_routes_agree(self, tmp_path, capsys):
        code, doc = run_json(
            capsys,
            ["ranks", "--input", write_input(tmp_path, PM), "--route", "both", "--format", "json"],
        )
        assert code == 0
        assert doc["routes"]["delocalized"] == {"k0": 3, "k1": 3}
        assert doc["routes"]["kunneth"] == {"k0": 3, "k1": 3}
        assert doc["routes_agree"] is True

    def test_free_case_delocalized(self, tmp_path, capsys):
        doc_in = {"n": 3, "matrix": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]}
        code, doc = run_json(
            capsys, ["ranks", "--input", write_input(tmp_path, doc_in), "--format", "json"]
        )
        assert code == 0
        assert doc["ranks"] == {"k0": 12, "k1": 0}

    def test_both_routes_take_no_smith_form(self, capsys, snf_calls):
        assert main(["ranks", "--catalog", "pm-sheared", "--route", "both"]) == 0
        assert snf_calls == []

    def test_both_routes_run_each_route_once(self, capsys, count_calls):
        assembly = count_calls(toruskt.kunneth_assembly)
        delocalized = count_calls(toruskt.k_ranks_delocalized)
        assert main(["ranks", "--catalog", "pm-type", "--route", "both"]) == 0
        assert (len(assembly), len(delocalized)) == (1, 1)

    def test_kunneth_out_of_scope_exits_5(self, tmp_path, capsys):
        code = main(["ranks", "--input", write_input(tmp_path, SWAP), "--route", "kunneth"])
        assert code == 5


class TestCstar:
    def test_infinite_dihedral_catalog(self, capsys):
        code, doc = run_json(capsys, ["cstar", "--catalog", "infinite-dihedral", "--format", "json"])
        assert code == 0
        assert doc["ranks"] == {"k0": 3, "k1": 0}
        assert doc["scope_flag"] == "IntegralCertified"

    def test_pm_type_catalog(self, capsys):
        code, doc = run_json(capsys, ["cstar", "--catalog", "pm-type", "--format", "json"])
        assert code == 0
        assert doc["ranks"] == {"k0": 3, "k1": 3}

    def test_cm_swap_rational_only_with_caveat(self, capsys):
        code, doc = run_json(capsys, ["cstar", "--catalog", "cm-swap", "--format", "json"])
        assert code == 0
        assert doc["ranks"] == {"k0": 2, "k1": 2}
        assert doc["scope_flag"] == "RationalOnly"
        assert any("closed form" in note for note in doc["notes"])

    def test_sheared_involution_at_the_size_cap(self, tmp_path, capsys):
        a = c = MAX_N // 4
        b = MAX_N - a - 2 * c
        rows = sheared_canonical(a, b, c, shears=12, seed=MAX_N)
        assert any(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)
        path = write_input(tmp_path, {"n": MAX_N, "matrix": rows})
        code, doc = run_json(capsys, ["cstar", "--input", path, "--format", "json"])
        assert code == 0
        assert doc["invariants"] == {"a": a, "b": b, "c": c}
        assert doc["class"] == "MixedNonSplit"
        assert doc["fixed_set"] == {"dim": a + c, "components": 2**b}

    def test_unknown_catalog_name_exits_2(self, capsys):
        assert main(["cstar", "--catalog", "no-such-entry"]) == 2
        assert capsys.readouterr().err == "input error: no catalog entry named 'no-such-entry'\n"

    def test_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.jsonl")
        code1, doc1 = run_json(
            capsys, ["cstar", "--catalog", "pm-type", "--cache", cache, "--format", "json"]
        )
        code2, doc2 = run_json(
            capsys, ["cstar", "--catalog", "pm-type", "--cache", cache, "--format", "json"]
        )
        assert code1 == code2 == 0
        assert doc1 == doc2
        lines = [l for l in open(cache).read().splitlines() if l.strip()]
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["invariants"] == {"a": 1, "b": 1, "c": 0}

    def test_corrupt_cache_line_is_skipped(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        argv = ["cstar", "--catalog", "pm-type", "--cache", str(cache), "--format", "json"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        cache.write_text("{truncated\n" + cache.read_text())
        before = cache.read_bytes()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == doc
        assert "skipped 1 unreadable line" in captured.err
        assert cache.read_bytes() == before

        # a record for this key whose report does not render is skipped too,
        # and with no good record after it the request is a miss
        key = json.loads(before.splitlines()[-1])["key"]
        broken = (json.dumps({"key": key, "report": {}}) + "\n").encode()
        for fmt in ("json", "text"):
            argv = ["cstar", "--catalog", "pm-type", "--format", fmt]
            assert main(argv) == 0
            uncached = capsys.readouterr().out
            cache.write_bytes(broken)
            assert main(argv + ["--cache", str(cache)]) == 0
            captured = capsys.readouterr()
            assert captured.out == uncached
            assert "skipped 1 unreadable line" in captured.err
            written = cache.read_bytes()
            assert written.startswith(broken) and written.count(b"\n") == 2
            assert main(argv + ["--cache", str(cache)]) == 0  # a hit on the new record
            assert capsys.readouterr().out == uncached
            assert cache.read_bytes() == written

    def test_deeply_nested_cache_line_is_skipped(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("[" * 100_000 + "\n")
        argv = ["cstar", "--catalog", "pm-type", "--format", "json"]
        code, doc = run_json(capsys, argv + ["--cache", str(cache)])
        assert code == 0
        assert doc == run_json(capsys, argv)[1]
        assert cache.read_text().count("\n") == 2
        assert main(argv + ["--cache", str(cache)]) == 0
        assert "skipped 1 unreadable line" in capsys.readouterr().err

    def test_record_is_one_append_write(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        writes = []
        real_write = os.write

        def recording_write(fd, data):
            writes.append((fcntl.fcntl(fd, fcntl.F_GETFL), bytes(data)))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", recording_write)

        def cstar(name):
            writes.clear()
            argv = ["cstar", "--catalog", name, "--cache", str(cache), "--format", "json"]
            return run_json(capsys, argv)

        code, doc = cstar("pm-type")  # miss: one record, written once
        assert code == 0
        [(flags, record)] = writes
        assert flags & os.O_APPEND and flags & os.O_ACCMODE == os.O_WRONLY
        assert record.endswith(b"\n") and record.count(b"\n") == 1
        assert cache.read_bytes() == record
        assert json.loads(record)["report"] == doc

        assert cstar("pm-type") == (0, doc)  # hit: nothing written
        assert writes == []
        assert cache.read_bytes() == record

        assert cstar("cm-swap")[0] == 0  # miss: the file grows by one record
        [(_, second)] = writes
        assert cache.read_bytes() == record + second

    @pytest.mark.parametrize(
        "name, value",
        [
            ("SPEC_VERSION", "0.9"),
            ("__version__", "0.0.1"),
            ("table_checksum", lambda tables: "0" * 64),
        ],
    )
    def test_record_from_other_code_is_a_miss(self, tmp_path, capsys, monkeypatch, name, value):
        cache = tmp_path / "cache.jsonl"
        argv = ["cstar", "--catalog", "pm-type", "--cache", str(cache), "--format", "json"]
        with monkeypatch.context() as patch:
            patch.setattr(f"crystalk.cli.{name}", value)
            assert main(argv) == 0
        capsys.readouterr()
        before = cache.read_bytes()
        assert main(argv) == 0
        after = cache.read_bytes()
        assert after.startswith(before) and after.count(b"\n") == 2

    def test_pm_type_key_is_pinned(self, tmp_path, capsys, monkeypatch):
        """The key changes exactly when the command, input, spec, tables or
        version change, so a cache keeps hitting until one of them does; the
        table sha256 in the key is the one verified on load, with no second
        serialization of the tables."""
        load_tables()
        monkeypatch.setattr("crystalk.repring.canonical_table_bytes", None)
        cache = tmp_path / "cache.jsonl"
        assert main(["cstar", "--catalog", "pm-type", "--cache", str(cache)]) == 0
        assert json.loads(cache.read_bytes())["key"] == (
            "c084be5c71697258e46d34e8f62346a45a14ad786be31ee093b6b6d013de68ab"
        )


# a key no record below is written for, and a report that renders
KEY = hashlib.sha256(b"requested").hexdigest()
REPORT = build_report(validate_involution(CATALOG[2].matrix), kind="cstar")


def cache_line(key):
    return (json.dumps({"key": key, "report": REPORT}, sort_keys=True) + "\n").encode()


def other_keys(count):
    return b"".join(cache_line(hashlib.sha256(str(i).encode()).hexdigest()) for i in range(count))


class TestCacheScan:
    """cli._cache_lookup parses only the lines that could hold the key."""

    @pytest.fixture
    def parses(self, monkeypatch):
        lines = []
        loads = cli.json.loads

        def counting_loads(text, *args, **kwargs):
            lines.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(cli.json, "loads", counting_loads)
        return lines

    def lookup(self, tmp_path, data):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(data)
        return cli._cache_lookup(str(path), KEY)

    def test_miss_parses_no_line_and_hit_parses_one(self, tmp_path, capsys, parses):
        records = other_keys(500)
        assert self.lookup(tmp_path, records) is None
        assert parses == []
        assert self.lookup(tmp_path, records + cache_line(KEY) + records) == (
            REPORT,
            cli._report_text(REPORT),
        )
        assert len(parses) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "line",
        [
            cache_line(KEY).replace(
                KEY.encode(), "".join(f"\\u{ord(ch):04x}" for ch in KEY).encode()
            ),
            b"\xef\xbb\xbf" + cache_line(KEY),
            (json.dumps({"key": KEY, "note": "\u00e9", "report": REPORT}, ensure_ascii=False)
             + "\n").encode(),
            # UTF-16 and UTF-32 put NULs between the key's bytes
            cache_line(KEY).decode().encode("utf-16-be"),
            cache_line(KEY).decode().encode("utf-32-be"),
        ],
        ids=["escaped-key", "bom", "non-ascii", "utf-16", "utf-32"],
    )
    def test_line_holding_the_key_is_a_hit(self, tmp_path, capsys, parses, line):
        assert self.lookup(tmp_path, other_keys(3) + line)[0] == REPORT
        assert parses == [line]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "line, unreadable",
        [
            (cache_line("a\\b"), 0),
            ('{"key": "\u00e9", "report": {}}\n'.encode(), 0),
            (b'{"key": "\xff"}\n', 1),
            (b'{"key": "x\x00"}\n', 1),
        ],
        ids=["backslash", "non-ascii", "bad-utf8", "nul"],
    )
    def test_line_that_could_hide_a_key_is_parsed(
        self, tmp_path, capsys, parses, line, unreadable
    ):
        assert self.lookup(tmp_path, other_keys(3) + line) is None
        assert parses == [line]
        warning = f"warning: skipped 1 unreadable line(s) in cache {tmp_path / 'cache.jsonl'}\n"
        assert capsys.readouterr().err == (warning if unreadable else "")

    def test_line_that_cannot_be_an_object_is_counted_unparsed(self, tmp_path, capsys, parses):
        truncated = b'{"key": "' + KEY[:20].encode() + b"\n"
        hostile = [b"[1]\n", b' "x" \n', b"null\n", truncated]
        silent = [b"\n", b" \t\r\n", b"\x0c\n", b"\x0b\x0c\n"]
        assert self.lookup(tmp_path, b"".join(hostile + silent) + other_keys(2)) is None
        assert parses == []
        warning = f"warning: skipped 4 unreadable line(s) in cache {tmp_path / 'cache.jsonl'}\n"
        assert capsys.readouterr().err == warning

    def test_damaged_record_for_another_key_is_passed_over(self, tmp_path, capsys, parses):
        """The one narrowing against parsing every line: a damaged record for
        another key is not read, so it does not count toward the warning
        until a request for its key reads it."""
        other = hashlib.sha256(b"other").hexdigest().encode()
        damaged = b'{"key": "' + other + b'", "report": }\n'
        assert self.lookup(tmp_path, damaged + other_keys(2)) is None
        assert parses == []
        assert capsys.readouterr().err == ""
        damaged_hit = b'{"key": "' + KEY.encode() + b'", "report": }\n'
        assert self.lookup(tmp_path, damaged_hit + other_keys(2)) is None
        assert parses == [damaged_hit]
        assert "skipped 1 unreadable line(s)" in capsys.readouterr().err


class TestFormats:
    def test_text_and_json_agree_numerically(self, tmp_path, capsys):
        path = write_input(tmp_path, PM)
        code, doc = run_json(capsys, ["ranks", "--input", path, "--format", "json"])
        assert code == 0
        code = main(["ranks", "--input", path, "--format", "text"])
        text = capsys.readouterr().out
        assert code == 0
        assert f"k0={doc['ranks']['k0']}" in text
        assert f"k1={doc['ranks']['k1']}" in text

    def test_json_output_roundtrips(self, tmp_path, capsys):
        code, doc = run_json(
            capsys, ["cstar", "--input", write_input(tmp_path, SWAP), "--format", "json"]
        )
        assert code == 0
        assert json.loads(json.dumps(doc)) == doc


# report-shaped payloads for cli._indented_json: every dict key is a str, as
# in every payload cli emits (json.dumps would turn other keys into strings);
# the strings hold quotes, backslashes, ", " and text outside ASCII
EMIT_TEXT = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'a", "b', "1, 2", "[3]", "{}", "\u00e9t\u00e9", "\u2028", "\U0001f600", "\x00\n"]
)
EMIT_INT = st.integers(-(2**70), 2**70) | st.sampled_from([2**64, -(2**64) - 1, 10**40])
EMIT_LEAF = st.none() | st.booleans() | EMIT_INT | st.floats() | EMIT_TEXT
EMIT_PAYLOAD = st.recursive(
    EMIT_LEAF,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(EMIT_INT, max_size=6),
        st.dictionaries(EMIT_TEXT, kids, max_size=4),
    ),
    max_leaves=24,
)


def bench_gen():
    """The globals of ``bench/gen.py``, the benchmark's input generator."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    if not path.exists():
        pytest.skip("bench/ is absent")
    return runpy.run_path(str(path))


class TestIndentedJson:
    """cli._indented_json writes json.dumps(x, indent=2, sort_keys=True) text."""

    @settings(max_examples=500)
    @given(payload=EMIT_PAYLOAD)
    def test_equals_json_dumps(self, payload):
        assert cli._indented_json(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "payload",
        [{}, [], (), [[]], {"a": {}}, [1, [], {}], [1, {}, 2], [0], [-1, True, None, 2.5],
         [1, "a, b", 2], [2**64, -(2**64)], CATALOG[3],
         {"z": 1, "a": [3, -4], "m": {"k": (1, (2,))}}],
    )
    def test_equals_json_dumps_on_edge_payloads(self, payload):
        assert cli._indented_json(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_equals_json_dumps_on_an_n400_report(self):
        case = bench_gen()["make_case"](140, 120, 70, random.Random(1))
        lat = validate_involution(IntMatrix.from_rows([list(row) for row in case.rows]))
        report = build_report(lat, kind="cstar")
        assert report["input"]["n"] == 400
        assert cli._indented_json(report) == json.dumps(report, indent=2, sort_keys=True)


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_command_patched_after_a_call_is_the_one_that_runs(self, capsys, monkeypatch):
        assert main(["cstar", "--catalog", "pm-type"]) == 0
        capsys.readouterr()
        seen = []
        monkeypatch.setattr(cli, "cmd_cstar", lambda args: seen.append(args.catalog) or 7)
        assert main(["cstar", "--catalog", "pm-type"]) == 7
        assert seen == ["pm-type"]

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["cstar", "--help"], 0), (["cstar", "--no-such-flag"], 2)],
        ids=["help", "subcommand-help", "unknown-argument"],
    )
    def test_a_rebuilt_and_a_reused_parser_print_the_same(self, capsys, argv, code):
        cli.build_parser.cache_clear()
        printed = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        out, err = printed[0]
        if code == 0:
            assert out.startswith("usage: crystalk") and err == ""
        else:
            assert out == "" and err.endswith("error: unrecognized arguments: --no-such-flag\n")


class TestTerminalWidth:
    """Help and usage text is laid out at argparse's COLUMNS=80 width, whatever
    the terminal says."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--help"], 0),
            (["cstar", "--help"], 0),
            (["verify", "--help"], 0),
            (["cstar", "--format", "x"], 2),
            (["verify"], 2),
        ],
        ids=["help", "cstar-help", "verify-help", "bad-format", "missing-n"],
    )
    def test_help_and_usage_ignore_columns(self, capsys, monkeypatch, argv, code):
        printed = []
        for columns in ("80", "40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            printed.append(capsys.readouterr())
        assert printed[1] == printed[0]
        assert printed[2] == printed[0]


class TestVerify:
    def test_small_sweep_passes_and_flags_swap(self, capsys):
        code, doc = run_json(capsys, ["verify", "--n", "2", "--seed", "1", "--count", "1", "--format", "json"])
        assert code == 0
        assert doc["failures"] == 0
        assert doc["tables_regenerate_identically"] is True
        flags = {row["class"]: row["scope_flag"] for row in doc["results"]}
        assert flags["MixedNonSplit"] == "RationalOnly"

    def test_sweep_runs_the_delocalized_route_twice_per_member(self, capsys, count_calls):
        members = len(oracle.involution_corpus(4, 7, 1))
        calls = count_calls(toruskt.k_ranks_delocalized)
        assert main(["verify", "--n", "4", "--seed", "7", "--count", "1"]) == 0
        # once inside integral_k_theory, once in the separate hexagon check
        assert members == 9 and len(calls) == 2 * members

    def test_grid_bound_exits_2_before_the_skip_notice(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "involution_corpus", lambda *args: pytest.fail("built"))
        code = main(["verify", "--n", "11", "--seed", "1", "--count", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "input error: grid verifier is bounded at n <= 6; "
            "pass --skip-grid to sweep n = 11 without it\n"
        )

    def test_json_past_exterior_bound_is_one_document(self, capsys):
        argv = ["verify", "--n", "11", "--skip-grid", "--seed", "1", "--count", "1"]
        code, doc = run_json(capsys, argv + ["--format", "json"])
        assert code == 0
        assert doc["failures"] == 0
        assert all("exterior" not in row["checks"] for row in doc["results"])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_exterior_skip_notice_is_one_stderr_line(self, capsys, fmt):
        argv = ["verify", "--n", "11", "--skip-grid", "--seed", "7", "--count", "1"]
        code = main(argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "exterior verifier skipped cleanly (bounded at n <= 10)\n"
        if fmt == "json":
            assert json.loads(captured.out)["failures"] == 0  # the whole stdout is one document
        else:
            assert captured.out.endswith("failures: 0\n")

    def test_n_above_cap_exits_2_before_the_corpus(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "involution_corpus", lambda *args: pytest.fail("built"))
        n = VERIFY_MAX_N + 1
        code = main(["verify", "--n", str(n), "--skip-grid"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"input error: n = {n} exceeds the verify sweep maximum n <= {VERIFY_MAX_N}\n"
        )

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_exits_2_before_the_corpus(self, capsys, monkeypatch, n):
        monkeypatch.setattr(oracle, "involution_corpus", lambda *args: pytest.fail("built"))
        code = main(["verify", "--n", str(n)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: n must be at least 1\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_disagreeing_verifier_exits_4_after_the_sweep(self, capsys, monkeypatch, fmt):
        real = oracle.tate_invariants
        calls = []

        def wrong_once(m):
            calls.append(m)
            inv = real(m)
            return inv._replace(a=inv.a + 1) if len(calls) == 1 else inv

        monkeypatch.setattr(oracle, "tate_invariants", wrong_once)
        code = main(["verify", "--n", "2", "--seed", "1", "--count", "1", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == "internal invariant violation: 1 verifier mismatches\n"
        if fmt == "json":
            doc = json.loads(captured.out)
            assert doc["failures"] == 1
            assert [row["ok"] for row in doc["results"]] == [False, True, True, True]
            assert [k for k, ok in doc["results"][0]["checks"].items() if not ok] == ["tate"]
        else:
            lines = captured.out.splitlines()
            assert lines[2].endswith("FAIL")
            assert all(line.endswith("pass") for line in lines[3:-1])
            assert lines[-1] == "failures: 1"

    def test_count_above_cap_exits_2_before_the_skip_notice(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "involution_corpus", lambda *args: pytest.fail("built"))
        count = VERIFY_MAX_COUNT + 1
        code = main(["verify", "--n", "11", "--skip-grid", "--count", str(count)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"input error: count = {count} exceeds the verify sweep maximum "
            f"count <= {VERIFY_MAX_COUNT}\n"
        )

    def test_count_zero_exits_2_before_the_skip_notice(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "involution_corpus", lambda *args: pytest.fail("built"))
        code = main(["verify", "--n", "11", "--skip-grid", "--count", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "input error: count must be at least 1\n"

    def test_exterior_check_runs_at_its_bound(self, capsys):
        argv = ["verify", "--n", "10", "--skip-grid", "--seed", "7", "--count", "1"]
        code, doc = run_json(capsys, argv + ["--format", "json"])
        assert code == 0
        assert doc["failures"] == 0
        assert all(row["checks"]["exterior"] for row in doc["results"])


class TestCatalog:
    def test_every_entry_is_an_involution_and_recomputes(self, capsys):
        code, doc = run_json(capsys, ["catalog", "--check", "--format", "json"])
        assert code == 0
        assert all(rec["ok"] for rec in doc["entries"])
        assert {rec["name"] for rec in doc["entries"]} == {e.name for e in CATALOG}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_wrong_expected_value_exits_4_after_the_listing(self, capsys, monkeypatch, fmt):
        first = CATALOG[0]._replace(expected_k0=CATALOG[0].expected_k0 + 1)
        monkeypatch.setattr(cli, "CATALOG", (first, *CATALOG[1:]))
        code = main(["catalog", "--check", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == (
            "internal invariant violation: 1 catalog entries failed recomputation\n"
        )
        if fmt == "json":
            oks = [rec["ok"] for rec in json.loads(captured.out)["entries"]]
            assert oks == [False] + [True] * (len(CATALOG) - 1)
        else:
            lines = captured.out.splitlines()
            assert lines[0].endswith("  MISMATCH")
            assert all(line.endswith("  ok") for line in lines[1:])

    def test_listing(self, capsys):
        code = main(["catalog"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("infinite-dihedral", "pm-type", "cm-swap"):
            assert name in out


def run_package_copy(tmp_path, argv, table_bytes=None):
    """``python -m crystalk argv`` on a copy of the package under ``tmp_path``
    whose table file holds ``table_bytes``, or is missing."""
    shutil.copytree(
        Path(crystalk.__file__).parent,
        tmp_path / "crystalk",
        ignore=shutil.ignore_patterns("__pycache__", "repring_tables.json"),
    )
    if table_bytes is not None:
        (tmp_path / "crystalk" / "data" / "repring_tables.json").write_bytes(table_bytes)
    return subprocess.run(
        [sys.executable, "-m", "crystalk", *argv],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )


class TestTableIntegrity:
    @pytest.mark.parametrize(
        "argv",
        [["cstar", "--catalog", "pm-type"], ["verify", "--n", "2", "--count", "1"]],
        ids=["cstar", "verify"],
    )
    def test_checksum_mismatch_exits_4(self, tmp_path, argv):
        doc = json.loads(_load_table_bytes())
        doc["sha256"] = "0" * 64
        run = run_package_copy(tmp_path, argv, json.dumps(doc).encode())
        assert run.returncode == 4
        assert run.stdout == ""
        assert run.stderr.startswith(
            "internal invariant violation: table checksum mismatch: recorded " + "0" * 64
        )
        assert run.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["cstar", "--catalog", "pm-type"], ["verify", "--n", "2", "--count", "1"]],
        ids=["cstar", "verify"],
    )
    def test_table_file_that_cannot_be_opened(self, tmp_path, argv):
        # a copy of the package without its table file is a broken install
        run = run_package_copy(tmp_path, argv)
        assert run.returncode == 4
        assert run.stdout == ""
        assert run.stderr.startswith(
            "internal invariant violation: packaged table file cannot be read: [Errno 2]"
        )
        assert run.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"not json", "table file is not a UTF-8 JSON object"),
            (b"\xff\xfe\x00", "table file is not a UTF-8 JSON object"),
            (b"[1, 2]", "table file is not a UTF-8 JSON object"),
            (b'{"tables": {}}', "table file is not a UTF-8 JSON object"),
            (b'{"tables": {}, "sha256": "0"}', "table checksum mismatch: recorded 0,"),
        ],
        ids=["not-json", "not-utf8", "not-object", "no-checksum", "bad-checksum"],
    )
    def test_unreadable_table_file_exits_4(self, tmp_path, capsys, monkeypatch, payload, message):
        bad = tmp_path / "tables.json"
        bad.write_bytes(payload)
        monkeypatch.setattr("crystalk.repring._TABLE_FILE", str(bad))
        load_tables.cache_clear()
        try:
            code = main(["cstar", "--catalog", "pm-type"])
        finally:
            load_tables.cache_clear()
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(f"internal invariant violation: {message}")
        assert captured.err.count("\n") == 1

    def test_environment_cannot_change_a_report(self, tmp_path, capsys, monkeypatch):
        """The packaged file is the tables' only source: a table file named in
        the environment is never read, not even one that vouches for its own
        edited tables with a matching checksum."""
        doc = json.loads(_load_table_bytes())
        doc["tables"]["localize"]["SignZ"]["MinMinus"]["free_rank"] = 6
        doc["sha256"] = table_checksum(doc["tables"])
        swapped = tmp_path / "swapped.json"
        swapped.write_bytes(canonical_table_bytes(doc))
        argv = ["cstar", "--catalog", "pm-type", "--format", "json"]

        # read as the packaged file, the swapped tables do change the report
        monkeypatch.setattr("crystalk.repring._TABLE_FILE", str(swapped))
        load_tables.cache_clear()
        try:
            assert main(argv) == 0
        finally:
            load_tables.cache_clear()
        swapped_report = capsys.readouterr().out

        runs = []
        for named in (None, swapped, tmp_path / "missing.json"):
            env = buffered_child_env()
            env.pop("CRYSTALK_TABLE_PATH", None)
            if named is not None:
                env["CRYSTALK_TABLE_PATH"] = str(named)
            run = subprocess.run(
                [sys.executable, "-m", "crystalk", *argv], env=env, capture_output=True
            )
            runs.append((run.returncode, run.stdout, run.stderr))
        assert runs[0][0] == 0 and runs[0][2] == b""
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert runs[0][1].decode() != swapped_report


class TestStartup:
    @pytest.mark.parametrize(
        "code",
        [
            "import crystalk.cli",
            "import runpy; sys.argv = ['crystalk', 'cstar', '--catalog', 'pm-type']\n"
            "try:\n    runpy.run_module('crystalk', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code in (0, None), exc.code",
            "import runpy; sys.argv = ['crystalk', 'verify', '--n', '6', '--seed', '7', "
            "'--count', '2']\n"
            "try:\n    runpy.run_module('crystalk', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code in (0, None), exc.code",
        ],
        ids=["import", "cstar", "verify"],
    )
    def test_numpy_is_not_loaded(self, code):
        src = str(Path(crystalk.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        script = f"import sys\n{code}\nprint('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines()[-1] == "False"

    def test_cold_import_loads_no_dataclasses(self):
        """The value records are NamedTuples and slotted classes, so importing
        the CLI pulls in neither dataclasses nor the inspect module it loads."""
        src = str(Path(crystalk.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        script = (
            "import sys\nbefore = set(sys.modules)\nimport crystalk.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines()[-1] == "[]"


# stdin for the fuzz below: JSON text built from fragments, so it can hold
# what json.dumps never writes (duplicate keys, 5000-digit integers, nesting
# past the parser's depth), optionally with invalid UTF-8 spliced in
def json_object(members):
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in members) + "}"


def json_array(items):
    return "[" + ", ".join(items) + "]"


def splice(data, cut):
    return data if cut is None else data[: cut[0]] + cut[1] + data[cut[0]:]


LITERAL = st.one_of(
    st.recursive(
        st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
        lambda kids: st.lists(kids, max_size=3)
        | st.dictionaries(st.text(max_size=3), kids, max_size=3),
        max_leaves=8,
    ).map(json.dumps),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
    st.sampled_from(["NaN", "-Infinity", "1e400", "true", "1" * 5000, "-" + "9" * 5000]),
)
ROW = st.lists(st.integers(-2, 2).map(str) | LITERAL, max_size=4).map(json_array)
MATRIX = LITERAL | st.lists(ROW | LITERAL, max_size=4).map(json_array)
MEMBER = st.one_of(
    st.tuples(st.just("n"), st.integers(-1, 4).map(str) | LITERAL),
    st.tuples(st.just("matrix"), MATRIX),
    st.tuples(st.text(max_size=3), LITERAL),
)
SQUARE = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
)
STDIN_TEXT = st.one_of(
    LITERAL,
    st.tuples(st.integers(1, 3), MATRIX, st.lists(MEMBER, max_size=2)).map(
        lambda t: json_object([("n", str(t[0])), ("matrix", t[1]), *t[2]])
    ),
    SQUARE.map(lambda rows: json.dumps({"n": len(rows), "matrix": rows})),
    st.sampled_from(CATALOG).map(lambda e: json.dumps({"n": e.n, "matrix": e.matrix.to_rows()})),
)
BAD_UTF8 = st.tuples(st.integers(0, 10**4), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
STDIN_BYTES = st.builds(splice, STDIN_TEXT.map(str.encode), st.none() | st.none() | st.none() | BAD_UTF8)


def run_in_process(argv, stdin_bytes):
    """cli.main with stdin read strictly as UTF-8; returns (code, stdout, stderr)."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def buffered_child_env():
    """The environment for a crystalk child with a buffered stdout unless -u
    is passed: PYTHONUNBUFFERED would make every write fail inside cli.main."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(crystalk.__file__).parent.parent)
    return env


class TestExitCodes:
    @settings(max_examples=200)
    @given(
        stdin_bytes=STDIN_BYTES,
        command=st.sampled_from(["classify", "ranks", "cstar"]),
        fmt=st.sampled_from(["text", "json"]),
    )
    def test_any_stdin_gets_a_documented_exit_and_one_line(self, stdin_bytes, command, fmt):
        code, out, err = run_in_process([command, "--format", fmt], stdin_bytes)
        assert code in (0, 2, 3)
        assert err.count("\n") <= 1 and "Traceback" not in err
        if code:
            assert out == "" and err.startswith(("input error: ", "error: matrix is not"))
        elif fmt == "json":
            json.loads(out)

    def test_a_bug_propagates_instead_of_reading_as_an_input_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("k0")

        monkeypatch.setattr(crystalk.cli, "build_report", broken)
        with pytest.raises(KeyError, match="k0"):
            main(["cstar", "--catalog", "pm-type"])

    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["at-exit-flush", "inside-main"])
    def test_closed_pipe_exits_141_quietly(self, flags):
        """A reader that closed stdout is not an input error; with -u the
        write fails inside cli.main, without it at the final flush."""
        env = buffered_child_env()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run(
                [sys.executable, *flags, "-m", "crystalk", "cstar", "--catalog", "pm-type",
                 "--format", "json"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert run.stderr == b""
        assert run.returncode == 141

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--catalog", "pm-type"],
            ["verify", "--n", "5", "--count", "3", "--skip-grid", "--format", "json"],
            # argparse writes help inside parse_args and ignores a failed write
            ["--help"],
            ["cstar", "--help"],
        ],
        ids=["short", "over-one-buffer", "help", "subcommand-help"],
    )
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_full_device_is_an_output_error(self, flags, argv):
        """A stdout that cannot be written exits 2 with one line, whether the
        write fails inside cli.main, in argparse's help or at the final flush."""
        with open("/dev/full", "wb") as full:
            run = subprocess.run(
                [sys.executable, *flags, "-m", "crystalk", *argv],
                env=buffered_child_env(), stdout=full, stderr=subprocess.PIPE,
            )
        message = f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert run.stderr.decode() == message
        assert run.returncode == 2
