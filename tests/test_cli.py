import json

import pytest

from crystalk.cli import CATALOG, main
from crystalk.lattice import validate_involution
from crystalk.toruskt import build_report

PM = {"n": 2, "matrix": [[1, 0], [0, -1]]}
SWAP = {"n": 2, "matrix": [[0, 1], [1, 0]]}
SHEAR = {"n": 2, "matrix": [[1, 1], [0, 1]]}


def write_input(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_shear_exits_3_with_entry(self, tmp_path, capsys):
        code = main(["classify", "--input", write_input(tmp_path, SHEAR)])
        err = capsys.readouterr().err
        assert code == 3
        assert "(A*A)[0][1]" in err

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classify", "--input", str(path)]) == 2

    def test_missing_field_exits_2(self, tmp_path, capsys):
        assert main(["classify", "--input", write_input(tmp_path, {"n": 2})]) == 2

    def test_non_square_exits_2(self, tmp_path, capsys):
        doc = {"n": 2, "matrix": [[1, 0, 0], [0, 1, 0]]}
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2

    def test_row_count_mismatch_exits_2(self, tmp_path, capsys):
        doc = {"n": 3, "matrix": [[1, 0], [0, 1]]}
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("doc", [{"n": 1, "matrix": [[True]]}, {"n": True, "matrix": [[1]]}])
    def test_boolean_exits_2(self, tmp_path, capsys, doc):
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2
        assert "got True" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1, 2], "x", {"n": 2}])
    def test_wrong_shape_names_expected_shape(self, tmp_path, capsys, doc):
        assert main(["classify", "--input", write_input(tmp_path, doc)]) == 2
        assert '{"n": int, "matrix": [[int, ...], ...]}' in capsys.readouterr().err

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

    def test_both_routes_take_two_smith_forms(self, capsys, snf_calls):
        assert main(["ranks", "--catalog", "pm-sheared", "--route", "both"]) == 0
        assert len(snf_calls) == 2

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

    def test_unknown_catalog_name_exits_2(self, capsys):
        assert main(["cstar", "--catalog", "no-such-entry"]) == 2

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


class TestVerify:
    def test_small_sweep_passes_and_flags_swap(self, capsys):
        code, doc = run_json(capsys, ["verify", "--n", "2", "--seed", "1", "--count", "1", "--format", "json"])
        assert code == 0
        assert doc["failures"] == 0
        assert doc["tables_regenerate_identically"] is True
        flags = {row["class"]: row["scope_flag"] for row in doc["results"]}
        assert flags["MixedNonSplit"] == "RationalOnly"

    def test_grid_bound_exits_2_and_skips_exterior_cleanly(self, capsys):
        code = main(["verify", "--n", "9", "--seed", "1", "--count", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "grid verifier" in captured.err
        assert "exterior verifier skipped cleanly" in captured.out


class TestCatalog:
    def test_every_entry_is_an_involution_and_recomputes(self, capsys):
        code, doc = run_json(capsys, ["catalog", "--check", "--format", "json"])
        assert code == 0
        assert all(rec["ok"] for rec in doc["entries"])
        assert {rec["name"] for rec in doc["entries"]} == {e.name for e in CATALOG}

    def test_listing(self, capsys):
        code = main(["catalog"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("infinite-dihedral", "pm-type", "cm-swap"):
            assert name in out
