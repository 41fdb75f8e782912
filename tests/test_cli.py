import json
import time

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from quasih.cli import main
from quasih.fragment import generate
from quasih.rootsystem import GroupId
from quasih.serialize import fragment_csv, fragment_json, fragment_svg


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--group", "h2", "--n", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a1,b1,a2,b2,x,y"
        assert len(lines) == 12  # header + 11 points

    def test_json_origin_only(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--group", "h2", "--n", "0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 0
        assert doc["points"] == [{"omega": [[0, 0], [0, 0]], "cart": [0.0, 0.0]}]

    def test_svg_circle_count(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--group", "h2", "--n", "2", "--format", "svg")
        assert code == 0
        assert out.count("<circle") == 61

    def test_h3_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--group", "h3", "--n", "1", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "a1,b1,a2,b2,a3,b3,x,y,z"

    def test_h4_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--group", "h4", "--n", "0", "--format", "csv")
        assert out.splitlines()[0] == "a1,b1,a2,b2,a3,b3,a4,b4,x,y,z,w"

    def test_svg_rejected_for_h3(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--group", "h3", "--n", "1", "--format", "svg")
        assert code == 1
        assert "svg" in err

    def test_negative_n_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--group", "h2", "--n", "-1")
        assert code == 1

    def test_cap_exceeded_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--group", "h2", "--n", "3", "--cap", "10"
        )
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_usage_error(self, capsys, cap):
        code, out, err = run_cli(capsys, "generate", "--group", "h2", "--n", "0", "--cap", cap)
        assert code == 1 and out == ""
        assert err == "error: --cap must be positive\n"

    def test_cap_of_one_admits_the_origin_only(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--group", "h2", "--n", "0", "--cap", "1")
        assert code == 0 and len(out.splitlines()) == 2
        code, _, err = run_cli(capsys, "generate", "--group", "h2", "--n", "1", "--cap", "1")
        assert code == 2 and err == "error: reflection closure exceeded cap 1\n"

    def test_unknown_group_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "generate", "--group", "h5", "--n", "1")
        assert exc.value.code == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "frag.csv"
        code, out, _ = run_cli(
            capsys, "generate", "--group", "h2", "--n", "1", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().count("\n") == 12

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "generate", "--group", "h2", "--n", "3", "--format", "json")
        _, second, _ = run_cli(capsys, "generate", "--group", "h2", "--n", "3", "--format", "json")
        assert first == second


class TestSchemas:
    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    @pytest.mark.parametrize("group,n", [(GroupId.H2, 2), (GroupId.H3, 1), (GroupId.A2, 2)])
    def test_json_validates(self, group, n):
        from importlib import resources

        schema = json.loads(
            resources.files("quasih.data").joinpath("fragment.schema.json").read_text()
        )
        doc = json.loads(fragment_json(generate(group, n)))
        jsonschema.validate(doc, schema)

    def test_csv_rows_equal_point_count(self):
        for n in range(4):
            f = generate(GroupId.H2, n)
            assert len(fragment_csv(f).strip().splitlines()) == f.size + 1

    def test_json_counts_are_consistent(self):
        f = generate(GroupId.H2, 2)
        doc = json.loads(fragment_json(f))
        assert len(doc["points"]) == 61
        assert sum(o["size"] for o in doc["orbits"]) == 61
        assert sum(s["count"] for s in doc["shells"]) == 61

    def test_svg_deterministic(self):
        f = generate(GroupId.H2, 2)
        assert fragment_svg(f) == fragment_svg(f)


class TestLineCommand:
    def test_flags_deficiency(self, capsys):
        code, out, _ = run_cli(capsys, "line", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        flagged = {d["value"] for d in doc["deficiencies"]}
        assert "-1+2*tau" in flagged

    def test_no_deficiencies_at_two(self, capsys):
        code, out, _ = run_cli(capsys, "line", "--n", "2")
        doc = json.loads(out)
        assert code == 0 and doc["deficiencies"] == []

    def test_reports_mn_nn(self, capsys):
        _, out, _ = run_cli(capsys, "line", "--n", "3")
        doc = json.loads(out)
        assert (doc["m_n"], doc["n_n"]) == (1, 2)

    def test_csv_format(self, capsys):
        _, out, _ = run_cli(capsys, "line", "--n", "3", "--format", "csv")
        assert out.startswith("kind,value,level,float")
        assert "deficiency,-1+2*tau" in out

    def test_level_annotations(self, capsys):
        _, out, _ = run_cli(capsys, "line", "--n", "2")
        doc = json.loads(out)
        by_value = {e["value"]: e["level"] for e in doc["values"]}
        assert by_value["0"] == 0
        assert by_value["1"] == 1
        assert by_value["tau"] == 2


class TestCompareCommand:
    def test_nonempty_at_three(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--group", "h2", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["deficiency_count"] > 0
        assert doc["fragment_count"] == 211

    def test_empty_at_two(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--group", "h2", "--n", "2")
        doc = json.loads(out)
        assert doc["deficiency_count"] == 0
        assert doc["sigma_count"] == doc["fragment_count"] == 61

    def test_box_cap_is_exit_2(self, capsys, monkeypatch):
        # the 103^4 box is refused before any scan starts
        def no_scan(*args):
            raise AssertionError("scan started past the box cap")

        monkeypatch.setattr("quasih.cutproject.box_nonnegative", no_scan)
        code, out, err = run_cli(capsys, "compare", "--n", "40")
        assert code == 2 and out == ""
        assert err == "error: enumeration box of 112550881 points exceeds cap\n"


class TestVerifyCommand:
    def test_single_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "counts")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["checks"][0]["name"] == "counts"

    def test_identities_reports_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "identities")
        assert code == 0

    def test_cartan_tables_reports_bad_rows(self, capsys):
        # the H3 reference table is kept verbatim and four of its rows have
        # determinant -8, so this check exits 2 by design and names them;
        # acceptance criterion 6 pins the same four rows and passes
        code, out, err = run_cli(capsys, "verify", "--only", "cartan-tables")
        assert code == 2
        doc = json.loads(out)
        assert doc["passed"] is False
        h3 = doc["checks"][0]["details"]["h3"]
        assert len(h3["missing"]) == 4
        assert "cartan-tables" in err

    def test_coeff_bound_over_cap_is_exit_2(self, capsys):
        # H2 fits at bound 40, the H3 grid of 81^5 points is refused unbuilt
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--only", "conditions", "--coeff-bound", "40")
        elapsed = time.perf_counter() - t0
        assert code == 2
        assert json.loads(out)["checks"][0]["details"]["error"] == (
            "ResourceLimitError: generalized-Cartan grid of 3486784401 points exceeds cap 10000000"
        )
        assert err == "verification failed: conditions\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("bound", ("0", "-3"))
    def test_coeff_bound_below_one_usage_error(self, capsys, bound):
        code, out, err = run_cli(capsys, "verify", "--coeff-bound", bound)
        assert code == 1 and out == ""
        assert err == "error: --coeff-bound must be positive\n"

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--only", "nope")
        assert exc.value.code == 1
