import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import quasih
from quasih.cli import main
from quasih.cutproject import deficiencies_2d, sigma_2d
from quasih.fragment import generate
from quasih.kernel import cyclo_rows
from quasih.lineanalysis import LINE_CAP, LineSet, deficiencies_1d
from quasih import serialize
from quasih.rootsystem import GroupId, OmegaVector, cartesian
from quasih.serialize import (
    _decimal_words,
    _int_words,
    _text,
    fragment_csv,
    fragment_csv_chunks,
    fragment_json,
    fragment_json_chunks,
    fragment_svg,
    fragment_svg_chunks,
)


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

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_out_file_equals_stdout(self, capsys, tmp_path, fmt):
        args = ("generate", "--group", "h2", "--n", "3", "--format", fmt)
        _, stdout, _ = run_cli(capsys, *args)
        target = tmp_path / f"frag.{fmt}"
        code, out, _ = run_cli(capsys, *args, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == stdout.encode()

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


def _cli_process(*argv, stdout=subprocess.PIPE):
    """A cold ``python -m quasih.cli`` child on this checkout's package,
    its stderr and by default its stdout piped."""
    path = [str(Path(quasih.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.Popen(
        [sys.executable, "-m", "quasih.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE,
    )


_needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestOutputErrors:
    def test_reader_closing_stdout_ends_quietly(self):
        # `| head -2`: about 1 MB of csv, far past a pipe buffer
        proc = _cli_process("generate", "--group", "h2", "--n", "10")
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head[0] == b"a1,b1,a2,b2,x,y\n"
        assert b"Traceback" not in err and err == b""

    def test_unopenable_out_is_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        proc = _cli_process("generate", "--group", "h2", "--n", "1", "--out", str(target))
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 1 and out == b""
        assert b"Traceback" not in err
        assert err.decode() == f"error: cannot write --out {target}: No such file or directory\n"
        assert not target.parent.exists()

    @_needs_dev_full
    def test_full_out_is_usage_error(self):
        proc = _cli_process("generate", "--group", "h2", "--n", "3", "--out", "/dev/full")
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 1 and out == b""
        assert err.decode() == "error: cannot write --out /dev/full: No space left on device\n"

    @_needs_dev_full
    def test_full_stdout_is_usage_error(self):
        with open("/dev/full", "wb") as full:
            proc = _cli_process("generate", "--group", "h2", "--n", "3", stdout=full)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.decode() == "error: cannot write stdout: No space left on device\n"


class TestWriterMemory:
    @pytest.mark.parametrize("writer,group,n", [
        (fragment_csv_chunks, GroupId.H4, 3),
        (fragment_json_chunks, GroupId.H4, 3),
        (fragment_svg_chunks, GroupId.H2, 10),
    ])
    def test_peak_traced_allocation_while_writing(self, writer, group, n):
        # the writers read slabs of CHUNK_ROWS rows: H4 n=3 has 46,321
        # points, and its whole (N, 8) int64 array alone is 2.8 MB
        f = generate(group, n)
        tracemalloc.start()
        try:
            for _ in writer(f):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


def _near(draw, value, ulps=3):
    """``value`` or a neighbour at most ``ulps`` doubles away, either sign."""
    x = float(value) * draw(st.sampled_from((1.0, -1.0)))
    for _ in range(draw(st.integers(0, ulps))):
        x = float(np.nextafter(x, draw(st.sampled_from((math.inf, -math.inf)))))
    return x


@st.composite
def decimal_values(draw, places):
    """Floats where decimal text is hard to get right at ``places``: ties
    (k + 0.5) / 10**places and their neighbours, values near the 1e-4 of
    repr's exponent form and the 1000 of the table, zeros of either sign,
    tiny values that round to zero, and any double at all."""
    return draw(st.one_of(
        st.floats(),
        st.floats(-2000, 2000),
        st.floats(-1e-9, 1e-9),
        st.builds(lambda k: (k + 0.5) / 10 ** places, st.integers(-10 ** 16, 10 ** 16)).flatmap(
            lambda x: st.composite(lambda d: _near(d, x))()),
        st.sampled_from((1e-4, 1000.0, 0.5 / 10 ** places, 0.0)).flatmap(
            lambda x: st.composite(lambda d: _near(d, x, 40))()),
    ))


def _rows(words):
    return _text(words, "\n")


class TestDecimalText:
    """The digit-table formatter against Python's own text, value by value."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(-2 ** 63, 2 ** 63 - 1),
        st.integers(-20_000, 20_000),
        st.sampled_from((-2 ** 63, 2 ** 63 - 1, -10 ** 18, 10 ** 18 - 1, 0)),
    ), min_size=1, max_size=40))
    def test_int_is_percent_d(self, values):
        x = np.array(values, dtype=np.int64)
        assert _rows(_int_words(x)) == "".join("%d\n" % v for v in values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(decimal_values(12), min_size=1, max_size=40))
    def test_fixed_12_is_percent_f_with_unsigned_zero(self, values):
        expected = ["%.12f" % v for v in values]
        expected = [t[1:] if t == "-0.000000000000" else t for t in expected]
        assert _rows(_decimal_words(np.array(values), 12)) == "".join(t + "\n" for t in expected)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(decimal_values(12), min_size=1, max_size=40))
    def test_shortest_12_is_repr_of_round(self, values):
        expected = "".join(repr(round(v, 12) + 0.0) + "\n" for v in values)
        assert _rows(_decimal_words(np.array(values), 12, shortest=True)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(decimal_values(3), min_size=1, max_size=40))
    def test_fixed_3_is_percent_f(self, values):
        expected = "".join("%.3f\n" % v for v in values)
        assert _rows(_decimal_words(np.array(values), 3, signed_zero=True)) == expected

    def test_chunk_of_cells_keeps_its_rows_and_columns(self):
        c = np.array([[1.5, -0.0], [1e-5, 1234.5]])
        words = _decimal_words(c, 12, shortest=True)
        assert _text(words[:, 0], ",", words[:, 1], ";") == "1.5,0.0;1e-05,1234.5;"

    def test_a2_n12_takes_python_text_for_its_four_ties(self, monkeypatch):
        # four coordinates of a2 n=12 (+-10.5 * sqrt 2, 14.8492424049175)
        # have c * 1e12 on a half-integer; every other one is at least one
        # spacing away and printed from the tables
        texts = []
        words = serialize._words
        monkeypatch.setattr(serialize, "_words", lambda t, w=0: texts.append(t) or words(t, w))
        fragment = generate(GroupId.A2, 12)
        fragment_csv(fragment)
        assert sorted(texts) == ["-14.849242404918"] * 2 + ["14.849242404918"] * 2
        texts.clear()
        fragment_json(fragment)
        assert len(texts) == 4

    def test_svg_scale_is_the_largest_math_hypot(self):
        # np.hypot differs from math.hypot in the last bit on 1,244 of these
        # 221,551 points; the writer must scale by the largest math.hypot
        fragment = generate(GroupId.H2, 20)
        rows = fragment.rows(0, fragment.size).tolist()
        xy = [cartesian(OmegaVector.from_flat(GroupId.H2, r)) for r in rows]
        scale = 450.0 / max(math.hypot(x, y) for x, y in xy)
        pts = np.array(xy)
        assert (np.hypot(pts[:, 0], pts[:, 1]) != [math.hypot(x, y) for x, y in xy]).sum() == 1244
        _, labels = serialize.shell_labels(fragment)
        colors = serialize._SHELL_COLORS
        circles = "".join(
            '\n<circle cx="%.3f" cy="%.3f" r="4" fill="%s"/>'
            % (500.0 + scale * x, 500.0 - scale * y, colors[s % len(colors)])
            for (x, y), s in zip(xy, labels.tolist())
        )
        svg = fragment_svg(fragment)
        assert svg[svg.index("\n<circle"):] == circles + "\n</svg>\n"


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


    @pytest.mark.parametrize("n", (1, 2, 3, 12))
    def test_json_report_equals_json_dumps(self, capsys, n):
        # n <= 2 has no deficiencies; the floats round-trip through json
        _, out, _ = run_cli(capsys, "line", "--n", str(n))
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_cap_is_exit_2_before_any_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started past the line cap")

        monkeypatch.setattr("quasih.cli.LINE_CAP", 5)
        monkeypatch.setattr("quasih.cli.sigma_1d", no_work)
        monkeypatch.setattr("quasih.cli.line_closed_form", no_work)
        monkeypatch.setattr("quasih.cli.deficiencies_1d", no_work)
        code, out, err = run_cli(capsys, "line", "--n", "6")
        assert code == 2 and out == ""
        assert err == "error: line --n 6 exceeds cap 5\n"

    def test_cap_admits_the_benchmark_and_verify_sizes(self):
        # line --n 48 is benchmarked; verify reaches L(20) through scaling_check(10)
        assert LINE_CAP >= 48


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

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    @pytest.mark.parametrize("chunk", (1, 7, 8192))
    def test_streamed_report_equals_json_dumps(self, capsys, monkeypatch, n, chunk):
        # the empty list at n <= 2 and chunk boundaries inside the list
        monkeypatch.setattr("quasih.serialize.CHUNK_ROWS", chunk)
        _, out, _ = run_cli(capsys, "compare", "--n", str(n))
        defic = deficiencies_2d(n)
        doc = {
            "group": "h2",
            "n": n,
            "fragment_count": generate(GroupId.H2, n).size,
            "sigma_count": sigma_2d(n).size,
            "deficiency_count": len(defic),
            "deficiencies": [str(x) for x in defic],
        }
        assert out == json.dumps(doc, indent=2) + "\n"

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

    def test_empty_deficiency_set_fails_cutproject_1d(self, capsys, monkeypatch):
        # a LineSet is truthy even when empty: the check must test its size
        real = deficiencies_1d
        empty = LineSet(np.empty((0, 2), dtype=np.int64))
        monkeypatch.setattr("quasih.checks.deficiencies_1d", lambda n: empty if n == 7 else real(n))
        code, out, err = run_cli(capsys, "verify", "--only", "cutproject-1d")
        assert code == 2 and err == "verification failed: cutproject-1d\n"
        details = json.loads(out)["checks"][0]["details"]
        assert details["nonempty_3_to_12"] is False and details["deficiency_example"] is True

    def test_sigma_fragment_mismatch_fails_cutproject_2d(self, capsys, monkeypatch):
        # sigma_2d(n) equals the fragment's cyclotomic rows for n = 1, 2; a
        # dropped row must fail the check, not only show in its details
        real = cyclo_rows
        monkeypatch.setattr("quasih.checks.cyclo_rows", lambda x: real(x)[1:])
        code, out, err = run_cli(capsys, "verify", "--only", "cutproject-2d")
        assert code == 2 and err == "verification failed: cutproject-2d\n"
        details = json.loads(out)["checks"][0]["details"]
        assert details["sigma_equals_fragment_n12"] is False and details["inclusion_n_le_5"] is True

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
