import io
import json
import math
import re
from typing import Mapping

import numpy as np
import pytest

from dedsid import artifacts
from dedsid.artifacts import (
    _CSV_BLOCK_ROWS,
    from_plain,
    read_json_object,
    to_plain,
    write_json,
    write_rows,
)
from dedsid.config import FitConfig
from dedsid.errors import CorruptFile, NumericError, StaleArtifact
from dedsid.validation import Aggregate, CvReport, FoldResult


def cv_report(r2: float) -> CvReport:
    fold = FoldResult(0, ("e1",), False, {"y": 0.9}, {"y": r2}, {"y": 0.1}, {"y": 0.2}, 2, 1.5, 2, 0.9)
    return CvReport(
        p=1,
        repeats=1,
        config=FitConfig(inputs=("u",), observables=("y",)),
        folds=(fold,),
        finite_folds=1,
        aggregates={"r2_test": {"y": Aggregate(r2, 0.0)}},
    )


RUN = {"config_sha256": "abc", "seed": 3, "inputs": {"schema": "5c", "manifest": "3a", "e1": "9f"}}


class TestToPlain:
    def test_dataclass_fields_in_order_with_lists_for_tuples_and_arrays(self):
        plain = to_plain({"report": cv_report(0.5), "m": np.eye(2)})
        assert list(plain["report"]) == [
            "p", "repeats", "config", "folds", "finite_folds", "aggregates"
        ]
        assert plain["report"]["config"]["inputs"] == ["u"]
        assert plain["report"]["folds"][0]["test_ids"] == ["e1"]
        assert plain["report"]["aggregates"]["r2_test"]["y"] == {"mean": 0.5, "ci95": 0.0}
        assert plain["m"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_positive_infinity_is_spelled_inf(self):
        assert to_plain({"vif": (math.inf, 2.0)}) == {"vif": ["inf", 2.0]}
        assert to_plain(np.array([np.inf])) == ["inf"]


class TestFromPlain:
    def test_inverse_of_to_plain(self):
        report = cv_report(0.5)
        assert from_plain(CvReport, json.loads(json.dumps(to_plain(report)))) == report

    def test_field_types_are_evaluated_once_per_type(self):
        # Decoding many objects of a type reads its annotations once: one
        # miss for each of CvReport, FitConfig, FoldResult and Aggregate.
        artifacts._field_types.cache_clear()
        plain = json.loads(json.dumps(to_plain([cv_report(0.5), cv_report(-0.25)])))
        for _ in range(3):
            decoded = from_plain(tuple[CvReport, ...], plain)
            assert decoded == (cv_report(0.5), cv_report(-0.25))
        assert artifacts._field_types.cache_info().misses == 4

    @pytest.mark.parametrize(
        "tp, value, message",
        [
            (Aggregate, {"mean": 0.5}, "missing required key 'ci95'"),
            (Aggregate, {"mean": 0.5, "ci95": 0.0, "n": 3}, "unknown key 'n'"),
            (Mapping[str, Aggregate], {"y": []}, "section 'y' must be a JSON object"),
            (
                Mapping[str, Aggregate],
                {"y": {"mean": True, "ci95": 0.0}},
                "key 'y.mean' must be a finite number, got True",
            ),
            (tuple[int, ...], [1, 2.0], "key '[1]' must be an integer, got 2.0"),
            (np.ndarray, [[1.0], [2.0, 3.0]], "key '' must be a finite number, got [1.0]"),
            (np.ndarray, [[1.0, 10**400]], "key '' cannot be used: int too large"),
        ],
        ids=["missing", "unknown", "not_object", "bool_float", "float_int", "ragged", "huge_int"],
    )
    def test_a_bad_value_names_its_key(self, tp, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            from_plain(tp, value)


class TestWriteJson:
    def test_provenance_leads_and_file_ends_with_newline(self, tmp_path):
        path = tmp_path / "sub" / "a.json"
        write_json(path, {"x": 1}, RUN)
        expected = {"provenance": RUN, "x": 1}
        assert path.read_text() == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "minus_inf"])
    def test_non_finite_in_nested_dataclass_refused_without_a_file(self, tmp_path, value):
        path = tmp_path / "cv_report.json"
        with pytest.raises(NumericError, match="cv_report.json"):
            write_json(path, {"cv": cv_report(value)}, RUN)
        assert not path.exists()


class TestReadJsonObject:
    @pytest.mark.parametrize(
        "raw", [b"[1, 2]", b"{not json", b'{"a": "\xff"}'], ids=["list", "syntax", "not_utf8"]
    )
    def test_bad_file_is_corrupt(self, tmp_path, raw):
        path = tmp_path / "f.json"
        path.write_bytes(raw)
        with pytest.raises(CorruptFile, match="f.json"):
            read_json_object(path)

    def test_missing_file_is_corrupt(self, tmp_path):
        with pytest.raises(CorruptFile):
            read_json_object(tmp_path / "nope.json")

    def test_round_trip(self, tmp_path):
        write_json(tmp_path / "r.json", cv_report(0.25))
        assert read_json_object(tmp_path / "r.json") == to_plain(cv_report(0.25))

    def test_provenance_of_the_run_passes(self, tmp_path):
        write_json(tmp_path / "r.json", {"x": 1}, RUN)
        assert read_json_object(tmp_path / "r.json", RUN)["x"] == 1

    @pytest.mark.parametrize(
        "writer",
        [
            None,
            {**RUN, "seed": 4},
            {**RUN, "config_sha256": "abd"},
            {"config_sha256": "abc", "seed": 3},
        ],
        ids=["no_provenance", "other_seed", "other_config", "no_inputs"],
    )
    def test_other_provenance_is_stale(self, tmp_path, writer):
        write_json(tmp_path / "r.json", {"x": 1}, writer)
        with pytest.raises(StaleArtifact, match="r.json was written under another config or seed"):
            read_json_object(tmp_path / "r.json", RUN)

    def test_other_inputs_are_named(self, tmp_path):
        writer = {**RUN, "inputs": {"schema": "5c", "manifest": "3b", "e1": "0a", "e2": "77"}}
        write_json(tmp_path / "r.json", {"x": 1}, writer)
        with pytest.raises(
            StaleArtifact, match=r"r.json was built from other inputs \(e1, e2, manifest differ\)"
        ):
            read_json_object(tmp_path / "r.json", RUN)


def first_difference(rows):
    """``None`` if ``write_rows`` writes what numpy's per-row ``np.savetxt``
    writes in ``%.17g``, else the first line where they part (a short failure report)."""
    got, expected = io.StringIO(), io.StringIO()
    write_rows(got, rows)
    np.savetxt(expected, rows, delimiter=",", fmt="%.17g")
    if got.getvalue() == expected.getvalue():
        return None
    got_lines, expected_lines = got.getvalue().split("\n"), expected.getvalue().split("\n")
    for i, (a, b) in enumerate(zip(got_lines, expected_lines)):
        if a != b:
            return i, a, b
    return "line counts", len(got_lines), len(expected_lines)


class TestWriteRows:
    @pytest.mark.parametrize("columns", [1, 3, 7, 16])
    def test_float_table_byte_identical_to_savetxt(self, columns):
        # Two full blocks and a partial one; values of every size and sign,
        # integers, signed zeros and non-finite values.
        rng = np.random.default_rng(columns)
        rows = 2 * _CSV_BLOCK_ROWS + 37
        table = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-300, 300, (rows, columns))
        table.flat[::11] = rng.integers(-(10**6), 10**6, table.flat[::11].size)
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.0**53 + 2]
        table.flat[1::97] = np.resize(specials, table.flat[1::97].size)
        assert first_difference(table) is None

    def test_no_rows_write_nothing(self):
        assert first_difference(np.empty((0, 3))) is None
        out = io.StringIO()
        write_rows(out, np.empty((0, 3)))
        assert out.getvalue() == ""
