import json
import math
from pathlib import Path

import numpy as np
import pytest

from dedsid.artifacts import read_json_object, to_plain, write_json
from dedsid.config import RunConfig
from dedsid.errors import CorruptFile, NumericError
from dedsid.validation import Aggregate, CvReport, FoldResult


def cv_report(r2: float) -> CvReport:
    fold = FoldResult(0, ("e1",), {"y": 0.9}, {"y": r2}, {"y": 0.1}, {"y": 0.2})
    return CvReport(
        p=1,
        repeats=1,
        seed=0,
        eval_mode="rollout",
        observables=("y",),
        folds=(fold,),
        aggregates={"r2_test": {"y": Aggregate(r2, 0.0)}},
    )


RUN = RunConfig(Path("manifest.json"), Path("schema.json"), Path("out"), seed=3, config_sha256="abc")


class TestToPlain:
    def test_dataclass_fields_in_order_with_lists_for_tuples_and_arrays(self):
        plain = to_plain({"report": cv_report(0.5), "m": np.eye(2)})
        assert list(plain["report"]) == [
            "p", "repeats", "seed", "eval_mode", "observables", "folds", "aggregates"
        ]
        assert plain["report"]["folds"][0]["test_ids"] == ["e1"]
        assert plain["report"]["aggregates"]["r2_test"]["y"] == {"mean": 0.5, "ci95": 0.0}
        assert plain["m"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_positive_infinity_is_spelled_inf(self):
        assert to_plain({"vif": (math.inf, 2.0)}) == {"vif": ["inf", 2.0]}
        assert to_plain(np.array([np.inf])) == ["inf"]


class TestWriteJson:
    def test_provenance_leads_and_file_ends_with_newline(self, tmp_path):
        path = tmp_path / "sub" / "a.json"
        write_json(path, {"x": 1}, RUN)
        expected = {"provenance": {"config_sha256": "abc", "seed": 3}, "x": 1}
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
