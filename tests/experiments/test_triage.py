"""``mantle-exp triage``: phase-resolved tail blame, validated end to end.

The PR 10 acceptance path: triaging the fig14 shared-mkdir storm must
find a saturated phase whose tail exemplars fold into a critical path
and blame matrix that conserve (within the critpath tolerance) and name
the same top culprit the full-run blame does — mkdir.  The export must
validate against its schema and match its golden digest.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.critpathcmd import CONSERVATION_TOLERANCE
from repro.experiments.triagecmd import (
    dropped_warning,
    run_triage,
    triage_point,
    validate_triage,
)
from repro.experiments.profilecmd import resolve_case


@pytest.fixture(scope="module")
def storm_artifact(tmp_path_factory):
    """One triaged fig14 mantle storm, shared by the assertions below."""
    out = tmp_path_factory.mktemp("triage") / "triage_fig14"
    case = resolve_case("fig14")
    return triage_point("mantle", "fig14", case, "quick",
                        out_base=str(out))


class TestTriageStorm:
    def test_saturated_phase_found_and_triaged(self, storm_artifact):
        payload = storm_artifact["payload"]
        assert payload["primary_phase"] == "saturated"
        assert any(p["label"] == "saturated" for p in payload["phases"])
        triaged = [t for t in payload["triage"] if t["exemplars"] > 0]
        assert triaged, "the storm must yield tail exemplars to triage"

    def test_blame_conserves_and_names_mkdir(self, storm_artifact):
        # Same top culprit as the full-run blame matrix (PR 9 ground
        # truth): the mkdir storm blames itself.
        for entry in storm_artifact["payload"]["triage"]:
            if entry["exemplars"] == 0:
                continue
            assert entry["critpath_conservation_error"] \
                <= CONSERVATION_TOLERANCE
            assert entry["blame_conservation_error"] \
                <= CONSERVATION_TOLERANCE
            assert entry["blamed_on"], "queued time must be attributed"
            assert entry["blamed_on"][0]["culprit_op"] == "mkdir"
            assert "gated by" in entry["summary"]
            assert "blamed on" in entry["summary"]

    def test_export_passes_schema_and_is_on_disk(self, storm_artifact):
        assert validate_triage(storm_artifact["payload"]) == []
        with open(storm_artifact["path"]) as handle:
            on_disk = json.load(handle)
        assert validate_triage(on_disk) == []
        assert on_disk == json.loads(
            json.dumps(storm_artifact["payload"], default=str))

    def test_trace_stats_embedded(self, storm_artifact):
        stats = storm_artifact["payload"]["trace_stats"]
        assert stats["started"] > 0
        assert stats["kept_roots"] > 0
        assert stats["kept_spans"] > 0


class TestTriageGolden:
    def test_export_matches_golden(self, tmp_path):
        case = resolve_case("mkdir")
        artifact = triage_point("mantle", "mkdir", case, "quick",
                                clients=24, items=6,
                                out_base=str(tmp_path / "triage"))
        with open(artifact["path"], "rb") as handle:
            blob = handle.read()
        assert hashlib.sha256(blob).hexdigest() == (
            "8707a6d16dc34bbdc4fba5b905099beb97812c08f17f446dd108e8f837ae35db")


class TestRunTriage:
    def test_run_triage_returns_tables_lines_artifacts(self, tmp_path):
        tables, lines, artifacts = run_triage(
            "mkdir", scale="quick", out_base=str(tmp_path / "t"),
            systems=["mantle"], clients=16, items=5)
        assert len(artifacts) == 1
        assert tables, "phase table expected"
        assert any(line.startswith("(wrote ") for line in lines)
        assert os.path.exists(artifacts[0]["path"])
        assert validate_triage(artifacts[0]["payload"]) == []


class TestTriageSchema:
    def test_rejects_non_object(self):
        assert validate_triage([]) == ["payload is not a JSON object"]

    def test_flags_conservation_breach(self, storm_artifact):
        bad = json.loads(json.dumps(storm_artifact["payload"],
                                    default=str))
        for entry in bad["triage"]:
            if entry["exemplars"] > 0:
                entry["blame_conservation_error"] = 0.5
                break
        problems = validate_triage(bad)
        assert any("conservation tolerance" in p for p in problems)

    def test_flags_unknown_phase_label(self, storm_artifact):
        bad = json.loads(json.dumps(storm_artifact["payload"],
                                    default=str))
        bad["phases"][0]["label"] = "mystery"
        assert any("unknown label" in p for p in validate_triage(bad))


class TestDroppedWarning:
    def test_silent_when_nothing_dropped(self):
        assert dropped_warning({"dropped": 0}) is None

    def test_loud_when_spans_dropped(self):
        warning = dropped_warning({"dropped": 123, "finished": 1000,
                                   "kept_spans": 50, "kept_roots": 5})
        assert warning is not None
        assert "WARNING" in warning
        assert "123" in warning
