"""Tests for ``mantle-exp blame`` — interference-blame command surface.

The matrix-construction invariants live in ``tests/sim/test_critpath.py``
(``TestBuildBlame``); this module covers the command: artifact writing +
validator wiring on a tiny point, CLI exit codes, and the slow
acceptance battery — on the fig14 shared-mkdir storm the top culprit
must be the storming op type itself, the multitenant scenario must blame
the storm tenant for the majority of the victim's queueing, and the
JSON exports must match their golden digests.
"""

import hashlib
import json

import pytest

from repro.experiments.blamecmd import run_blame, run_multitenant
from repro.experiments.cli import main
from repro.sim.critpath import validate_blame

#: The fig14 '-s' probe point: past the knee (~24 clients) but small
#: enough for CI — the same point the whatif knee battery uses.
_FIG14_SMALL = dict(scale="quick", systems=["mantle"], clients=24)


#: sha256 of the blame exports, captured when three interchangeable
#: schedulers all produced them byte for byte.
_FIG14_EXPORT_SHA256 = (
    "91bd1e1f82b98001c0edfded8746b286ee3a0f8248d2356ba928e38e4fd3f2cc")
_MULTITENANT_EXPORT_SHA256 = (
    "2492012c9b776a1e9efe06ee06faa09864728e7579eebcd137de023f7e8536dd")


def _sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestRunBlame:
    def test_writes_validated_artifact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tables, lines, artifacts = run_blame("mkdir", systems=["mantle"],
                                             clients=6, items=3)
        assert len(artifacts) == 1
        artifact = artifacts[0]
        assert artifact["blame"].conservation_error() <= 1e-6
        assert artifact["crit"].conservation_error() <= 1e-6
        payload = json.loads(
            (tmp_path / "blame_mkdir_mantle.json").read_text())
        assert validate_blame(payload) == []
        assert payload == artifact["payload"]
        assert any("top culprits" in t.title for t in tables)
        # The exemplar path names a culprit for each queue segment.
        assert any("<-" in line for line in lines)

    def test_blamed_microseconds_cover_queue_segments(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        _t, _l, artifacts = run_blame("mkdir", systems=["mantle"],
                                      clients=6, items=3)
        payload = artifacts[0]["payload"]
        blamed = sum(cell["us"] for cell in payload["cells"])
        assert blamed == pytest.approx(payload["total_queue_us"],
                                       rel=1e-3)
        assert 0.0 < payload["queue_share"] < 1.0


class TestCli:
    def test_blame_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["blame", "mkdir", "--systems", "mantle",
                     "--clients", "6", "--items", "3"]) == 0
        out = capsys.readouterr().out
        assert "top culprits" in out
        assert "exemplar victim path" in out
        assert (tmp_path / "blame_mkdir_mantle.json").exists()

    def test_blame_rejects_unknown_target(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError):
            main(["blame", "warp-drive"])


@pytest.mark.slow
class TestBlameValidation:
    """The acceptance battery: the storming op type must come out as the
    top culprit, the multitenant victim's queueing must trace to the
    storm tenant, and exports must match their golden digests."""

    def test_fig14_storm_names_mkdir_as_top_culprit(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        _t, _l, artifacts = run_blame("fig14", **_FIG14_SMALL)
        blame = artifacts[0]["blame"]
        assert blame.conservation_error() <= 1e-6
        (top_op, _tenant, _resource), _us = blame.top_culprits(1)[0]
        assert top_op == "mkdir"

    def test_fig14_export_matches_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _t, _l, artifacts = run_blame("fig14", **_FIG14_SMALL)
        assert _sha256_file(tmp_path / artifacts[0]["path"]) == \
            _FIG14_EXPORT_SHA256

    def test_multitenant_blames_storm_for_victim_queueing(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        artifact = run_multitenant(scale="quick")
        blame = artifact["blame"]
        assert blame.conservation_error() <= 1e-6
        assert validate_blame(artifact["payload"]) == []
        matrix = blame.tenant_matrix()
        victim_rows = {culprit: us for (victim, culprit), us
                       in matrix.items() if victim == "victim"}
        total = sum(victim_rows.values())
        assert total > 0.0
        # The noisy neighbour owns the majority of the victim's queueing.
        assert victim_rows.get("storm", 0.0) > 0.5 * total
        assert artifact["victim_mean_us"] > 0.0

    def test_multitenant_export_matches_golden(self, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        artifact = run_multitenant(scale="quick")
        assert _sha256_file(tmp_path / artifact["path"]) == \
            _MULTITENANT_EXPORT_SHA256
