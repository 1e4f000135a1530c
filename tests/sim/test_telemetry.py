"""Unit tests for the windowed telemetry registry.

Everything here runs on synthetic timestamps — no simulator — because the
instruments are pure arithmetic over (time, value) pairs.  The "telemetry
cannot change simulated results" contract is pinned separately, against
golden values, in ``tests/experiments/test_fastpath_determinism.py``.
"""

import pytest

from repro.core.config import MantleConfig
from repro.sim.core import Simulator
from repro.sim.telemetry import (
    DEFAULT_WINDOW_US,
    EXPORT_COLUMNS,
    NULL_INSTRUMENT,
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
    sparkline,
    validate_rows,
)


class TestCounter:
    def test_add_buckets_by_window(self):
        counter = Counter("c", None, window_us=10.0)
        counter.add(0.0)
        counter.add(9.9)
        counter.add(10.0, 5.0)
        counter.add(25.0, 2.0)
        assert counter.windows == {0: 2.0, 1: 5.0, 2: 2.0}
        assert counter.total == 9.0
        assert counter.series() == [(0.0, 2.0), (10.0, 5.0), (20.0, 2.0)]

    def test_add_interval_splits_across_windows(self):
        counter = Counter("busy", None, window_us=10.0)
        # [5, 20) overlaps window 0 by 5 us and window 1 by 10 us.
        counter.add_interval(5.0, 20.0)
        assert counter.windows[0] == pytest.approx(5.0)
        assert counter.windows[1] == pytest.approx(10.0)
        assert counter.total == pytest.approx(15.0)

    def test_add_interval_scales_explicit_amount(self):
        counter = Counter("busy", None, window_us=10.0)
        # 4 core-us spread over [0, 20): half lands in each window.
        counter.add_interval(0.0, 20.0, amount=4.0)
        assert counter.windows[0] == pytest.approx(2.0)
        assert counter.windows[1] == pytest.approx(2.0)

    def test_add_interval_zero_length_degenerates_to_add(self):
        counter = Counter("c", None, window_us=10.0)
        counter.add_interval(15.0, 15.0, amount=3.0)
        assert counter.windows == {1: 3.0}

    def test_sum_clipped_prorates_partial_overlap(self):
        counter = Counter("c", None, window_us=10.0)
        counter.add(5.0, 10.0)   # window [0, 10)
        counter.add(15.0, 10.0)  # window [10, 20)
        # [5, 15) covers half of each window.
        assert counter.sum_clipped(5.0, 15.0) == pytest.approx(10.0)
        assert counter.sum_clipped(0.0, 20.0) == pytest.approx(20.0)
        assert counter.sum_clipped(20.0, 30.0) == 0.0

    def test_sum_over_whole_run_and_window_granular(self):
        counter = Counter("c", None, window_us=10.0)
        counter.add(5.0, 1.0)
        counter.add(25.0, 2.0)
        assert counter.sum_over() == 3.0
        assert counter.sum_over(20.0, 30.0) == 2.0


class TestGauge:
    def test_time_weighted_mean_within_window(self):
        gauge = Gauge("g", None, window_us=100.0)
        gauge.set(0.0, 2.0)
        gauge.set(50.0, 6.0)   # value 2 held for 50 us
        gauge.finalize(100.0)  # value 6 held for 50 us
        ((start, mean, observed),) = gauge.series()
        assert start == 0.0
        assert mean == pytest.approx(4.0)
        assert observed == pytest.approx(100.0)

    def test_level_splits_across_window_boundary(self):
        gauge = Gauge("g", None, window_us=10.0)
        gauge.set(5.0, 3.0)
        gauge.finalize(25.0)  # 3 held over [5, 25): 5 + 10 + 5 us
        series = gauge.series()
        assert [s for s, _, _ in series] == [0.0, 10.0, 20.0]
        assert [m for _, m, _ in series] == pytest.approx([3.0, 3.0, 3.0])
        assert [d for _, _, d in series] == pytest.approx([5.0, 10.0, 5.0])

    def test_adjust_tracks_level_and_peak(self):
        gauge = Gauge("g", None, window_us=10.0)
        gauge.adjust(0.0, 1.0)
        gauge.adjust(2.0, 1.0)
        gauge.adjust(4.0, -2.0)
        assert gauge.value == 0.0
        assert gauge.peak == 2.0
        gauge.finalize(10.0)
        assert gauge.mean_over() == pytest.approx(
            (1.0 * 2 + 2.0 * 2 + 0.0 * 6) / 10.0)

    def test_zero_duration_spike_visible_in_window_max(self):
        gauge = Gauge("g", None, window_us=10.0)
        gauge.set(1.0, 9.0)
        gauge.set(1.0, 0.0)  # spike up and straight back down
        gauge.finalize(10.0)
        assert gauge.windows[0][2] == 9.0

    def test_finalize_is_idempotent(self):
        gauge = Gauge("g", None, window_us=10.0)
        gauge.set(0.0, 5.0)
        gauge.finalize(10.0)
        gauge.finalize(10.0)
        assert gauge.mean_over() == pytest.approx(5.0)


class TestHistogram:
    def test_per_window_count_sum_max(self):
        hist = Histogram("h", None, window_us=10.0)
        hist.record(1.0, 10.0)
        hist.record(2.0, 30.0)
        hist.record(15.0, 100.0)
        assert hist.series() == [(0.0, 20.0, 2), (10.0, 100.0, 1)]
        assert hist.mean == pytest.approx(140.0 / 3)
        assert hist.max_value == 100.0
        assert hist.stats_over(0.0, 10.0) == (2, 40.0, 30.0)
        assert hist.stats_over() == (3, 140.0, 100.0)


class TestRegistry:
    def test_get_or_create_and_deterministic_order(self):
        telemetry = Telemetry(window_us=10.0)
        c1 = telemetry.counter("b.metric", "host-1")
        c2 = telemetry.counter("b.metric", "host-1")
        assert c1 is c2
        telemetry.gauge("a.metric")
        telemetry.histogram("b.metric", "host-0")
        names = [(i.name, i.host) for i in telemetry.instruments()]
        assert names == [("a.metric", None), ("b.metric", "host-0"),
                         ("b.metric", "host-1")]
        assert telemetry.hosts("b.metric") == ["host-0", "host-1"]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            Telemetry(window_us=0.0)

    def test_export_rows_schema(self):
        telemetry = Telemetry(window_us=10.0)
        telemetry.counter("c", "h", capacity=4.0).add(5.0, 2.0)
        gauge = telemetry.gauge("g")
        gauge.set(0.0, 1.0)
        telemetry.histogram("h").record(3.0, 7.0)
        rows = telemetry.export_rows(now=10.0)  # finalizes the gauge
        assert validate_rows(rows) == []
        assert len(rows) == 3
        by_kind = {row["kind"]: row for row in rows}
        assert set(by_kind) == {"counter", "gauge", "histogram"}
        assert by_kind["counter"]["value"] == 2.0
        assert by_kind["counter"]["capacity"] == 4.0
        assert by_kind["gauge"]["value"] == pytest.approx(1.0)
        assert by_kind["histogram"]["value"] == 7.0
        assert by_kind["histogram"]["count"] == 1.0

    def test_validate_rows_flags_problems(self):
        good = {col: 0.0 for col in EXPORT_COLUMNS}
        good.update(metric="m", kind="counter", host="")
        assert validate_rows([good]) == []
        assert validate_rows([{"metric": "m"}])  # missing columns
        bad_kind = dict(good, kind="nope")
        assert any("kind" in p for p in validate_rows([bad_kind]))
        negative = dict(good, window_start_us=-1.0)
        assert any("negative" in p for p in validate_rows([negative]))

    def test_csv_and_json_roundtrip(self, tmp_path):
        telemetry = Telemetry(window_us=10.0)
        telemetry.counter("c", "h").add(5.0, 2.0)
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        assert telemetry.write_csv(str(csv_path)) == 1
        header, line = csv_path.read_text().splitlines()
        assert header == ",".join(EXPORT_COLUMNS)
        assert line.startswith("c,counter,h,0.0,2.0")
        payload = telemetry.write_json(str(json_path),
                                       extra={"verdict": "cpu-bound"})
        assert payload["window_us"] == 10.0
        assert payload["verdict"] == "cpu-bound"
        import json

        assert json.loads(json_path.read_text()) == payload


class TestOnOffWiring:
    def test_null_telemetry_is_inert(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.counter("x") is NULL_INSTRUMENT
        assert NULL_TELEMETRY.gauge("x") is NULL_INSTRUMENT
        assert NULL_TELEMETRY.histogram("x") is NULL_INSTRUMENT
        NULL_INSTRUMENT.add(0.0)
        NULL_INSTRUMENT.add_interval(0.0, 1.0)
        NULL_INSTRUMENT.set(0.0, 1.0)
        NULL_INSTRUMENT.adjust(0.0, 1.0)
        NULL_INSTRUMENT.record(0.0, 1.0)
        assert NULL_TELEMETRY.instruments() == []
        assert NULL_TELEMETRY.export_rows() == []
        assert NULL_TELEMETRY.find("x") is None

    def test_env_flag_controls_default(self, monkeypatch):
        monkeypatch.delenv("MANTLE_TELEMETRY", raising=False)
        assert Simulator().telemetry is NULL_TELEMETRY
        monkeypatch.setenv("MANTLE_TELEMETRY", "1")
        sim = Simulator()
        assert sim.telemetry.enabled is True
        assert sim.telemetry.window_us == DEFAULT_WINDOW_US

    def test_config_enables_telemetry(self, monkeypatch):
        monkeypatch.delenv("MANTLE_TELEMETRY", raising=False)
        from repro.bench.cluster import build_system

        config = MantleConfig(telemetry=True, telemetry_window_us=500.0)
        system = build_system("mantle", "quick", config=config)
        try:
            assert system.sim.telemetry.enabled is True
            assert system.sim.telemetry.window_us == 500.0
        finally:
            system.shutdown()

    def test_config_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MantleConfig(telemetry_window_us=0.0).validate()


class TestSparkline:
    def test_maps_levels_to_blocks(self):
        line = sparkline([0.0, 0.5, 1.0], hi=1.0)
        assert len(line) == 3
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_empty_and_flat_inputs(self):
        assert sparkline([]) == ""
        assert sparkline([2.0, 2.0], lo=2.0) == "▁▁"

    def test_downsamples_to_width(self):
        line = sparkline([float(i % 10) for i in range(1000)], width=40)
        assert len(line) == 40
