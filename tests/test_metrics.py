"""Run statistics and record file IO."""

import pytest

from dsnetsim.metrics import (
    MetricsError, PacketRecord, compare_reports, finalize,
    read_records_csv, write_records_csv, write_summary,
)


def _delivered(pid, created, delivered):
    return PacketRecord(pid, 0, 1, 2, 0, created, delivered, None, None)


def _dropped(pid, stage="red"):
    return PacketRecord(pid, 0, 1, 2, 2, 0, None, 1, stage)


def test_single_packet_stats():
    rep = finalize("s", [_delivered(0, 0, 5_000)], 1, {}, 0.0)
    assert rep.mean_delay_ns == 5_000
    assert rep.jitter_ns == 0.0
    assert rep.drop_rate == 0.0


def test_two_packet_mean_and_jitter():
    # delays {4, 6} us -> mean 5 us, population std-dev 1 us
    rep = finalize("s", [_delivered(0, 0, 4_000), _delivered(1, 0, 6_000)],
                   2, {}, 0.0)
    assert rep.mean_delay_ns == 5_000
    assert rep.jitter_ns == 1_000


def test_drop_rate_is_dropped_over_generated():
    records = [_delivered(i, 0, 100) for i in range(8)] + \
        [_dropped(8), _dropped(9)]
    rep = finalize("s", records, 10, {}, 0.0)
    assert rep.drop_rate == 0.2
    assert rep.delivered == 8 and rep.dropped == 2


def test_no_deliveries_reports_absent_not_zero():
    rep = finalize("s", [_dropped(0)], 1, {}, 0.0)
    assert rep.mean_delay_ns is None
    assert rep.jitter_ns is None
    assert rep.drop_rate == 1.0


def test_compare_report_with_itself_is_all_zero():
    rep = finalize("s", [_delivered(0, 0, 4_000), _dropped(1)], 2, {}, 0.0)
    diff = compare_reports(rep, rep)
    assert diff["mean_delay_rel"] == 0.0
    assert diff["jitter_rel"] == 0.0
    assert diff["drop_rate_abs"] == 0.0
    assert diff["record_diff_count"] == 0


def test_compare_counts_differing_records():
    a = finalize("s", [_delivered(0, 0, 4_000), _delivered(1, 0, 6_000)], 2, {}, 0.0)
    b = finalize("s", [_delivered(0, 0, 4_000), _delivered(1, 0, 7_000)], 2, {}, 0.0)
    assert compare_reports(a, b)["record_diff_count"] == 1


def test_compare_refuses_different_scenarios():
    a = finalize("one", [], 0, {}, 0.0)
    b = finalize("two", [], 0, {}, 0.0)
    with pytest.raises(MetricsError):
        compare_reports(a, b)


def test_records_csv_round_trip(tmp_path):
    records = [_delivered(3, 10, 5_000), _dropped(1, "queue"), _dropped(2)]
    path = tmp_path / "records.csv"
    write_records_csv(str(path), records)
    loaded = read_records_csv(str(path))
    assert loaded == sorted(records, key=lambda r: r.pid)


def test_finalize_rejects_an_unknown_count_name():
    with pytest.raises(TypeError, match="comitted_events"):
        finalize("s", [], 0, {"comitted_events": 12}, 0.0)


def test_summary_file_lists_all_fields(tmp_path):
    rep = finalize("s", [_delivered(0, 0, 4_000)], 1,
                   {"committed_events": 12}, 0.5)
    path = tmp_path / "summary.txt"
    write_summary(str(path), rep)
    text = path.read_text()
    assert "mean_delay_ns = 4000" in text
    assert "committed_events = 12" in text
    assert "drop_rate = 0.0" in text
