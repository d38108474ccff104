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


def test_records_csv_golden_bytes(tmp_path):
    # one row per record in pid order, a None field an empty cell
    records = [
        PacketRecord(4, 0, 3, 2, 0, 10, 1_458, None, None),
        PacketRecord(1, 0, 3, 1, 2, 20, None, 1, "red"),
        PacketRecord(3, 5, 3, 0, 1, 30, None, 2, "queue"),
        PacketRecord(2, 5, 9, -1, -1, 40, None, 5, "routing"),
    ]
    path = tmp_path / "records.csv"
    write_records_csv(str(path), records)
    assert path.read_bytes() == (
        b"pkt_id,src,dst,class,color,created_ns,delivered_ns,drop_node,drop_stage\r\n"
        b"1,0,3,1,2,20,,1,red\r\n"
        b"2,5,9,-1,-1,40,,5,routing\r\n"
        b"3,5,3,0,1,30,,2,queue\r\n"
        b"4,0,3,2,0,10,1458,,\r\n")


def test_rfc3550_jitter_orders_equal_delivery_times_by_pid():
    # pids 1 and 2 both arrive at 100 ns (delays 10 and 50), pid 3 at 200
    # (delay 20): in (delivered_ns, pid) order the delay steps are 40, 30
    records = [_delivered(2, 50, 100), _delivered(3, 180, 200), _delivered(1, 90, 100)]
    j = 40 / 16
    j += (30 - j) / 16
    assert finalize("s", records, 3, {}, 0.0).jitter_rfc3550_ns == j


def test_packet_record_keywords_equality_and_hash():
    # read_records_csv builds records by keyword; compare_reports compares
    by_keyword = PacketRecord(pid=1, src=0, dst=3, class_index=2, color=0, created_ns=10,
                              delivered_ns=1_458, drop_node=None, drop_stage=None)
    positional = PacketRecord(1, 0, 3, 2, 0, 10, 1_458, None, None)
    assert by_keyword == positional and hash(by_keyword) == hash(positional)
    assert len({by_keyword, positional}) == 1
    assert by_keyword != PacketRecord(1, 0, 3, 2, 1, 10, 1_458, None, None)


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
