import os

import pytest

from windpdm.errors import (
    AlarmAlternationViolation,
    DataError,
    MalformedRow,
    MisalignedTimestamp,
    NonFiniteValue,
    OutOfOrderAppend,
    UnknownAlarmCode,
    UnknownTurbine,
)
from windpdm.ingest import (
    EventKind,
    OperationalRecord,
    StatusEvent,
    TurbineStore,
    parse_operational_csv,
    parse_status_csv,
)
from windpdm.manifest import Manifest, load_manifest
from windpdm.timeutil import parse_rfc3339

from conftest import T0

PARAMS4 = ["wind_speed", "rotor_rpm", "power_kw", "gen_temp"]
HEADER4 = "timestamp," + ",".join(PARAMS4)


def op_csv(*rows):
    return (HEADER4 + "\n" + "".join(r + "\n" for r in rows)).encode()


def status_csv(*rows):
    return ("timestamp,alarm_code,kind\n" + "".join(r + "\n" for r in rows)).encode()


class TestParseOperational:
    def test_one_row(self):
        records = parse_operational_csv(
            op_csv("2015-01-01T00:10:00Z,3.5,12.0,150.25,55.1"), PARAMS4, "T1")
        assert len(records) == 1
        rec = records[0]
        assert rec.timestamp == parse_rfc3339("2015-01-01T00:10:00Z")
        assert rec.values == (3.5, 12.0, 150.25, 55.1)

    def test_header_only(self):
        assert parse_operational_csv(op_csv(), PARAMS4, "T1") == []

    @pytest.mark.parametrize("stamp", ["2015-01-01T00:10:00", "0001-01-01T00:00:00+01:00"])
    def test_timestamp_without_offset_or_out_of_range(self, stamp):
        with pytest.raises(MalformedRow):
            parse_operational_csv(op_csv(f"{stamp},1,2,3,4"), PARAMS4, "T1")

    def test_misaligned_timestamp(self):
        with pytest.raises(MisalignedTimestamp):
            parse_operational_csv(op_csv("2015-01-01T00:07:00Z,1,2,3,4"), PARAMS4, "T1")

    def test_wrong_column_count(self):
        with pytest.raises(MalformedRow):
            parse_operational_csv(op_csv("2015-01-01T00:10:00Z,1,2,3"), PARAMS4, "T1")

    def test_unparseable_number(self):
        with pytest.raises(MalformedRow):
            parse_operational_csv(op_csv("2015-01-01T00:10:00Z,1,2,x,4"), PARAMS4, "T1")

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            parse_operational_csv(op_csv("2015-01-01T00:10:00Z,1,2,nan,4"), PARAMS4, "T1")
        with pytest.raises(NonFiniteValue):
            parse_operational_csv(op_csv("2015-01-01T00:10:00Z,1,2,inf,4"), PARAMS4, "T1")

    def test_header_mismatch(self):
        with pytest.raises(MalformedRow):
            parse_operational_csv(b"timestamp,a,b\n", PARAMS4, "T1")


class TestParseStatus:
    ALARMS = ["GOverSpMax", "WLFRTActive"]

    def test_activation_row(self):
        events = parse_status_csv(
            status_csv("2015-01-01T00:03:21Z,GOverSpMax,A"), self.ALARMS, "T1")
        assert len(events) == 1
        assert events[0].alarm_code == "GOverSpMax"
        assert events[0].kind is EventKind.ACTIVATION

    def test_unknown_alarm(self):
        with pytest.raises(UnknownAlarmCode):
            parse_status_csv(status_csv("2015-01-01T00:03:21Z,XYZ,A"), self.ALARMS, "T1")

    def test_empty_body(self):
        assert parse_status_csv(status_csv(), self.ALARMS, "T1") == []

    def test_bad_kind(self):
        with pytest.raises(MalformedRow):
            parse_status_csv(status_csv("2015-01-01T00:03:21Z,GOverSpMax,Q"), self.ALARMS, "T1")

    def test_header_mismatch_names_the_expected_header(self):
        with pytest.raises(MalformedRow, match="expected 'timestamp,alarm_code,kind'"):
            parse_status_csv(b"timestamp,code,kind\n", self.ALARMS, "T1")


def day_of_records(turbine, day=0):
    return [
        OperationalRecord(turbine, T0 + day * 86400 + i * 600, (1.0, 2.0, 3.0, 4.0))
        for i in range(144)
    ]


class TestStore:
    def test_full_day_appends_144(self, store):
        count, warnings = store.append("T1", day_of_records("T1"))
        assert count == 144
        assert warnings == []

    def test_fleet_daily_volume(self, tmp_path):
        manifest = Manifest(
            parameters=PARAMS4,
            alarms=["GOverSpMax"],
            turbines=[f"T{i}" for i in range(1, 18)],
        )
        store = TurbineStore.create(tmp_path / "fleet", manifest)
        total = 0
        for turbine in manifest.turbines:
            count, _ = store.append(turbine, day_of_records(turbine))
            total += count
        assert total == 17 * 144 == 2448

    def test_out_of_order_append(self, store):
        store.append("T1", day_of_records("T1"))
        stale = OperationalRecord("T1", T0, (1.0, 2.0, 3.0, 4.0))
        with pytest.raises(OutOfOrderAppend):
            store.append("T1", [stale])

    def test_unsorted_batch_rejected(self, store):
        records = day_of_records("T1")[:2][::-1]
        with pytest.raises(OutOfOrderAppend):
            store.append("T1", records)

    def test_unknown_turbine(self, store):
        with pytest.raises(UnknownTurbine):
            store.append("T9", day_of_records("T9"))
        with pytest.raises(UnknownTurbine):
            list(store.scan_operational("T9"))

    def test_alternation_violation(self, store):
        events = [
            StatusEvent("T1", T0 + 10, "GOverSpMax", EventKind.ACTIVATION),
            StatusEvent("T1", T0 + 20, "GOverSpMax", EventKind.ACTIVATION),
        ]
        with pytest.raises(AlarmAlternationViolation):
            store.append("T1", events)

    def test_deactivation_of_inactive_alarm(self, store):
        with pytest.raises(AlarmAlternationViolation):
            store.append("T1", [StatusEvent("T1", T0 + 10, "GOverSpMax", EventKind.DEACTIVATION)])

    def test_alternation_tracked_across_appends(self, store):
        store.append("T1", [StatusEvent("T1", T0 + 10, "GOverSpMax", EventKind.ACTIVATION)])
        with pytest.raises(AlarmAlternationViolation):
            store.append("T1", [StatusEvent("T1", T0 + 20, "GOverSpMax", EventKind.ACTIVATION)])
        count, _ = store.append("T1", [StatusEvent("T1", T0 + 30, "GOverSpMax", EventKind.DEACTIVATION)])
        assert count == 1

    def test_skip_invalid_counts_warnings(self, store):
        records = day_of_records("T1")[:3]
        records.append(records[0])  # duplicate timestamp, out of order
        count, warnings = store.append("T1", records, skip_invalid=True)
        assert count == 3
        assert len(warnings) == 1

    def test_mixed_batch_rejected(self, store):
        batch = [day_of_records("T1")[0],
                 StatusEvent("T1", T0 + 700, "GOverSpMax", EventKind.ACTIVATION)]
        with pytest.raises(MalformedRow):
            store.append("T1", batch)

    def test_scan_range_half_open(self, store):
        store.append("T1", day_of_records("T1"))
        got = list(store.scan_operational("T1", T0 + 600, T0 + 1800))
        assert [r.timestamp for r in got] == [T0 + 600, T0 + 1200]

    def test_scan_empty_range(self, store):
        store.append("T1", day_of_records("T1"))
        assert list(store.scan_operational("T1", T0, T0)) == []

    def test_round_trip_exact(self, store):
        data = op_csv(
            "2015-01-01T00:10:00Z,3.5,12.125,150.25,55.1",
            "2015-01-01T00:20:00Z,-0.75,1e-3,2.5e2,0.1",
        )
        records = parse_operational_csv(data, PARAMS4, "T1")
        store.append("T1", records)
        assert list(store.scan_operational("T1")) == records

    def test_status_round_trip_exact(self, store):
        events = [
            StatusEvent("T1", T0 + 201, "GOverSpMax", EventKind.ACTIVATION),
            StatusEvent("T1", T0 + 1500, "WLFRTActive", EventKind.ACTIVATION),
            StatusEvent("T1", T0 + 1600, "GOverSpMax", EventKind.DEACTIVATION),
        ]
        store.append("T1", events)
        assert list(store.scan_status("T1")) == events


class TestDurability:
    def test_scan_after_reopen_matches(self, tmp_path, small_manifest):
        store = TurbineStore.create(tmp_path / "s", small_manifest)
        records = day_of_records("T1")[:10]
        store.append("T1", records)
        before = list(store.scan_operational("T1"))
        reopened = TurbineStore.open(tmp_path / "s")
        assert list(reopened.scan_operational("T1")) == before == records

    def test_torn_tail_is_discarded(self, tmp_path, small_manifest):
        store = TurbineStore.create(tmp_path / "s", small_manifest)
        store.append("T1", day_of_records("T1")[:5])
        log = tmp_path / "s" / "T1" / "operational.log"
        with open(log, "ab") as fh:
            fh.write(b"2015-01-01T01:00:00Z,9.0,9.0")  # no newline: torn write
        reopened = TurbineStore.open(tmp_path / "s")
        assert len(list(reopened.scan_operational("T1"))) == 5
        # appending after the torn write truncates it and stays consistent
        count, _ = reopened.append(
            "T1", [OperationalRecord("T1", T0 + 5 * 600, (1.0, 2.0, 3.0, 4.0))])
        assert count == 1
        assert len(list(reopened.scan_operational("T1"))) == 6

    def test_append_resumes_after_reopen(self, tmp_path, small_manifest):
        store = TurbineStore.create(tmp_path / "s", small_manifest)
        store.append("T1", day_of_records("T1")[:5])
        reopened = TurbineStore.open(tmp_path / "s")
        with pytest.raises(OutOfOrderAppend):
            reopened.append("T1", [OperationalRecord("T1", T0, (1.0, 2.0, 3.0, 4.0))])
        count, _ = reopened.append(
            "T1", [OperationalRecord("T1", T0 + 5 * 600, (1.0, 2.0, 3.0, 4.0))])
        assert count == 1

    def test_failed_append_is_overwritten_by_the_retry(self, tmp_path, small_manifest, monkeypatch):
        store = TurbineStore.create(tmp_path / "s", small_manifest)
        records = day_of_records("T1")[:4]
        store.append("T1", records[:2])
        real_fsync = os.fsync

        def fail_once(fd):
            monkeypatch.setattr(os, "fsync", real_fsync)
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", fail_once)
        with pytest.raises(OSError):
            store.append("T1", records[2:])  # written, never acknowledged
        assert store.append("T1", records[2:]) == (2, [])
        reopened = TurbineStore.open(tmp_path / "s")
        assert list(reopened.scan_operational("T1")) == records


class TestManifest:
    def test_round_trip(self, tmp_path, small_manifest):
        path = tmp_path / "manifest.txt"
        small_manifest.save(path)
        loaded = load_manifest(path)
        assert loaded == small_manifest

    def test_missing_key(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("parameters = [a]\nalarms = [x]\n")
        with pytest.raises(DataError):
            load_manifest(path)

    def test_critical_defaults_to_all_alarms(self):
        m = Manifest(parameters=["a"], alarms=["x", "y"], turbines=["T1"])
        assert m.critical_alarms == ["x", "y"]

    def test_unknown_critical_alarm(self):
        with pytest.raises(DataError):
            Manifest(parameters=["a"], alarms=["x"], turbines=["T1"], critical_alarms=["z"])

    def test_bad_name_rejected(self):
        with pytest.raises(DataError):
            Manifest(parameters=["a b"], alarms=["x"], turbines=["T1"])

    @pytest.mark.parametrize("field", ["parameters", "alarms", "turbines"])
    @pytest.mark.parametrize("name", [".", "..", "...", "T2\n"])
    def test_name_that_is_no_plain_path_component_rejected(self, field, name):
        # a turbine ".." would put its logs in the store's parent directory
        names = {"parameters": ["a"], "alarms": ["x"], "turbines": ["T1"]}
        names[field] = names[field] + [name]
        with pytest.raises(DataError, match="invalid"):
            Manifest(**names)

    def test_dots_inside_a_name_allowed(self):
        m = Manifest(parameters=["a.b"], alarms=["x.", ".y"], turbines=["T.01"])
        assert m.turbines == ["T.01"]
