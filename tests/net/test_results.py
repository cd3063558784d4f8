"""Typed lookup results: statuses, exit codes, and migration shims."""

import pytest

from repro.core.entry import make_entries
from repro.core.result import LookupResult as CoreLookupResult
from repro.net.results import (
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    LookupReport,
    LookupResult,
)


def result(found, target, **kwargs):
    return LookupResult(
        key="round_robin",
        entries=tuple(make_entries(found)),
        target=target,
        **kwargs,
    )


class TestStatusTrichotomy:
    def test_ok(self):
        full = result(8, 8)
        assert full.status == STATUS_OK
        assert full.success and not full.degraded and not full.failed
        assert full.exit_code == 0

    def test_overfull_is_ok(self):
        assert result(10, 8).status == STATUS_OK

    def test_degraded(self):
        short = result(3, 8)
        assert short.status == STATUS_DEGRADED
        assert short.degraded and not short.success and not short.failed
        assert short.exit_code == 3

    def test_failed(self):
        empty = result(0, 8)
        assert empty.status == STATUS_FAILED
        assert empty.failed and not empty.success
        assert empty.exit_code == 4

    def test_zero_target_is_ok(self):
        # An empty answer to a zero-entry ask met its (vacuous) target.
        assert result(0, 0).status == STATUS_OK
        assert result(0, 0).exit_code == 0


class TestAttribution:
    def test_from_core_copies_observations(self):
        core = CoreLookupResult(
            entries=tuple(make_entries(4)),
            target=4,
            servers_contacted=(2, 5),
            failed_contacts=(1,),
            messages=3,
            retries=1,
            backoff=0.25,
        )
        wrapped = LookupResult.from_core(
            "hash", core, codec="binary", home=("s1",), routed=("s1",)
        )
        assert wrapped.entries == core.entries
        assert wrapped.lookup_cost == 2
        assert wrapped.codec == "binary"
        assert wrapped.core() == core

    def test_failover_flag(self):
        primary_only = result(8, 8, home=("s0", "s1"), routed=("s0",),
                              contacts=(("s0", 3),))
        assert not primary_only.failover
        rerouted = result(8, 8, home=("s0", "s1"), routed=("s1",),
                          contacts=(("s1", 3),))
        assert rerouted.failover
        unsharded = result(8, 8)
        assert not unsharded.failover

    def test_container_conveniences(self):
        found = result(3, 8)
        assert len(found) == 3
        assert [e.entry_id for e in found] == ["v1", "v2", "v3"]

    def test_as_row_is_sorted_and_stable(self):
        row = result(3, 8, codec="binary").as_row()
        assert row["entries"] == ["v1", "v2", "v3"]
        assert row["found"] == 3 and row["target"] == 8
        assert row["status"] == STATUS_DEGRADED and row["degraded"]
        assert row["codec"] == "binary"
        assert "home" not in row  # sharded fields only when sharded
        sharded = result(8, 8, home=("s0",), routed=("s0",)).as_row()
        assert sharded["home"] == ["s0"] and sharded["failover"] is False


class TestRemovedShims:
    def test_dict_indexing_raises_with_hint(self):
        # the tombstone is gone: a frozen dataclass is simply not
        # subscriptable; as_row() is the row-dict shape
        full = result(8, 8)
        with pytest.raises(TypeError, match="not subscriptable"):
            full["found"]
        assert full.as_row()["found"] == 8

    def test_result_attribute_raises_with_hint(self):
        full = result(8, 8)
        with pytest.raises(AttributeError, match="no attribute 'result'"):
            full.result
        # core() is the supported replacement
        inner = full.core()
        assert isinstance(inner, CoreLookupResult)
        assert inner.entries == full.entries

    def test_other_missing_attributes_raise_plainly(self):
        with pytest.raises(AttributeError, match="no attribute"):
            result(8, 8).no_such_field

    def test_frozen(self):
        with pytest.raises(AttributeError):
            result(8, 8).target = 9


class TestLookupReport:
    def test_aggregates(self):
        report = LookupReport(results=(result(8, 8), result(3, 8), result(0, 8)))
        assert len(report) == 3
        assert report[1].degraded
        assert [r.exit_code for r in report] == [0, 3, 4]
        assert not report.all_success
        # ``degraded`` is "short of target", so a failed (empty)
        # lookup counts as degraded too; ``failed`` is the subset.
        assert report.degraded_count == 2
        assert report.failed_count == 1

    def test_exit_code_worst_wins(self):
        assert LookupReport(results=(result(8, 8),)).exit_code == 0
        assert LookupReport(results=(result(8, 8), result(3, 8))).exit_code == 3
        assert LookupReport(
            results=(result(3, 8), result(0, 8))
        ).exit_code == 4
        assert LookupReport(results=()).exit_code == 0

    def test_rows(self):
        rows = LookupReport(results=(result(8, 8), result(0, 8))).rows()
        assert [row["status"] for row in rows] == [STATUS_OK, STATUS_FAILED]
