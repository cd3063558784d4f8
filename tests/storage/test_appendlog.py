"""The append-log journal and LogBackend: journaling, replay, compaction."""

import contextlib
import json
import random

import pytest

from repro.core.entry import Entry, make_entries
from repro.core.interning import EntryInterner
from repro.storage import appendlog
from repro.storage.appendlog import (
    AppendLogJournal,
    LogBackend,
    RecoveredImage,
    RecoveryError,
)


def _backend(journal, key="k", server_id=0, interner=None):
    return LogBackend(journal, key, server_id, interner=interner)


def _rebuild(tmp_path, key="k", server_id=0):
    """Cold-start replay: a fresh journal + backend built from disk."""
    journal = AppendLogJournal(tmp_path)
    image = journal.load()
    interner = EntryInterner()
    for entry_id, payload in image.interners.get(key, []):
        interner.intern(Entry(entry_id, payload))
    store = _backend(journal, key, server_id, interner)
    with journal.suspended():
        for entry_id, payload in image.stores.get(key, {}).get(server_id, []):
            store.add(Entry(entry_id, payload))
    return journal, store, image


class TestLogBackendJournaling:
    def test_mutations_replay_bit_identically(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(8):
            store.add(entry)
        store.discard(Entry("v3"))
        store.replace(Entry("v5"), Entry("w5"))
        store.add(Entry("v3"))  # re-add after drop: new list position
        journal.close()

        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == store.as_list()
        assert recovered.indices() == store.indices()
        assert recovered.mask == store.mask

    def test_pop_random_journals_the_outcome(self, tmp_path):
        # Replay must be RNG-free: the popped entry's id is recorded as
        # a plain drop, so recovery never consumes a random stream.
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(6):
            store.add(entry)
        popped = store.pop_random(random.Random(42))
        journal.close()

        records = [
            json.loads(line)
            for line in (tmp_path / "journal.000001.log").read_text().splitlines()
        ]
        drops = [r for r in records if r["op"] == "drop"]
        assert drops == [{"op": "drop", "k": "k", "s": 0, "id": popped.entry_id}]
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == store.as_list()

    def test_noop_mutations_are_not_journaled(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        store.add(Entry("a"))
        before = journal.log_records
        store.add(Entry("a"))  # duplicate
        store.discard(Entry("absent"))
        store.replace(Entry("absent"), Entry("b"))
        store.clear()
        store.clear()  # already empty: nothing to journal
        assert journal.log_records == before + 1  # only the first clear

    def test_restore_is_one_reset_record(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(4):
            store.add(entry)
        before = journal.log_records
        store.restore([Entry("x1"), Entry("x2"), Entry("x3")])
        assert journal.log_records == before + 1
        journal.close()
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == [Entry("x1"), Entry("x2"), Entry("x3")]

    def test_read_only_journal_never_writes(self, tmp_path):
        journal = AppendLogJournal(tmp_path, read_only=True)
        store = _backend(journal)
        store.add(Entry("a"))
        assert journal.log_records == 0
        assert not (tmp_path / "journal.000001.log").exists()

    def test_recovered_store_samples_byte_identically(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(10):
            store.add(entry)
        store.discard(Entry("v4"))
        journal.close()
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.sample(4, random.Random(9)) == store.sample(
            4, random.Random(9)
        )


class TestJournalRecords:
    def test_state_records_dedupe(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        journal.record_state("k", 0, {"head": 1})
        journal.record_state("k", 0, {"head": 1})  # unchanged: skipped
        journal.record_state("k", 0, {"head": 2})
        assert journal.log_records == 2

    def test_empty_never_seen_state_is_skipped(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        journal.record_state("k", 0, {})
        assert journal.log_records == 0

    def test_transient_state_keys_are_dropped(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        journal.record_state("k", 0, {"head": 1, "migrations": [1, 2]})
        journal.close()
        image = AppendLogJournal(tmp_path).load()
        assert image.states["k"][0] == {"head": 1}

    def test_rng_round_trips_exactly(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        rng = random.Random(123)
        rng.random()
        journal.record_rng(rng)
        journal.record_rng(rng)  # unchanged: deduped
        assert journal.log_records == 1
        journal.close()
        image = AppendLogJournal(tmp_path).load()
        twin = random.Random()
        twin.setstate((image.rng_state[0], tuple(image.rng_state[1]), image.rng_state[2]))
        assert twin.random() == rng.random()

    def test_epoch_records_keep_the_max(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        journal.record_epoch("k", 3)
        journal.record_epoch("k", 7)
        journal.record_epoch("k", 5)  # late duplicate delivery
        journal.close()
        image = AppendLogJournal(tmp_path).load()
        assert image.epochs == {"k": 7}

    def test_params_dedupe_and_replay(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        journal.record_params({"hash": {"y": 2, "hash_seed": 9}})
        journal.record_params({"hash": {"y": 2, "hash_seed": 9}})
        assert journal.log_records == 1
        journal.close()
        image = AppendLogJournal(tmp_path).load()
        assert image.params == {"hash": {"y": 2, "hash_seed": 9}}


    def test_in_place_mutation_of_a_journaled_state_is_seen(self, tmp_path):
        # The dedupe keeps its own copy of the last journaled payload:
        # a strategy mutating its (nested) state in place must compare
        # unequal to it, never to itself.
        journal = AppendLogJournal(tmp_path)
        state = {"tail": 1, "positions": {"a": 0}, "log": [[1]]}
        journal.record_state("k", 0, state)
        state["positions"]["b"] = 1
        journal.record_state("k", 0, state)
        state["log"][0].append(2)
        journal.record_state("k", 0, state)
        journal.record_state("k", 0, state)  # unchanged: skipped
        assert journal.log_records == 3
        journal.close()
        assert AppendLogJournal(tmp_path).load().states["k"][0] == state

    def test_key_order_does_not_defeat_the_dedupe(self, tmp_path):
        # Equality stands in for the sorted-JSON fingerprint it replaced.
        journal = AppendLogJournal(tmp_path)
        journal.record_state("k", 0, {"head": 1, "tail": 2})
        journal.record_state("k", 0, {"tail": 2, "head": 1})
        journal.record_params({"a": {"x": 1, "y": 2}, "b": {}})
        journal.record_params({"b": {}, "a": {"y": 2, "x": 1}})
        assert journal.log_records == 2

    def test_load_seeds_the_dedupe_with_private_copies(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        rng = random.Random(5)
        state = {"tail": 3, "positions": {"a": 0}}
        journal.record_state("k", 0, state)
        journal.record_rng(rng)
        journal.record_params({"hash": {"y": 2}})
        journal.close()

        reborn = AppendLogJournal(tmp_path)
        image = reborn.load()
        before = reborn.log_records
        reborn.record_state("k", 0, state)
        reborn.record_rng(rng)
        reborn.record_params({"hash": {"y": 2}})
        assert reborn.log_records == before  # all three recognised
        # apply_image hands the image's own dicts to the live servers,
        # so an in-place edit of one must still register as a change.
        image.states["k"][0]["positions"]["b"] = 1
        reborn.record_state("k", 0, image.states["k"][0])
        assert reborn.log_records == before + 1


class TestSuppressedRecords:
    """A journal that is not listening is asked before a record is built."""

    @pytest.mark.parametrize("mode", ["read_only", "suspended"])
    def test_no_store_record_is_built_for_a_deaf_journal(self, tmp_path, mode):
        journal = AppendLogJournal(tmp_path, read_only=mode == "read_only")
        offered = []
        real_append = journal.append

        def append(record):
            offered.append(record)
            return real_append(record)

        journal.append = append
        store = _backend(journal)
        with journal.suspended() if mode == "suspended" else contextlib.nullcontext():
            for entry in make_entries(4):
                store.add(entry)
            store.discard(Entry("v2"))
            store.replace(Entry("v3"), Entry("w3"))
            store.pop_random(random.Random(1))
            store.restore(make_entries(3))
            store.clear()
        assert offered == []
        assert journal.log_records == 0
        if mode == "suspended":
            store.add(Entry("heard"))
            assert [record["op"] for record in offered] == ["add"]
            assert journal.log_records == 1


class TestFlushBarriers:
    def _log_text(self, tmp_path, serial=1):
        path = tmp_path / f"journal.{serial:06d}.log"
        return path.read_text() if path.exists() else ""

    def test_appends_wait_for_the_barrier_and_land_in_one_write(
        self, tmp_path, count_writes
    ):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        store.add(Entry("a"))
        journal.flush()
        counting = count_writes(journal)
        for entry in make_entries(5):
            store.add(entry)
        journal.record_state("k", 0, {"tail": 5})
        assert counting.writes == 0
        assert self._log_text(tmp_path).count("\n") == 1  # nothing torn, nothing early
        journal.flush()
        assert counting.writes == 1
        assert self._log_text(tmp_path).count("\n") == 7
        journal.flush()  # nothing pending: no write
        assert counting.writes == 1

    def test_record_epoch_is_a_barrier(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        _backend(journal).add(Entry("a"))
        journal.record_epoch("k", 1)
        lines = self._log_text(tmp_path).splitlines()
        assert [json.loads(line)["op"] for line in lines] == ["add", "epoch"]

    def test_log_bytes_counts_pending_records(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        _backend(journal).add(Entry("a"))
        assert journal.log_bytes == len(self._log_text(tmp_path)) > 0

    def test_compaction_lands_pending_lines_in_the_old_serial(self, tmp_path, monkeypatch):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        store.add(Entry("a"))
        folded = []
        real_unlink = appendlog.pathlib.Path.unlink

        def keep_text(path, *args, **kwargs):
            folded.append((path.name, path.read_text()))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(appendlog.pathlib.Path, "unlink", keep_text)
        journal.compact(TestCompaction()._image_for(store))
        assert [name for name, _ in folded] == ["journal.000001.log"]
        assert json.loads(folded[0][1])["op"] == "add"
        assert self._log_text(tmp_path, serial=2) == ""

    def test_fsync_runs_once_per_barrier_not_per_record(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(appendlog.os, "fsync", synced.append)
        journal = AppendLogJournal(tmp_path, fsync=True)
        store = _backend(journal)
        for entry in make_entries(6):
            store.add(entry)
        assert synced == []
        journal.flush()
        assert len(synced) == 1
        journal.record_epoch("k", 1)
        assert len(synced) == 2

    def test_a_bulk_mutation_flushes_in_bounded_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(appendlog, "MAX_PENDING_RECORDS", 4)
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(9):
            store.add(entry)
        assert self._log_text(tmp_path).count("\n") == 8
        assert len(journal._pending) == 1

    def test_suppressed_appends_leave_nothing_pending(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        with journal.suspended():
            assert journal.append({"op": "clear", "k": "k", "s": 0}) is False
        journal.close()
        assert not (tmp_path / "journal.000001.log").exists()


class TestReplayRobustness:
    def test_torn_tail_is_dropped_silently(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(5):
            store.add(entry)
        journal.close()
        path = tmp_path / "journal.000001.log"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "add", "k": "k", "s": 0, "e": ["v9"')  # cut short
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == make_entries(5)

    def test_index_mismatch_is_a_recovery_error(self, tmp_path):
        image = RecoveredImage()
        image.apply({"op": "add", "k": "k", "s": 0, "i": 0, "e": ["a", None]})
        with pytest.raises(RecoveryError):
            image.apply({"op": "add", "k": "k", "s": 1, "i": 5, "e": ["b", None]})

    def test_unknown_op_is_a_recovery_error(self):
        with pytest.raises(RecoveryError):
            RecoveredImage().apply({"op": "teleport"})

    def test_duplicate_add_replays_idempotently(self, tmp_path):
        # Journal-replay and delta-application can overlap after a
        # fleet recovery; the image absorbs the double delivery.
        image = RecoveredImage()
        record = {"op": "add", "k": "k", "s": 0, "i": 0, "e": ["a", None]}
        image.apply(record)
        image.apply(record)
        assert image.stores["k"][0] == [["a", None]]

    def test_has_data_ignores_an_empty_directory(self, tmp_path):
        assert not AppendLogJournal(tmp_path).has_data()


class TestCompaction:
    def _image_for(self, store):
        image = RecoveredImage()
        interner = store.interner
        image.interners["k"] = [
            [interner.entry_at(i).entry_id, interner.entry_at(i).payload]
            for i in range(len(interner))
        ]
        image._index_by_id["k"] = {
            pair[0]: i for i, pair in enumerate(image.interners["k"])
        }
        image.stores["k"] = {0: [[e.entry_id, e.payload] for e in store.as_list()]}
        return image

    def test_compaction_folds_logs_into_the_snapshot(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(6):
            store.add(entry)
        journal.compact(self._image_for(store), epoch=11)
        # folded logs gone, snapshot present, fresh serial open
        assert not (tmp_path / "journal.000001.log").exists()
        assert (tmp_path / "snapshot.json").exists()
        assert journal.log_records == 0
        assert journal.compactions == 1
        assert journal.last_compaction_epoch == 11

    def test_post_compaction_mutations_replay_on_top(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(6):
            store.add(entry)
        journal.compact(self._image_for(store))
        store.discard(Entry("v2"))
        store.add(Entry("w9"))
        journal.close()
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == store.as_list()
        assert recovered.mask == store.mask

    def test_stale_lower_serial_logs_are_ignored(self, tmp_path):
        # A crash between snapshot publish and unlink leaves old logs
        # behind; replay must skip them (their serial < snapshot's).
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        for entry in make_entries(4):
            store.add(entry)
        journal.compact(self._image_for(store))
        journal.close()
        # resurrect a stale pre-compaction log with contradictory data
        with open(tmp_path / "journal.000001.log", "w", encoding="utf-8") as fh:
            fh.write('{"op": "clear", "k": "k", "s": 0}\n')
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == store.as_list()

    def test_should_compact_honours_the_threshold(self, tmp_path):
        journal = AppendLogJournal(tmp_path, compact_every=3)
        store = _backend(journal)
        store.add(Entry("a"))
        store.add(Entry("b"))
        assert not journal.should_compact()
        store.add(Entry("c"))
        assert journal.should_compact()
        journal.compact(self._image_for(store))
        assert not journal.should_compact()

    def test_stats_reflect_the_journal(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _backend(journal)
        store.add(Entry("a"))
        stats = journal.stats()
        assert stats["kind"] == "log"
        assert stats["log_records"] == 1
        assert stats["log_bytes"] > 0
        assert stats["read_only"] is False
