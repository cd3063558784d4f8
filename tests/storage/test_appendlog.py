"""The append-log journal: update records, replay, compaction."""

import base64
import json
import random

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.messages import AddRequest
from repro.cluster.server import Server
from repro.cluster.snapshots import ClusterImage, apply_image, store_records
from repro.core.entry import Entry, make_entries
from repro.core.storage import MemoryBackend, update_record
from repro.net.codec import encode_message
from repro.net.service import LookupService, ServiceConfig
from repro.storage import appendlog
from repro.storage.appendlog import (
    AppendLogJournal,
    RecoveredImage,
    RecoveryError,
)


class _Journaled:
    """Server 0's store of key ``k``, every mutation journaled as the
    update record a service's sync point builds: the mask diffed around
    it.  Reads go to the store itself."""

    def __init__(self, journal, store=None):
        self.journal = journal
        self.store = store if store is not None else MemoryBackend()

    def __getattr__(self, name):
        return getattr(self.store, name)

    def __iter__(self):
        return iter(self.store)

    def _journaled(self, mutate, *args):
        before, base = [self.store.mask], len(self.store.interner)
        result = mutate(*args)
        record = update_record("k", [self.store], before, base)
        if record is not None:
            self.journal.append(record)
        return result

    def add(self, entry):
        return self._journaled(self.store.add, entry)

    def discard(self, entry):
        return self._journaled(self.store.discard, entry)

    def pop_random(self, rng):
        return self._journaled(self.store.pop_random, rng)

    def clear(self):
        return self._journaled(self.store.clear)


def _rebuild(tmp_path):
    """Cold-start replay: a fresh journal, and server 0's store of key
    ``k`` rebuilt from disk as a recovery boot rebuilds it."""
    journal = AppendLogJournal(tmp_path)
    image = journal.load()
    cluster = Cluster(1, seed=0)
    apply_image(image, cluster)
    return journal, _Journaled(journal, cluster.server(0).store("k")), image


def _lines(tmp_path, serial=1):
    """A log file's lines, each the JSON array of one barrier's records."""
    path = tmp_path / f"journal.{serial:06d}.log"
    return [json.loads(line) for line in path.read_text().splitlines()]


def _records(tmp_path, serial=1):
    return [record for line in _lines(tmp_path, serial) for record in line]


class TestStoreRecords:
    def test_mutations_replay_bit_identically(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(8):
            store.add(entry)
        store.discard(Entry("v3"))
        store.discard(Entry("v5"))
        store.add(Entry("w5", payload={"port": 7}))
        store.add(Entry("v3"))  # re-add after drop: below the tail
        journal.close()

        _, recovered, _ = _rebuild(tmp_path)
        assert [(e.entry_id, e.payload) for e in recovered] == [
            (e.entry_id, e.payload) for e in store
        ]
        assert recovered.indices() == store.indices()
        assert recovered.mask == store.mask

    def test_an_add_below_a_held_index_journals_its_own_index(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(4):
            store.add(entry)
        store.discard(Entry("v2"))
        store.add(Entry("v2"))  # index 1, inserted below v3 and v4
        journal.close()

        records = _records(tmp_path)
        assert [r["servers"]["0"] for r in records] == [
            {"add": [0]}, {"add": [1]}, {"add": [2]}, {"add": [3]},
            {"drop": [1]}, {"add": [1]},
        ]
        # each interning names its index; the re-add interns nothing
        assert [r.get("base") for r in records] == [0, 1, 2, 3, None, None]
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.indices() == store.indices() == [0, 1, 2, 3]
        assert recovered.as_list() == store.as_list()

    def test_pop_random_journals_the_outcome(self, tmp_path):
        # Replay must be RNG-free: the popped entry is in the record as
        # a dropped index, so recovery never consumes a random stream.
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(6):
            store.add(entry)
        popped = store.pop_random(random.Random(42))
        journal.close()

        index = store.interner.index_of(popped.entry_id)
        assert _records(tmp_path)[-1] == {
            "op": "delta", "key": "k", "servers": {"0": {"drop": [index]}},
        }
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == store.as_list()

    def test_noop_mutations_are_not_journaled(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        store.add(Entry("a"))
        before = journal.log_records
        store.add(Entry("a"))  # duplicate
        store.discard(Entry("absent"))
        store.clear()
        store.clear()  # already empty: nothing to journal
        assert journal.log_records == before + 1  # only the first clear

    def test_a_clear_is_one_record(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(4):
            store.add(entry)
        before = journal.log_records
        store.clear()
        assert journal.log_records == before + 1
        journal.close()
        assert _records(tmp_path)[-1]["servers"] == {"0": {"drop": [0, 1, 2, 3]}}
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == []

    def test_read_only_journal_never_writes(self, tmp_path):
        journal = AppendLogJournal(tmp_path, read_only=True)
        store = _Journaled(journal)
        store.add(Entry("a"))
        assert journal.log_records == 0
        assert not (tmp_path / "journal.000001.log").exists()

    def test_recovered_store_samples_byte_identically(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(10):
            store.add(entry)
        store.discard(Entry("v4"))
        journal.close()
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.sample(4, random.Random(9)) == store.sample(
            4, random.Random(9)
        )

    def test_a_record_interning_off_its_index_is_a_recovery_error(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(3):
            store.add(entry)
        journal.close()
        path = tmp_path / "journal.000001.log"
        record = {"op": "delta", "key": "k", "base": 5, "new": [["w1", None]],
                  "servers": {"0": {"add": [5]}}}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps([record]) + "\n" + json.dumps([]) + "\n")
        with pytest.raises(RecoveryError, match="line 2 holds a malformed record.*index 3, the record says 5"):
            AppendLogJournal(tmp_path).load()


class TestJournalRecords:
    def test_state_records_dedupe(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        journal.record_state("k", 0, {"head": 1})
        journal.record_state("k", 0, {"head": 1})  # nothing set: skipped
        journal.record_state("k", 0, {"head": 1}, {"head": 1})  # set back: skipped
        journal.record_state("k", 0, {"head": 2}, {"head": 1})
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
        (record,) = _records(tmp_path)
        # 625 words as base64 of little-endian uint32, not a JSON list
        assert len(base64.b64decode(record["state"][1])) == 625 * 4
        image = AppendLogJournal(tmp_path).load()
        assert image.rng_state == record["state"]
        twin = random.Random()
        twin.setstate(appendlog._unpack_rng(image.rng_state))
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
        # The journal keeps no copy of a state: a strategy editing its
        # (nested) state in place through ``Server.set_state`` is seen
        # through the write's log.
        journal = AppendLogJournal(tmp_path)
        server = Server(0)
        server.set_state("k", "tail", 1)
        server.set_state("k", "positions", {"a": 0})
        state = server.state("k")
        journal.record_state("k", 0, state)
        _write(journal, server, ("positions", 1, "b"))
        _write(journal, server, ("log", [1, 2]))
        _write(journal, server, ("tail", 1), ("positions", 0, "a"))  # unchanged
        assert journal.log_records == 3
        journal.close()
        assert AppendLogJournal(tmp_path).load().states["k"][0] == state

    def test_a_nested_dict_of_unhashable_values_is_patched_too(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        server = Server(0)
        server.set_state("k", "tail", 1)
        server.set_state("k", "m", {"a": [1], "b": [2]})
        state = server.state("k")
        journal.record_state("k", 0, state)
        _write(journal, server, ("m", [1, 3], "a"), ("m", None, "b"), ("m", [4], "c"))
        journal.close()
        first, patch = _records(tmp_path)
        assert first["op"] == "state" and first["state"] == {"tail": 1, "m": {"a": [1], "b": [2]}}
        assert patch == {
            "op": "patch", "k": "k", "s": 0,
            "sub": {"m": {"set": {"a": [1, 3], "c": [4]}, "del": ["b"]}},
        }
        assert AppendLogJournal(tmp_path).load().states["k"][0] == state

    def test_key_order_does_not_defeat_the_dedupe(self, tmp_path):
        # Equality stands in for the sorted-JSON fingerprint it replaced.
        journal = AppendLogJournal(tmp_path)
        journal.record_state("k", 0, {"head": 1, "tail": 2})
        journal.record_state("k", 0, {"tail": 2, "head": 1}, {"tail": 2, "head": 1})
        journal.record_params({"a": {"x": 1, "y": 2}, "b": {}})
        journal.record_params({"b": {}, "a": {"y": 2, "x": 1}})
        assert journal.log_records == 2

    def test_load_seeds_the_dedupe(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        rng = random.Random(5)
        state = {"tail": 3, "positions": {"a": 0}}
        journal.record_state("k", 0, state)
        journal.record_rng(rng)
        journal.record_params({"hash": {"y": 2}})
        journal.close()

        reborn = AppendLogJournal(tmp_path)
        reborn.load()
        before = reborn.log_records
        reborn.record_state("k", 0, state)
        reborn.record_rng(rng)
        reborn.record_params({"hash": {"y": 2}})
        assert reborn.log_records == before  # all three recognised
        # A recovered state is patched from here on, not written whole.
        state["positions"]["b"] = 1
        reborn.record_state("k", 0, state, {("positions", "b"): None})
        reborn.close()
        assert _records(tmp_path)[-1] == {
            "op": "patch", "k": "k", "s": 0, "sub": {"positions": {"set": {"b": 1}}},
        }


def _write(journal, server, *writes):
    """One write's ``set_state`` calls on ``server`` (each ``(name,
    value[, item])`` for key ``k``), journaled from its log."""
    server.state_log.open()
    for write in writes:
        server.set_state("k", *write)
    changes = server.state_log.close()
    journal.record_state("k", 0, server.state("k"), changes.get(("k", 0)))


class TestSuppressedRecords:
    """A read-only journal is offered no record: the service builds a
    write's update record for the bus, and keeps it from the journal."""

    def test_no_store_record_is_built_for_a_deaf_journal(self, tmp_path):
        config = ServiceConfig(
            server_count=4, entry_count=6, store="log", data_dir=str(tmp_path)
        )
        LookupService(config).journal.close()
        service = LookupService(ServiceConfig(**{**vars(config), "store_read_only": True}))
        offered, recovered = [], service.journal.log_records
        service.journal.append = offered.append
        for entry_id in ("w1", "w2"):
            reply = service.handle_envelope({
                "op": "send", "server": 1, "key": "hash",
                "message": encode_message(AddRequest(Entry(entry_id))),
            })
            assert reply["ok"] and service.last_record is not None
        assert offered == []
        assert service.journal.log_records == recovered


class TestFlushBarriers:
    def _log_text(self, tmp_path, serial=1):
        path = tmp_path / f"journal.{serial:06d}.log"
        return path.read_text() if path.exists() else ""

    def test_appends_wait_for_the_barrier_and_land_in_one_write(
        self, tmp_path, count_writes
    ):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
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
        # one barrier, one line: the array of its six records
        assert self._log_text(tmp_path).count("\n") == 2
        assert [len(line) for line in _lines(tmp_path)] == [1, 6]
        journal.flush()  # nothing pending: no write
        assert counting.writes == 1

    def test_record_epoch_is_a_barrier(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        _Journaled(journal).add(Entry("a"))
        journal.record_epoch("k", 1)
        assert [[r["op"] for r in line] for line in _lines(tmp_path)] == [["delta", "epoch"]]

    def test_log_bytes_counts_pending_records(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        _Journaled(journal).add(Entry("a"))
        assert journal.log_bytes == len(self._log_text(tmp_path)) > 0

    def test_compaction_lands_pending_lines_in_the_old_serial(self, tmp_path, monkeypatch):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        store.add(Entry("a"))
        folded = []
        real_unlink = appendlog.pathlib.Path.unlink

        def keep_text(path, *args, **kwargs):
            folded.append((path.name, path.read_text()))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(appendlog.pathlib.Path, "unlink", keep_text)
        journal.compact(TestCompaction()._image_for(store))
        assert [name for name, _ in folded] == ["journal.000001.log"]
        assert [r["op"] for r in json.loads(folded[0][1])] == ["delta"]
        assert self._log_text(tmp_path, serial=2) == ""

    def test_fsync_runs_once_per_barrier_not_per_record(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(appendlog.os, "fsync", synced.append)
        journal = AppendLogJournal(tmp_path, fsync=True)
        store = _Journaled(journal)
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
        store = _Journaled(journal)
        for entry in make_entries(9):
            store.add(entry)
        assert [len(line) for line in _lines(tmp_path)] == [4, 4]
        assert len(journal._pending) == 1

    def test_suppressed_appends_leave_nothing_pending(self, tmp_path):
        journal = AppendLogJournal(tmp_path, read_only=True)
        assert journal.append({"op": "delta", "key": "k", "servers": {}}) is False
        assert journal._pending == []
        journal.close()
        assert not (tmp_path / "journal.000001.log").exists()


class TestReplayRobustness:
    def test_torn_tail_is_dropped_silently(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(5):
            store.add(entry)
        journal.close()
        path = tmp_path / "journal.000001.log"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "add", "k": "k", "s": 0, "e": ["v9"')  # cut short
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == make_entries(5)

    def test_a_restart_after_a_torn_tail_keeps_its_own_writes(self, tmp_path):
        # The restarted writer appends where the fragment was cut off:
        # unless the fragment goes first, its first line fuses with it
        # and the next recovery drops everything written after it.
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(2):
            store.add(entry)
        journal.close()
        path = tmp_path / "journal.000001.log"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op":"add","k":"k","s":0,"i":2,"e":["v2')  # SIGKILL here
        restarted, store, _ = _rebuild(tmp_path)
        assert path.read_text().endswith("]\n")  # back to the last whole line
        store.add(Entry("v3"))
        store.add(Entry("v4"))
        restarted.close()
        _, recovered, _ = _rebuild(tmp_path)
        assert [e.entry_id for e in recovered] == ["v1", "v2", "v3", "v4"]

    def test_a_read_only_journal_ignores_a_torn_tail_and_leaves_it(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(2):
            store.add(entry)
        journal.close()
        path = tmp_path / "journal.000001.log"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('[{"op":"add","k":"k","s":0,"i":2,"e":["v9",null]}]')
        torn = path.read_bytes()
        image = AppendLogJournal(tmp_path, read_only=True).load()
        assert image.records["k"]["servers"] == {"0": {"add": [0, 1]}}
        assert path.read_bytes() == torn

    def test_damage_before_the_last_line_is_a_recovery_error(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(3):
            store.add(entry)
            journal.flush()
        journal.close()
        path = tmp_path / "journal.000001.log"
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        lines[1] = lines[1][:20] + "\n"  # cut short, then written past
        path.write_text("".join(lines))
        with pytest.raises(RecoveryError, match="line 2 of 3"):
            AppendLogJournal(tmp_path).load()
        with pytest.raises(RecoveryError):
            AppendLogJournal(tmp_path, read_only=True).load()

    def test_a_fused_line_of_the_earlier_spelling_is_refused_until_cut(self, tmp_path):
        # One record per line, and a writer that restarted after a torn
        # tail without truncating it: its first record fused with the
        # fragment.  The fix the error names recovers every later write.
        def add(index, entry_id):
            return json.dumps(
                {"op": "add", "k": "k", "s": 0, "i": index, "e": [entry_id, None]},
                separators=(",", ":"),
            )

        fragment = add(2, "v9")[: -len('",null]}')]
        path = tmp_path / "journal.000001.log"
        path.write_text(
            f"{add(0, 'v1')}\n{add(1, 'v2')}\n{fragment}{add(2, 'v3')}\n{add(3, 'v4')}\n"
        )
        with pytest.raises(RecoveryError, match="line 3 of 4 is damaged"):
            AppendLogJournal(tmp_path).load()
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][lines[2].rindex('{"op":'):]
        path.write_text("".join(lines))
        _, recovered, _ = _rebuild(tmp_path)
        assert [e.entry_id for e in recovered] == ["v1", "v2", "v3", "v4"]

    def test_a_torn_barrier_is_dropped_whole(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        store.add(Entry("a"))
        journal.flush()
        for entry in make_entries(3):
            store.add(entry)
        journal.close()
        path = tmp_path / "journal.000001.log"
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) - 20])  # the last write, cut short
        _, recovered, _ = _rebuild(tmp_path)
        assert [e.entry_id for e in recovered] == ["a"]

    def test_a_record_this_journal_does_not_write_is_a_recovery_error(self, tmp_path):
        path = tmp_path / "journal.000001.log"
        path.write_text('[{"op":"add","k":"k","s":0}]\n[]\n')
        with pytest.raises(RecoveryError, match="line 1"):
            AppendLogJournal(tmp_path).load()

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
        assert image.stores["k"][0].membership() == [0]

    def test_has_data_ignores_an_empty_directory(self, tmp_path):
        assert not AppendLogJournal(tmp_path).has_data()


class TestCompaction:
    def _image_for(self, store):
        return ClusterImage(records=store_records({"k": [store.store]}))

    def test_compaction_folds_logs_into_the_snapshot(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
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
        store = _Journaled(journal)
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
        store = _Journaled(journal)
        for entry in make_entries(4):
            store.add(entry)
        journal.compact(self._image_for(store))
        journal.close()
        # resurrect a stale pre-compaction log with contradictory data
        with open(tmp_path / "journal.000001.log", "w", encoding="utf-8") as fh:
            fh.write('{"op": "clear", "k": "k", "s": 0}\n')
        _, recovered, _ = _rebuild(tmp_path)
        assert recovered.as_list() == store.as_list()

    def test_a_replayed_image_snapshots_its_stores_in_index_order(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        for entry in make_entries(4):
            store.add(entry)
        store.discard(Entry("v2"))
        store.add(Entry("v2"))  # back at index 1, after 2 and 3 in the log
        journal.close()
        image = AppendLogJournal(tmp_path, read_only=True).load()
        assert image.to_json()["stores"]["k"]["0"] == [0, 1, 2, 3]

    def test_should_compact_honours_the_threshold(self, tmp_path):
        journal = AppendLogJournal(tmp_path, compact_every=3)
        store = _Journaled(journal)
        store.add(Entry("a"))
        store.add(Entry("b"))
        assert not journal.should_compact()
        store.add(Entry("c"))
        assert journal.should_compact()
        journal.compact(self._image_for(store))
        assert not journal.should_compact()

    def test_stats_reflect_the_journal(self, tmp_path):
        journal = AppendLogJournal(tmp_path)
        store = _Journaled(journal)
        store.add(Entry("a"))
        stats = journal.stats()
        assert stats["kind"] == "log"
        assert stats["log_records"] == 1
        assert stats["log_bytes"] > 0
        assert stats["read_only"] is False
