"""Tests for repro.core.journal and the crash-safe campaign machinery:
record framing and torn-tail recovery, the content-addressed blob
layer, cooperative shutdown, and the headline invariant — a campaign
SIGKILL'd mid-run and resumed via ``repro resume`` reaches a verdict
byte-identical to the uninterrupted run, at any worker count, for both
DSE and fuzzing."""

import functools
import inspect
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest

from repro.core import HardSnapSession, SnapshotFuzzer
from repro.core.journal import (FORMAT_VERSION, Journal, config_fingerprint,
                                read_frames)
from repro.core.shutdown import (graceful_shutdown, request_shutdown, reset,
                                 shutdown_requested)
from repro.core.store import FileBlobStore, blob_digest
from repro.errors import JournalCorruptError, JournalError, SnapshotError
from repro.firmware import TIMER_BASE, dispatcher, fuzz_packet_parser
from repro.isa import assemble
from repro.parallel import (ParallelAnalysisEngine, ParallelFuzzer,
                            SessionRecipe, WorkerPool)
from repro.parallel.pool import close_all_pools
from repro.peripherals import catalog
from repro.targets import FpgaTarget

TIMER = [(catalog.TIMER, TIMER_BASE)]
SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]
SEED_HEX = ["010441424344", "0207"]
FIRMWARE = dispatcher(5, work_cycles=8)
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"
CLI = [sys.executable, "-m", "repro.cli"]
PERIPHERAL = f"timer@0x{TIMER_BASE:08x}"


def _cli_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


class _Serial:
    """Uninterrupted serial reference verdicts, computed once."""

    _engine = None
    _fuzz = None

    @classmethod
    def engine(cls):
        if cls._engine is None:
            cls._engine = HardSnapSession(
                FIRMWARE, TIMER, searcher="bfs").run(
                max_instructions=100_000).verdict_summary()
        return cls._engine

    @classmethod
    def fuzz(cls):
        if cls._fuzz is None:
            target = FpgaTarget(scan_mode="functional")
            target.add_peripheral(catalog.TIMER, TIMER_BASE)
            fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()),
                                    target, seeds=SEEDS, seed=3)
            cls._fuzz = fuzzer.run(executions=96,
                                   batch_size=16).verdict_summary()
        return cls._fuzz


def _campaign_cmd(tmp_path, mode, workers, journal):
    fw = tmp_path / "fw.s"
    if mode == "dse":
        fw.write_text(FIRMWARE)
        return CLI + ["run", str(fw), "--peripheral", PERIPHERAL,
                      "--workers", str(workers), "--searcher", "bfs",
                      "--max-instructions", "100000",
                      "--journal", str(journal), "--checkpoint-every", "1"]
    fw.write_text(fuzz_packet_parser())
    cmd = CLI + ["fuzz", str(fw), "--peripheral", PERIPHERAL,
                 "--workers", str(workers), "-n", "96",
                 "--batch-size", "16", "--rng-seed", "3",
                 "--journal", str(journal), "--checkpoint-every", "2"]
    for s in SEED_HEX:
        cmd += ["--seed", s]
    return cmd


def _fuzz_kill_points(journal, workers):
    """The appends of :func:`_campaign_cmd`'s fuzz campaign that fall
    after one checkpoint and before the next, read off the journal of
    an uninterrupted run: a SIGKILL right after one of them loses work
    that resume must re-execute."""
    with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                        workers=workers, batch_size=16, seed=3,
                        journal=journal, checkpoint_every=2) as fuzzer:
        fuzzer.run(executions=96)
    kinds = [r["kind"] for r in Journal.open(journal, readonly=True).records]
    checkpoints = [i for i, kind in enumerate(kinds) if kind == "checkpoint"]
    return [i + 1 for i in range(checkpoints[0] + 1, checkpoints[-1])
            if kinds[i] != "checkpoint"]


@functools.lru_cache(maxsize=None)
def _dse_reference(workers):
    """The records of :func:`_campaign_cmd`'s DSE campaign, run through
    the CLI to its seal without a crash (read-only: shared by tests)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        journal = tmp_path / "journal"
        subprocess.run(_campaign_cmd(tmp_path, "dse", workers, journal),
                       env=_cli_env(), capture_output=True, timeout=600,
                       check=True)
        return tuple(Journal.open(journal, readonly=True).records)


def _dse_kill_points(workers):
    """The appends of :func:`_campaign_cmd`'s DSE campaign that fall
    between two checkpoints in every run, read off a reference journal.

    Until the first checkpoint only the root lease is in flight, so it
    is the same append in every run. After it the workers' envelopes
    merge in the order they finish, but the next checkpoint follows an
    ``envelope-merged`` and a ``snapshot-sealed`` record, so the two
    appends after the first checkpoint never land on one. A SIGKILL
    right after either loses merged work that resume must re-execute."""
    kinds = [r["kind"] for r in _dse_reference(workers)]
    first = kinds.index("checkpoint") + 1  # its append number
    assert "checkpoint" not in kinds[first:first + 2]
    return [first + 1, first + 2]


def _older_checkpoint(put_blob):
    """Wrap ``Journal.put_blob`` so that DSE checkpoints are written in
    the shape they had before the snapshot and store records: the two
    records' counts in one ``stats_sums`` mapping and the store's
    high-water mark as ``chain_depth``."""
    def put(journal, obj):
        if isinstance(obj, dict) and "store" in obj and "controller" in obj:
            obj = dict(obj)
            controller, store = obj.pop("controller"), obj.pop("store")
            sums = {key: controller.get(key, 0)
                    for key in ("saves", "restores")}
            sums.update((key, store.get(key, 0))
                        for key in ("logical_bits", "stored_bits",
                                    "chunk_hits", "chunk_misses",
                                    "capture_skips"))
            obj["stats_sums"] = sums
            obj["chain_depth"] = store.get("max_chain_depth", 0)
        return put_blob(journal, obj)
    return put


def _crash_campaign(tmp_path, mode, workers, kill_after):
    """Run a journaled CLI campaign that SIGKILLs itself after the
    *kill_after*-th journal append; returns the journal directory. The
    campaign must die between two checkpoints, so that resume
    re-executes the work merged after the last one."""
    journal = tmp_path / "journal"
    err_path = tmp_path / "crash.err"
    # Output goes to files, not pipes: the coordinator's workers
    # inherit stdio, and a pipe would make this wait on *their* exit
    # (the orphan-poll grace period) instead of the SIGKILL itself.
    with open(tmp_path / "crash.out", "w") as out, \
            open(err_path, "w") as err:
        result = subprocess.run(
            _campaign_cmd(tmp_path, mode, workers, journal),
            env=_cli_env(REPRO_JOURNAL_KILL_AFTER=str(kill_after)),
            stdout=out, stderr=err, timeout=600)
    assert result.returncode == -signal.SIGKILL, (
        f"expected SIGKILL, got rc={result.returncode}\n"
        f"stderr: {err_path.read_text()[-2000:]}")
    assert (journal / "events.log").exists()
    crashed = Journal.open(journal, readonly=True)
    assert crashed.records[-1]["kind"] != "checkpoint"
    last = crashed.last("checkpoint")
    assert last is not None
    if mode == "fuzz":
        assert last["done"] < 96
    return journal


# ---------------------------------------------------------------------------
# Framing, blobs, corruption
# ---------------------------------------------------------------------------

class TestFraming:
    def test_create_append_reopen_round_trip(self, tmp_path):
        with Journal.create(tmp_path / "j") as journal:
            journal.append("campaign-opened", mode="fuzz", blob="ab")
            journal.append("note", value=7)
        reopened = Journal.open(tmp_path / "j", readonly=True)
        kinds = [r["kind"] for r in reopened.records]
        assert kinds == ["journal-opened", "campaign-opened", "note"]
        assert reopened.records[0]["version"] == FORMAT_VERSION
        assert reopened.first("note")["value"] == 7
        assert reopened.recovery is None
        assert not reopened.sealed

    @pytest.mark.parametrize("field", ["seq", "kind"])
    def test_append_refuses_the_journals_own_fields(self, tmp_path, field):
        with Journal.create(tmp_path / "j") as journal:
            with pytest.raises(JournalError, match=repr(field)):
                journal.append("note", **{field: 1})
            assert journal.append("note", value=1) == 2

    def test_create_refuses_existing(self, tmp_path):
        Journal.create(tmp_path / "j").close()
        with pytest.raises(JournalError, match="resume"):
            Journal.create(tmp_path / "j")

    def test_open_missing(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            Journal.open(tmp_path / "nope")

    def test_blob_round_trip_and_dedup(self, tmp_path):
        with Journal.create(tmp_path / "j") as journal:
            payload = {"frontier": [1, 2, 3], "rng": ("x", 4)}
            digest = journal.put_blob(payload)
            assert journal.put_blob(payload) == digest  # content address
            assert journal.get_blob(digest) == payload
        # one file per distinct body
        assert len(list((tmp_path / "j" / "blobs").iterdir())) == 1

    def test_corrupt_blob_detected(self, tmp_path):
        with Journal.create(tmp_path / "j") as journal:
            digest = journal.put_blob({"state": 1})
            (tmp_path / "j" / "blobs" / digest).write_bytes(b"rotten")
            with pytest.raises(JournalCorruptError):
                journal.get_blob(digest)

    def test_missing_blob_raises(self, tmp_path):
        store = FileBlobStore(tmp_path / "b")
        with pytest.raises(SnapshotError):
            store.get(blob_digest(b"never stored"))

    def test_interior_corruption_names_offset(self, tmp_path):
        with Journal.create(tmp_path / "j") as journal:
            journal.append("a", i=1)
            journal.append("b", i=2)
        log = tmp_path / "j" / "events.log"
        data = bytearray(log.read_bytes())
        frames = list(read_frames(bytes(data)))
        # flip one payload byte of the middle record (records follow it,
        # so this is rot/tampering, not a torn tail)
        offset = frames[1][0]
        data[offset + 20 + 2] ^= 0xFF
        log.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError) as err:
            Journal.open(tmp_path / "j")
        assert err.value.offset == offset
        assert str(offset) in str(err.value)

    def test_unsupported_version_rejected(self, tmp_path):
        with Journal.create(tmp_path / "j") as journal:
            pass
        # rewrite the log with a bumped version record
        other = tmp_path / "k"
        other.mkdir()
        import json as _json
        payload = _json.dumps(
            {"seq": 1, "kind": "journal-opened", "version": 99},
            sort_keys=True, separators=(",", ":")).encode()
        import hashlib as _hashlib
        frame = (len(payload).to_bytes(4, "little")
                 + _hashlib.blake2b(payload, digest_size=16).digest()
                 + payload)
        (other / "events.log").write_bytes(frame)
        with pytest.raises(JournalError, match="format"):
            Journal.open(other)

    def test_config_fingerprint_stable(self):
        class Cfg:
            def __repr__(self):
                return "Cfg(x=1)"
        assert config_fingerprint(Cfg()) == config_fingerprint(Cfg())
        assert len(config_fingerprint(Cfg())) == 16


class TestTornTail:
    def _make_journal(self, directory):
        with Journal.create(directory) as journal:
            journal.append("campaign-opened", mode="fuzz", blob="cd" * 16)
            journal.append("fuzz-shard-completed", worker=0, base=0,
                           count=16, blob="ef" * 16)
            journal.append("checkpoint", done=16, blob="01" * 16)
        return (directory / "events.log").read_bytes()

    def test_truncation_at_every_byte_of_final_record(self, tmp_path):
        """The crash-during-append shape: the log ends mid-record. Every
        possible cut point inside the final record must recover to the
        last intact record — detected, truncated, never silent."""
        data = self._make_journal(tmp_path / "src")
        frames = list(read_frames(data))
        last_offset = frames[-1][0]
        intact_kinds = ["journal-opened", "campaign-opened",
                        "fuzz-shard-completed"]
        for cut in range(last_offset + 1, len(data)):
            torn_dir = tmp_path / f"cut{cut}"
            torn_dir.mkdir()
            (torn_dir / "events.log").write_bytes(data[:cut])
            journal = Journal.open(torn_dir)
            assert journal.recovery == {"truncated_at": last_offset,
                                        "dropped": cut - last_offset}, cut
            assert [r["kind"] for r in journal.records[:3]] == intact_kinds
            # the repair itself is on the record
            assert journal.records[-1]["kind"] == "tail-recovered"
            journal.close()
            # a second open sees a clean, truncated log
            again = Journal.open(torn_dir, readonly=True)
            assert again.recovery is None
            assert (torn_dir / "events.log").stat().st_size < len(data)

    def test_damaged_final_record_is_torn_tail(self, tmp_path):
        """A checksum-failing *final* record is indistinguishable from a
        torn write and recovers the same way."""
        data = bytearray(self._make_journal(tmp_path / "src"))
        frames = list(read_frames(bytes(data)))
        last_offset = frames[-1][0]
        data[-1] ^= 0xFF
        torn_dir = tmp_path / "torn"
        torn_dir.mkdir()
        (torn_dir / "events.log").write_bytes(bytes(data))
        journal = Journal.open(torn_dir)
        assert journal.recovery["truncated_at"] == last_offset
        journal.close()

    def test_readonly_open_never_repairs(self, tmp_path):
        data = self._make_journal(tmp_path / "src")
        torn_dir = tmp_path / "torn"
        torn_dir.mkdir()
        (torn_dir / "events.log").write_bytes(data[:-3])
        journal = Journal.open(torn_dir, readonly=True)
        assert journal.recovery is not None
        # the file on disk is untouched
        assert (torn_dir / "events.log").read_bytes() == data[:-3]


# ---------------------------------------------------------------------------
# Cooperative shutdown + pool lifecycle
# ---------------------------------------------------------------------------

class TestShutdown:
    @pytest.fixture(autouse=True)
    def _clean_flag(self):
        reset()
        yield
        reset()

    def test_request_and_reset(self):
        assert not shutdown_requested()
        request_shutdown()
        assert shutdown_requested()
        reset()
        assert not shutdown_requested()

    def test_graceful_shutdown_first_signal_is_cooperative(self):
        with graceful_shutdown():
            os.kill(os.getpid(), signal.SIGINT)  # no KeyboardInterrupt
            assert shutdown_requested()
        assert not shutdown_requested()  # context exit resets

    def test_graceful_shutdown_restores_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        with graceful_shutdown():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_serial_fuzzer_interrupts_at_batch_boundary(self):
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()),
                                target, seeds=SEEDS, seed=3)
        request_shutdown()
        report = fuzzer.run(executions=64, batch_size=16)
        assert report.stop_reason == "interrupted"
        assert report.executions == 0

    def test_serial_engine_interrupts_at_schedule_point(self):
        session = HardSnapSession(FIRMWARE, TIMER, searcher="bfs")
        request_shutdown()
        report = session.run(max_instructions=100_000)
        assert report.stop_reason == "interrupted"

    def test_close_all_pools_reaps_live_pools(self):
        recipe = SessionRecipe.create(FIRMWARE, TIMER)
        pool = WorkerPool(recipe, 2)
        close_all_pools()
        # idempotent once reaped
        pool.close()
        assert pool.in_flight_payloads() == []


# ---------------------------------------------------------------------------
# Journaled campaigns: identity, resume, replay
# ---------------------------------------------------------------------------

class TestJournaledRuns:
    def test_fuzz_journaled_verdict_identical(self, tmp_path):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3,
                            journal=tmp_path / "j",
                            checkpoint_every=2) as fuzzer:
            report = fuzzer.run(executions=96)
        assert report.verdict_summary() == _Serial.fuzz()
        journal = Journal.open(tmp_path / "j", readonly=True)
        assert journal.sealed
        assert journal.last("campaign-sealed")["verdict"] == _Serial.fuzz()
        assert not journal.events("fuzz-shard-completed")
        assert journal.events("checkpoint")

    def test_fuzz_sealed_resume_is_idempotent(self, tmp_path):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3,
                            journal=tmp_path / "j") as fuzzer:
            fuzzer.run(executions=96)
        with ParallelFuzzer.resume(tmp_path / "j") as resumed:
            report = resumed.resume_run()
        assert report.verdict_summary() == _Serial.fuzz()

    def test_dse_journaled_verdict_identical(self, tmp_path):
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    searcher="bfs",
                                    journal=tmp_path / "j",
                                    checkpoint_every=2) as engine:
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == _Serial.engine()
        journal = Journal.open(tmp_path / "j", readonly=True)
        assert journal.sealed
        assert journal.last("campaign-sealed")["verdict"] == _Serial.engine()
        assert journal.events("lease-issued")
        assert journal.events("envelope-merged")
        assert journal.events("checkpoint")

    def test_dse_cli_records_carry_their_own_seq(self):
        """Every record of a journaled 2-worker CLI campaign carries
        ``seq`` 1..n in order; a lease's own counter rides as
        ``lease_seq``."""
        records = _dse_reference(2)
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        leases = [r for r in records if r["kind"] == "lease-issued"]
        assert [r["lease_seq"] for r in leases] == sorted(
            r["lease_seq"] for r in leases)

    def test_dse_sealed_resume_is_idempotent(self, tmp_path):
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    searcher="bfs",
                                    journal=tmp_path / "j") as engine:
            engine.run(max_instructions=100_000)
        with ParallelAnalysisEngine.resume(tmp_path / "j") as resumed:
            report = resumed.resume_run()
        assert report.verdict_summary() == _Serial.engine()

    def test_dse_checkpoint_in_older_shape_restores_snapshot_fields(
            self, tmp_path, monkeypatch):
        """A sealed campaign whose checkpoints keep the snapshot and
        store counts in the older ``stats_sums``/``chain_depth`` shape
        resumes to the same verdict and the same five ``snapshot_*``
        fields, all of which come from its final checkpoint."""
        monkeypatch.setattr(Journal, "put_blob",
                            _older_checkpoint(Journal.put_blob))
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    searcher="bfs",
                                    journal=tmp_path / "j") as engine:
            first = engine.run(max_instructions=100_000)
        monkeypatch.undo()
        journal = Journal.open(tmp_path / "j", readonly=True)
        checkpoint = journal.get_blob(journal.last("checkpoint")["blob"])
        assert "stats_sums" in checkpoint and "store" not in checkpoint
        with ParallelAnalysisEngine.resume(tmp_path / "j") as resumed:
            report = resumed.resume_run()
        assert report.verdict_summary() == _Serial.engine()
        fields = ("snapshot_saves", "snapshot_restores",
                  "snapshot_logical_bits", "snapshot_stored_bits",
                  "snapshot_dedup_hit_rate")
        assert first.snapshot_saves > 0
        assert [getattr(report, f) for f in fields] == \
            [getattr(first, f) for f in fields]

    def test_resume_rejects_wrong_mode(self, tmp_path):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3,
                            journal=tmp_path / "j") as fuzzer:
            fuzzer.run(executions=32)
        with pytest.raises(JournalError, match="campaign"):
            ParallelAnalysisEngine.resume(tmp_path / "j")

    def test_corrupt_checkpoint_falls_back_not_silently(self, tmp_path):
        """A rotten newest checkpoint blob must not sink the campaign:
        resume steps back to the previous checkpoint, re-executes every
        batch after it, reaches the identical verdict — and writes a
        ``checkpoint-skipped`` event naming the blob it abandoned."""
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3,
                            journal=tmp_path / "j",
                            checkpoint_every=2) as fuzzer:
            fuzzer.run(executions=96)
        journal = Journal.open(tmp_path / "j", readonly=True)
        newest = journal.events("checkpoint")[-1]["blob"]
        (tmp_path / "j" / "blobs" / newest).write_bytes(b"bit rot")
        with ParallelFuzzer.resume(tmp_path / "j") as resumed:
            report = resumed.resume_run()
        assert report.verdict_summary() == _Serial.fuzz()
        reopened = Journal.open(tmp_path / "j", readonly=True)
        skipped = reopened.events("checkpoint-skipped")
        assert skipped and skipped[0]["blob"] == newest

    def test_older_fuzz_journal_resumes_by_re_execution(self, tmp_path):
        """A fuzz journal as older versions wrote it: interrupted after
        its first checkpoint, with ``fuzz-shard-completed`` records (a
        per-shard result blob each) after it, one naming a blob that is
        missing. Resume ignores those records and re-executes every
        batch after the checkpoint to the serial verdict."""
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3,
                            journal=tmp_path / "new",
                            checkpoint_every=2) as fuzzer:
            fuzzer.run(executions=96)
        new = Journal.open(tmp_path / "new", readonly=True)
        checkpoint = new.first("checkpoint")
        old_dir = tmp_path / "old"
        shutil.copytree(tmp_path / "new" / "blobs", old_dir / "blobs")
        with Journal.create(old_dir) as old:
            for record in new.records[1:new.records.index(checkpoint) + 1]:
                old.append(record["kind"],
                           **{key: value for key, value in record.items()
                              if key not in ("seq", "kind")})
            done = checkpoint["done"]
            rows = [(i, bytes([i]), b"", None, -1) for i in range(8)]
            old.append("fuzz-shard-completed", worker=0, base=done,
                       count=len(rows),
                       blob=old.put_blob({"results": rows, "resets": 8,
                                          "modelled_dt": 0.0,
                                          "resilience": {}}))
            old.append("fuzz-shard-completed", worker=1, base=done,
                       count=8, blob="00" * 16)
        assert not (old_dir / "blobs" / ("00" * 16)).exists()
        with ParallelFuzzer.resume(old_dir) as resumed:
            report = resumed.resume_run()
            batches = resumed.pool_stats.batches
        assert report.verdict_summary() == _Serial.fuzz()
        assert done < 96 and batches == (96 - done) // 16


# ---------------------------------------------------------------------------
# The headline invariant: SIGKILL mid-campaign, resume, identical verdict
# ---------------------------------------------------------------------------

class TestCrashResume:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_dse_sigkill_resume_identical(self, tmp_path, workers):
        journal = _crash_campaign(tmp_path, "dse", workers,
                                  kill_after=_dse_kill_points(workers)[-1])
        assert not Journal.open(journal, readonly=True).sealed
        with ParallelAnalysisEngine.resume(journal,
                                           workers=workers) as engine:
            report = engine.resume_run()
        assert report.verdict_summary() == _Serial.engine()
        assert Journal.open(journal, readonly=True).sealed

    @pytest.mark.parametrize("workers", [2, 4])
    def test_fuzz_sigkill_resume_identical(self, tmp_path, workers):
        journal = _crash_campaign(tmp_path, "fuzz", workers, kill_after=5)
        assert not Journal.open(journal, readonly=True).sealed
        with ParallelFuzzer.resume(journal, workers=workers) as fuzzer:
            report = fuzzer.resume_run()
            assert fuzzer.pool_stats.batches >= 1
        assert report.verdict_summary() == _Serial.fuzz()
        assert Journal.open(journal, readonly=True).sealed

    def test_cli_resume_and_replay_round_trip(self, tmp_path):
        """The CLI surface end to end: crash → ``repro resume`` seals
        the campaign → ``repro replay`` re-executes it from the recipe
        and confirms the sealed verdict."""
        journal = _crash_campaign(tmp_path, "fuzz", 2, kill_after=4)
        resumed = subprocess.run(
            CLI + ["resume", str(journal)], env=_cli_env(),
            capture_output=True, text=True, timeout=600)
        # rc 1 = crashes found (normal fuzz semantics), 0 = none
        assert resumed.returncode in (0, 1), resumed.stderr[-2000:]
        assert int(re.search(r"^\[pool\] .* batches=(\d+)",
                             resumed.stdout, re.M).group(1)) >= 1
        assert Journal.open(journal, readonly=True).sealed
        replayed = subprocess.run(
            CLI + ["replay", str(journal)], env=_cli_env(),
            capture_output=True, text=True, timeout=600)
        assert replayed.returncode in (0, 1), replayed.stderr[-2000:]
        assert "verdict matches the sealed campaign verdict" \
            in replayed.stdout

    #: Attributes that journals written by older versions pickle and the
    #: current classes no longer have, per object below the engine: the
    #: removed shared-memory transport on the SessionRecipe, the removed
    #: VM knobs and hardware-time settings on its SessionConfig, and the
    #: config fields its TargetRecipe used to copy.
    STALE_ATTRIBUTES = {
        "recipe": {"transport": "shm"},
        "recipe.config": {"dispatch": "fast", "lane_width": 1,
                          "lane_steps": 1, "irq_poll_interval": 1,
                          "cycles_per_instruction": 1,
                          "reboot_time_s": 0.25},
        "recipe.target": {"kind": "fpga", "scan_mode": "functional",
                          "sram_dedup": False, "opt": True},
    }

    #: Setup-blob keys older versions record and nothing reads now.
    STALE_SETUP = {"lease_budget": 0, "lease_batch": 4}

    def test_cli_resume_of_recipe_with_removed_transport(self, tmp_path):
        """A journal whose pickled SessionRecipe, SessionConfig or
        TargetRecipe still carries an attribute set of
        :attr:`STALE_ATTRIBUTES`, whose setup blob carries
        :attr:`STALE_SETUP` and whose checkpoints have the older
        ``stats_sums`` shape (:func:`_older_checkpoint`): ``repro
        resume`` and ``repro replay`` must read all three and reach the
        serial verdict."""
        for owner, attributes in self.STALE_ATTRIBUTES.items():
            case = tmp_path / owner
            case.mkdir()
            journal = case / "journal"
            script = case / "old_campaign.py"
            script.write_text(inspect.getsource(_older_checkpoint) +
                              textwrap.dedent(f"""\
                import sys
                from repro.core.journal import Journal
                Journal.put_blob = _older_checkpoint(Journal.put_blob)
                from repro.firmware import TIMER_BASE, dispatcher
                from repro.parallel import ParallelAnalysisEngine
                from repro.peripherals import catalog
                engine = ParallelAnalysisEngine(
                    dispatcher(5, work_cycles=8),
                    [(catalog.TIMER, TIMER_BASE)],
                    workers=2, searcher="bfs", journal=sys.argv[1],
                    checkpoint_every=1)
                for name, value in {attributes!r}.items():
                    object.__setattr__(engine.{owner}, name, value)
                open_journal = engine._open_journal
                engine._open_journal = lambda setup, **fields: open_journal(
                    dict(setup, **{self.STALE_SETUP!r}), **fields)
                engine.run(max_instructions=100_000)
                """))
            with open(case / "crash.out", "w") as out, \
                    open(case / "crash.err", "w") as err:
                crashed = subprocess.run(
                    [sys.executable, str(script), str(journal)],
                    env=_cli_env(REPRO_JOURNAL_KILL_AFTER="14"),
                    stdout=out, stderr=err, timeout=600)
            assert crashed.returncode == -signal.SIGKILL, (
                (case / "crash.err").read_text()[-2000:])
            stale = Journal.open(journal, readonly=True)
            setup = stale.get_blob(stale.first("campaign-opened")["blob"])
            pickled = functools.reduce(getattr, owner.split(".")[1:],
                                       setup["recipe"])
            assert {name: getattr(pickled, name) for name in attributes} \
                == attributes
            assert {key: setup[key] for key in self.STALE_SETUP} \
                == self.STALE_SETUP
            assert "stats_sums" in stale.get_blob(
                stale.last("checkpoint")["blob"])
            assert not stale.sealed
            resumed = subprocess.run(
                CLI + ["resume", str(journal)], env=_cli_env(),
                capture_output=True, text=True, timeout=600)
            assert resumed.returncode in (0, 1), resumed.stderr[-2000:]
            sealed = Journal.open(journal, readonly=True)
            assert sealed.last("campaign-sealed")["verdict"] \
                == _Serial.engine(), owner
            replayed = subprocess.run(
                CLI + ["replay", str(journal)], env=_cli_env(),
                capture_output=True, text=True, timeout=600)
            assert replayed.returncode in (0, 1), replayed.stderr[-2000:]
            assert "verdict matches the sealed campaign verdict" \
                in replayed.stdout, owner

    def test_journal_chaos_cell(self, tmp_path):
        """One CI journal-chaos cell: the crash point and worker count
        come from the environment (defaults make it a plain local
        test). The seed picks both the campaign mode and how deep into
        the journal the SIGKILL lands: after one of the appends that
        fall between two checkpoints of the campaign
        (:func:`_dse_kill_points`, :func:`_fuzz_kill_points`)."""
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "1"))
        workers = int(os.environ.get("REPRO_CHAOS_WORKERS", "2"))
        mode = "dse" if seed % 2 else "fuzz"
        if mode == "dse":
            points = _dse_kill_points(workers)
        else:
            points = _fuzz_kill_points(tmp_path / "reference", workers)
        kill_after = points[(seed // 2) % len(points)]
        journal = _crash_campaign(tmp_path, mode, workers, kill_after)
        if mode == "dse":
            with ParallelAnalysisEngine.resume(journal,
                                               workers=workers) as engine:
                verdict = engine.resume_run().verdict_summary()
            assert verdict == _Serial.engine()
        else:
            with ParallelFuzzer.resume(journal, workers=workers) as fuzzer:
                verdict = fuzzer.resume_run().verdict_summary()
            assert verdict == _Serial.fuzz()


# ---------------------------------------------------------------------------
# Graceful SIGTERM: seal, drain, no shm leak
# ---------------------------------------------------------------------------

def _shm_segments():
    shm = pathlib.Path("/dev/shm")
    if not shm.exists():
        return set()
    return {p.name for p in shm.glob("rpr-*")}


class TestGracefulSignal:
    def test_sigterm_seals_checkpoint_and_unlinks_shm(self, tmp_path):
        before = _shm_segments()
        journal = tmp_path / "journal"
        # A campaign far too long to finish: we interrupt it.
        fw = tmp_path / "fw.s"
        fw.write_text(fuzz_packet_parser())
        cmd = CLI + ["fuzz", str(fw), "--peripheral", PERIPHERAL,
                     "--workers", "2", "-n", "500000",
                     "--batch-size", "16", "--rng-seed", "3",
                     "--journal", str(journal)]
        for s in SEED_HEX:
            cmd += ["--seed", s]
        proc = subprocess.Popen(cmd, env=_cli_env(),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            log = journal / "events.log"
            deadline = time.time() + 120
            while time.time() < deadline:
                if log.exists() and log.stat().st_size > 400:
                    break
                time.sleep(0.2)
            else:
                pytest.fail("campaign never started journaling")
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr[-2000:]
        reopened = Journal.open(journal, readonly=True)
        assert reopened.events("campaign-interrupted")
        assert not reopened.sealed
        assert reopened.events("checkpoint")  # final checkpoint sealed
        assert _shm_segments() <= before  # every segment unlinked
        # the interrupted campaign is resumable
        with ParallelFuzzer.resume(journal) as fuzzer:
            assert fuzzer._resume_run_kwargs["executions"] == 500_000
