"""Snapshot store correctness: content-addressed commits, byte-identical
checkouts, insert/delete diffs, lineage, and crash-safety (a commit killed
mid-write must never corrupt the store or hide previously committed
versions)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import Dataset
from repro.exceptions import SnapshotError, SnapshotIntegrityError
from repro.obs.names import ALL_METRIC_NAMES
from repro.snapshot import SnapshotStore, snapshot_id_of


@pytest.fixture
def store(tmp_path) -> SnapshotStore:
    return SnapshotStore(tmp_path / "store")


def _dataset(seed: int = 0, n: int = 12, name: str = "ds") -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.random((n, 3)), name=name)


class TestCommitCheckout:
    def test_checkout_is_byte_identical(self, store):
        data = _dataset()
        sid = store.commit(data)
        out = store.checkout(sid)
        assert out.fingerprint() == data.fingerprint()
        assert np.array_equal(out.values, data.values)
        assert np.array_equal(out.ids, data.ids)
        assert out.name == data.name
        assert out.id_high_watermark == data.id_high_watermark

    def test_commit_is_idempotent_and_content_addressed(self, store):
        sid = store.commit(_dataset())
        # An independently constructed dataset with identical identity state
        # lands on the same snapshot without writing anything new.
        assert store.commit(_dataset()) == sid
        metrics = store.metrics()
        assert metrics["snapshot.commits"] == 1
        assert metrics["snapshot.commits.deduped"] == 1
        assert store.commit(_dataset(seed=1)) != sid

    def test_snapshot_id_covers_watermark_but_not_parent(self, store):
        base = _dataset()
        raised = Dataset(
            base.values,
            ids=base.ids,
            name=base.name,
            id_high_watermark=base.id_high_watermark + 5,
        )
        # Same content, different identity: the watermark must round-trip,
        # so it participates in the id even though it is not in the
        # fingerprint.
        assert base.fingerprint() == raised.fingerprint()
        assert snapshot_id_of(base) != snapshot_id_of(raised)
        # The parent link is lineage metadata only: the same state reached
        # along a different history still dedupes onto one snapshot.
        sid = store.commit(base)
        other = store.commit(_dataset(seed=1))
        assert store.commit(base, parent=other) == sid

    def test_unknown_parent_is_rejected(self, store):
        with pytest.raises(SnapshotError):
            store.commit(_dataset(), parent="not-a-snapshot")

    def test_checkout_unknown_snapshot_raises(self, store):
        with pytest.raises(SnapshotError):
            store.checkout("missing")

    def test_lineage_and_latest(self, store):
        base = _dataset()
        first = store.commit(base)
        second = store.commit(base.with_appended([0.5, 0.5, 0.5]), parent=first)
        third = store.commit(
            store.checkout(second).with_appended([0.1, 0.2, 0.3]), parent=second
        )
        assert store.lineage(third) == [first, second, third]
        assert store.snapshot_ids() == [first, second, third]
        assert store.latest() == third
        assert first in store and "missing" not in store

    def test_latest_of_empty_store_is_none(self, store):
        assert store.latest() is None
        assert store.snapshot_ids() == []


class TestDiff:
    def test_diff_is_insert_delete_updates(self, store):
        base = Dataset([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], ids=[0, 1, 2])
        target = base.without_ids([1]).with_appended([4.0, 4.0])
        first = store.commit(base)
        second = store.commit(target, parent=first)
        diff = store.diff(first, second)
        assert [(u.op, u.record_id) for u in diff.updates] == [
            ("delete", 1),
            ("insert", 3),
        ]
        assert np.array_equal(diff.deletes[0].values, [2.0, 2.0])
        assert np.array_equal(diff.inserts[0].values, [4.0, 4.0])
        assert len(diff) == 2 and not diff.is_empty

    def test_self_diff_is_empty(self, store):
        sid = store.commit(_dataset())
        diff = store.diff(sid, sid)
        assert diff.is_empty and len(diff) == 0

    def test_diff_rejects_one_id_with_two_values(self, store):
        first = store.commit(Dataset([[1.0, 1.0], [2.0, 2.0]], ids=[0, 1]))
        second = store.commit(Dataset([[9.0, 9.0], [2.0, 2.0]], ids=[0, 1]))
        with pytest.raises(SnapshotError, match="disagree on record 0"):
            store.diff(first, second)


class TestCrashSafety:
    def _failing_replace(self, monkeypatch, suffix: str):
        """Make the atomic rename 'crash' for files ending in ``suffix``."""
        real_replace = os.replace

        def crash(src, dst, *args, **kwargs):
            if str(dst).endswith(suffix):
                raise OSError("simulated crash mid-commit")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", crash)

    def test_crash_before_meta_write_hides_the_new_snapshot(
        self, store, monkeypatch
    ):
        survivor = store.commit(_dataset(seed=0))
        doomed = _dataset(seed=1)
        self._failing_replace(monkeypatch, ".meta.json")
        with pytest.raises(OSError):
            store.commit(doomed)
        monkeypatch.undo()
        # The half-written snapshot does not exist; the survivor is intact.
        assert snapshot_id_of(doomed) not in store
        assert store.snapshot_ids() == [survivor]
        assert store.latest() == survivor
        store.checkout(survivor)
        # Retrying the commit after the 'restart' succeeds cleanly.
        sid = store.commit(doomed)
        assert store.checkout(sid).fingerprint() == doomed.fingerprint()

    def test_crash_during_payload_write_leaves_prior_versions_readable(
        self, store, monkeypatch
    ):
        survivor = store.commit(_dataset(seed=0))
        self._failing_replace(monkeypatch, ".values.npy")
        with pytest.raises(OSError):
            store.commit(_dataset(seed=1))
        monkeypatch.undo()
        assert store.snapshot_ids() == [survivor]
        out = store.checkout(survivor)
        assert out.fingerprint() == _dataset(seed=0).fingerprint()

    def test_tmp_debris_and_torn_metadata_are_ignored(self, store):
        sid = store.commit(_dataset())
        debris = store.root / "snapshots" / f"{sid}.values.npy.999.tmp"
        debris.write_bytes(b"half a write")
        torn = store.root / "snapshots" / "deadbeef.meta.json"
        torn.write_text("{not json", encoding="utf-8")
        assert store.snapshot_ids() == [sid]
        assert store.latest() == sid
        store.checkout(sid)
        with pytest.raises(SnapshotError):
            store.meta("deadbeef")

    def test_missing_payload_fails_closed(self, store):
        sid = store.commit(_dataset())
        (store.root / "snapshots" / f"{sid}.ids.npy").unlink()
        with pytest.raises(SnapshotIntegrityError):
            store.checkout(sid)
        assert store.metrics()["snapshot.verify.failures"] == 1

    def test_garbage_payload_fails_closed(self, store):
        sid = store.commit(_dataset())
        (store.root / "snapshots" / f"{sid}.values.npy").write_bytes(b"not an npy")
        with pytest.raises(SnapshotIntegrityError):
            store.checkout(sid)

    def test_tampered_payload_fails_fingerprint_verification(self, store):
        data = _dataset()
        sid = store.commit(data)
        # A *decodable* but wrong payload: same shape, different values.
        # Only the fingerprint check can catch this.
        forged = np.zeros_like(data.values)
        SnapshotStore._write_atomic(
            store.root / "snapshots" / f"{sid}.values.npy",
            SnapshotStore._array_bytes(forged),
        )
        with pytest.raises(SnapshotIntegrityError, match="fingerprint"):
            store.checkout(sid)
        assert store.metrics()["snapshot.verify.failures"] == 1


class TestCachePersistence:
    def test_missing_cache_files_load_empty(self, store):
        sid = store.commit(_dataset())
        assert store.load_result_entries(sid) == []
        assert store.load_partial_entries(sid) == []
        assert not store.has_caches(sid)

    def test_corrupt_cache_file_degrades_to_a_cold_cache(self, store):
        sid = store.commit(_dataset())
        store._results_path(sid).write_bytes(b"\x80\x04 truncated pickle")
        assert store.load_result_entries(sid) == []


class TestMetrics:
    def test_every_store_metric_is_catalogued(self, store):
        sid = store.commit(_dataset())
        store.checkout(sid)
        snapshot = store.metrics()
        assert set(snapshot) <= ALL_METRIC_NAMES
        assert snapshot["snapshot.commits"] == 1
        assert snapshot["snapshot.checkouts"] == 1
        assert snapshot["snapshot.store.snapshots"] == 1
        assert snapshot["snapshot.store.bytes"] > 0
