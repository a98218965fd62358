"""Tests for store building, reading, streaming and merging."""

import json

import numpy as np
import pytest

from repro.data import (
    DataError,
    DatasetConfig,
    DatasetManifest,
    ShardedDataset,
    build_dataset,
    merge_stores,
    verify_store,
)
from repro.data.manifest import MANIFEST_NAME
from repro.data.writer import collector_for, config_sites, partition_sites

CONFIG = DatasetConfig(n_sites=4, traces_per_site=2, trace_seconds=0.4)


@pytest.fixture(scope="module")
def reference():
    """The rows the CONFIG store must hold, collected in memory once."""
    collector = collector_for(CONFIG)
    x, labels = collector.collect(config_sites(CONFIG), CONFIG.traces_per_site).stacked()
    return x, labels


def build(tmp_path, name="store", shard_sites=2, **kwargs):
    store_dir = tmp_path / name
    manifest = build_dataset(store_dir, CONFIG, shard_sites=shard_sites, **kwargs)
    return store_dir, manifest


class TestBuild:
    def test_build_matches_memory_collection(self, tmp_path, reference):
        store_dir, manifest = build(tmp_path)
        assert manifest.status == "complete"
        assert manifest.n_rows == 8
        assert len(manifest.shards) == 2
        store = ShardedDataset(store_dir)
        x, labels = store.stacked()
        np.testing.assert_array_equal(x, reference[0])
        assert labels == reference[1]
        assert store.manifest.config.as_dict() == CONFIG.as_dict()

    def test_parallel_build_is_bit_identical(self, tmp_path):
        from repro.engine.engine import ExecutionEngine

        serial_dir, _ = build(tmp_path, "serial", shard_sites=1)
        parallel_dir, _ = build(
            tmp_path, "parallel", shard_sites=1, engine=ExecutionEngine(jobs=2)
        )
        for entry in DatasetManifest.load(serial_dir).shards:
            assert (serial_dir / entry.name).read_bytes() == (
                parallel_dir / entry.name
            ).read_bytes()

    def test_verify_passes_on_fresh_store(self, tmp_path):
        store_dir, _ = build(tmp_path)
        assert verify_store(store_dir) == []

    def test_partition_sites(self):
        assert partition_sites(5, 2) == [(0, 2), (2, 4), (4, 5)]
        assert partition_sites(2, 8) == [(0, 2)]


class TestResume:
    def test_resume_skips_valid_shards(self, tmp_path):
        store_dir, first = build(tmp_path)
        mtimes = {
            entry.name: (store_dir / entry.name).stat().st_mtime_ns
            for entry in first.shards
        }
        (store_dir / "shard-0001.npz").unlink()
        second = build_dataset(store_dir, CONFIG, shard_sites=2)
        assert verify_store(store_dir) == []
        # The surviving shard was not rewritten.
        kept = store_dir / "shard-0000.npz"
        assert kept.stat().st_mtime_ns == mtimes["shard-0000.npz"]
        assert second.shard_by_name() == first.shard_by_name()

    def test_resume_rejects_config_mismatch(self, tmp_path):
        store_dir, _ = build(tmp_path)
        other = DatasetConfig(n_sites=4, traces_per_site=3, trace_seconds=0.4)
        with pytest.raises(DataError):
            build_dataset(store_dir, other, shard_sites=2)

    def test_adopts_orphan_shard_from_interrupted_build(self, tmp_path):
        donor_dir, _ = build(tmp_path, "donor")
        # Simulate a crash after shard-0000 landed but before any
        # manifest write: shard file present, no manifest at all.
        store_dir = tmp_path / "interrupted"
        store_dir.mkdir()
        (store_dir / "shard-0000.npz").write_bytes(
            (donor_dir / "shard-0000.npz").read_bytes()
        )
        orphan_mtime = (store_dir / "shard-0000.npz").stat().st_mtime_ns
        build_dataset(store_dir, CONFIG, shard_sites=2)
        assert verify_store(store_dir) == []
        assert (store_dir / "shard-0000.npz").stat().st_mtime_ns == orphan_mtime

    def test_rebuilds_corrupt_shard(self, tmp_path):
        store_dir, _ = build(tmp_path)
        path = store_dir / "shard-0000.npz"
        path.write_bytes(path.read_bytes()[:-7] + b"corrupt")
        assert verify_store(store_dir) != []
        build_dataset(store_dir, CONFIG, shard_sites=2)
        assert verify_store(store_dir) == []


class TestReader:
    def test_labels_and_classes_are_lazy_and_complete(self, tmp_path, reference):
        store_dir, _ = build(tmp_path)
        store = ShardedDataset(store_dir)
        assert store.labels.tolist() == reference[1]
        assert store.classes == sorted(set(reference[1]))

    def test_shard_x_is_memmap(self, tmp_path):
        store_dir, _ = build(tmp_path)
        assert isinstance(ShardedDataset(store_dir).shard_x(0), np.memmap)

    def test_rows_gather_across_shards(self, tmp_path, reference):
        store_dir, _ = build(tmp_path, shard_sites=1)
        store = ShardedDataset(store_dir)
        picks = [7, 0, 3, 5]
        np.testing.assert_array_equal(store.rows(picks), reference[0][picks])
        with pytest.raises(IndexError):
            store.rows([8])

    def test_refuses_incomplete_store(self, tmp_path):
        store_dir, _ = build(tmp_path)
        manifest = DatasetManifest.load(store_dir)
        manifest.status = "building"
        manifest.save(store_dir)
        with pytest.raises(DataError):
            ShardedDataset(store_dir)


class TestStreaming:
    def test_batches_bit_identical_across_shard_layouts(self, tmp_path):
        fine_dir, _ = build(tmp_path, "fine", shard_sites=1)
        coarse_dir, _ = build(tmp_path, "coarse", shard_sites=4)
        fine = list(ShardedDataset(fine_dir).stream_batches(3, seed=11))
        coarse = list(ShardedDataset(coarse_dir).stream_batches(3, seed=11))
        assert len(fine) == len(coarse) == 3  # 8 rows / batch 3
        for (fx, fl), (cx, cl) in zip(fine, coarse):
            np.testing.assert_array_equal(fx, cx)
            np.testing.assert_array_equal(fl, cl)

    def test_epoch_and_seed_change_order(self, tmp_path):
        store_dir, _ = build(tmp_path)
        store = ShardedDataset(store_dir)
        assert not np.array_equal(store.stream_order(0), store.stream_order(1))
        assert not np.array_equal(store.stream_order(0, 0), store.stream_order(0, 1))

    def test_covers_every_row_once(self, tmp_path, reference):
        store_dir, _ = build(tmp_path)
        store = ShardedDataset(store_dir)
        seen = np.concatenate(
            [x for x, _ in store.stream_batches(3, seed=4)]
        )
        assert seen.shape == reference[0].shape
        order = store.stream_order(4)
        np.testing.assert_array_equal(seen, reference[0][order])

    def test_drop_last(self, tmp_path):
        store_dir, _ = build(tmp_path)
        batches = list(
            ShardedDataset(store_dir).stream_batches(3, seed=0, drop_last=True)
        )
        assert [len(x) for x, _ in batches] == [3, 3]


class TestMerge:
    def test_merge_concatenates(self, tmp_path, reference):
        a_dir, _ = build(tmp_path, "a", shard_sites=2)
        b_dir, _ = build(tmp_path, "b", shard_sites=4)
        merged_dir = tmp_path / "merged"
        manifest = merge_stores([a_dir, b_dir], merged_dir)
        assert manifest.n_rows == 16
        assert manifest.config.n_sites == 8
        assert verify_store(merged_dir) == []
        x, labels = ShardedDataset(merged_dir).stacked()
        np.testing.assert_array_equal(x, np.concatenate([reference[0]] * 2))
        assert labels == reference[1] * 2

    def test_merge_site_ranges_are_disjoint(self, tmp_path):
        a_dir, _ = build(tmp_path, "a")
        b_dir, _ = build(tmp_path, "b")
        manifest = merge_stores([a_dir, b_dir], tmp_path / "merged")
        ranges = [(e.site_start, e.site_stop) for e in manifest.shards]
        assert ranges == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_merge_rejects_shape_mismatch(self, tmp_path):
        a_dir, _ = build(tmp_path, "a")
        other = DatasetConfig(n_sites=2, traces_per_site=2, trace_seconds=0.8)
        build_dataset(tmp_path / "b", other)
        with pytest.raises(DataError):
            merge_stores([a_dir, tmp_path / "b"], tmp_path / "merged")

    def test_merge_rejects_existing_store(self, tmp_path):
        a_dir, _ = build(tmp_path, "a")
        b_dir, _ = build(tmp_path, "b")
        with pytest.raises(DataError):
            merge_stores([a_dir, b_dir], a_dir)


class TestManifestValidation:
    def test_unknown_schema_version(self, tmp_path):
        store_dir, _ = build(tmp_path)
        path = store_dir / MANIFEST_NAME
        data = json.loads(path.read_text())
        data["schema_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match="schema"):
            DatasetManifest.load(store_dir)

    def test_unknown_config_field(self, tmp_path):
        store_dir, _ = build(tmp_path)
        path = store_dir / MANIFEST_NAME
        data = json.loads(path.read_text())
        data["config"]["surprise"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(DataError, match="unknown dataset config"):
            DatasetManifest.load(store_dir)

    def test_not_a_store(self, tmp_path):
        with pytest.raises(DataError, match="not a dataset store"):
            DatasetManifest.load(tmp_path)

    def test_verify_reports_tampering(self, tmp_path):
        store_dir, _ = build(tmp_path)
        path = store_dir / "shard-0001.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        problems = verify_store(store_dir)
        assert len(problems) == 1
        assert "checksum" in problems[0]

    def test_verify_reports_missing_shard(self, tmp_path):
        store_dir, _ = build(tmp_path)
        (store_dir / "shard-0000.npz").unlink()
        assert any("missing" in p for p in verify_store(store_dir))

    def test_config_validation(self):
        with pytest.raises(DataError):
            DatasetConfig(n_sites=0, traces_per_site=1)
        with pytest.raises(DataError):
            DatasetConfig(n_sites=1, traces_per_site=1, period_ms=0.0)
