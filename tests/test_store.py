"""Unit tests for the persistent artifact store (repro.store)."""

import json

import pytest

from repro.store import keys
from repro.store.artifact_store import (
    ArtifactStore,
    default_store_root,
    open_store,
    store_enabled_from_env,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


# ----------------------------------------------------------------- basics


def test_roundtrip(store):
    payload = {"answer": 42, "nested": {"pi": 3.5}, "list": [1, 2, 3]}
    assert store.put("metadata", "k" * 64, payload)
    got = store.get("metadata", "k" * 64)
    assert got == payload
    assert store.stats.hits == 1 and store.stats.writes == 1


def test_miss_on_absent_entry(store):
    assert store.get("metadata", "0" * 64) is None
    assert store.stats.misses == 1 and store.stats.hits == 0


def test_entries_are_sharded_files(store):
    key = keys.digest("sharding-test")
    store.put("graphs", key, {"x": 1})
    path = store.path_for("graphs", key)
    assert path.is_file()
    assert path.parent.name == key[:2]
    envelope = json.loads(path.read_text())
    assert envelope["schema"] == "repro.store/1"
    assert envelope["namespace"] == "graphs"
    assert envelope["key"] == key


def test_wipe_and_entry_count(store):
    for i in range(5):
        store.put("tuning", keys.digest("t", i), {"i": i})
    assert store.entry_count() == 5
    removed = store.wipe()
    assert removed == 5
    assert store.entry_count() == 0


# ----------------------------------------------------- corruption recovery


def _poison(store, namespace, key, text):
    path = store.path_for(namespace, key)
    path.write_text(text)


@pytest.mark.parametrize(
    "garbage",
    [
        "{ not json at all",
        "[1, 2, 3]",  # not an object
        json.dumps({"schema": "other/9", "namespace": "n", "key": "k"}),
        json.dumps(
            {
                "schema": "repro.store/1",
                "namespace": "metadata",
                "key": "WRONG",
                "payload": {},
                "checksum": "x",
            }
        ),
    ],
)
def test_corrupt_entry_is_a_miss_and_quarantined(store, garbage):
    key = keys.digest("corruption")
    store.put("metadata", key, {"fine": True})
    _poison(store, "metadata", key, garbage)
    assert store.get("metadata", key) is None
    assert store.stats.invalid == 1
    # the bad file was removed so the next write starts clean
    assert not store.path_for("metadata", key).exists()


def test_checksum_mismatch_detected(store):
    key = keys.digest("checksum")
    store.put("search", key, {"value": 1})
    path = store.path_for("search", key)
    envelope = json.loads(path.read_text())
    envelope["payload"]["value"] = 2  # tamper without updating the checksum
    path.write_text(json.dumps(envelope))
    assert store.get("search", key) is None
    assert store.stats.invalid == 1


def test_store_fault_seam_poisons_reads(store):
    """A read at the store seam that finds a checksum-mismatched envelope
    is rejected, and the entry is quarantined: a later read is a clean
    miss, not a second rejection."""
    key = keys.digest("seam")
    store.put("metadata", key, {"ok": 1})
    path = store.path_for("metadata", key)
    envelope = json.loads(path.read_text())
    envelope["sha256"] = "0" * len(envelope["sha256"])
    path.write_text(json.dumps(envelope))
    assert store.get("metadata", key) is None
    assert store.stats.invalid == 1
    assert store.get("metadata", key) is None
    assert (store.stats.invalid, store.stats.misses) == (1, 2)


def test_unwritable_root_degrades_to_noop(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("I am a file, not a directory")
    store = open_store(blocker)
    assert store is None  # open_store never raises


# ------------------------------------------------------------------- keys


def test_digest_is_stable_and_distinct():
    assert keys.digest("a", 1) == keys.digest("a", 1)
    assert keys.digest("a", 1) != keys.digest("a", 2)
    assert keys.digest("a", 1) != keys.digest("b", 1)


def test_stage_keys_chain_invalidation():
    t1 = keys.targets_key("prog", "dev", 0.3, (), False)
    t2 = keys.targets_key("prog2", "dev", 0.3, (), False)
    assert t1 != t2
    assert keys.graphs_key(t1) != keys.graphs_key(t2)
    # config changes invalidate too
    assert t1 != keys.targets_key("prog", "dev", 0.4, (), False)
    assert t1 != keys.targets_key("prog", "dev", 0.3, ("k",), False)


def test_env_enablement(tmp_path):
    assert not store_enabled_from_env({})
    assert not store_enabled_from_env({"REPRO_STORE": "0"})
    assert not store_enabled_from_env({"REPRO_STORE": "off"})
    assert store_enabled_from_env({"REPRO_STORE": str(tmp_path)})
    assert default_store_root({"REPRO_STORE": str(tmp_path)}) == str(tmp_path)
    assert default_store_root({}) == "~/.cache/repro"


# -------------------------------------------------- instrumentation (PR 8)


def test_stats_track_bytes_and_namespaces(store):
    key = "k" * 64
    store.put("metadata", key, {"answer": 42})
    store.get("metadata", key)
    store.get("graphs", "0" * 64)  # miss in another namespace
    stats = store.stats
    assert stats.bytes_written > 0
    assert stats.bytes_read == stats.bytes_written  # same envelope back
    meta = stats.namespaces["metadata"]
    assert meta["writes"] == 1 and meta["hits"] == 1 and meta["misses"] == 0
    assert meta["bytes_written"] == stats.bytes_written
    assert meta["bytes_read"] == stats.bytes_read
    graphs = stats.namespaces["graphs"]
    assert graphs["misses"] == 1 and graphs["hits"] == 0
    as_dict = stats.as_dict()
    assert as_dict["bytes_read"] == stats.bytes_read
    assert as_dict["namespaces"]["metadata"]["hits"] == 1
    # the pre-existing summary keys survive for older consumers
    assert as_dict["hits"] == 1 and as_dict["misses"] == 1


def test_store_metrics_counters_and_latency(store):
    from repro.observability import telemetry
    from repro.observability.metrics import get_registry, reset_registry

    reset_registry()
    try:
        with telemetry(True):
            key = "m" * 64
            store.put("metadata", key, {"answer": 42})
            store.get("metadata", key)
            store.get("metadata", "0" * 64)
        registry = get_registry()
        totals = registry.counter_totals()
        assert totals["store_write_bytes_total"] > 0
        assert totals["store_read_bytes_total"] > 0
        snapshot = registry.snapshot()
        # one series per (name, labels) key; hit + miss both observed
        reads = sum(
            hist.count for (name, _), hist in snapshot.histograms.items()
            if name == "store_read_seconds"
        )
        assert reads == 2
        writes = sum(
            hist.count for (name, _), hist in snapshot.histograms.items()
            if name == "store_write_seconds"
        )
        assert writes == 1
    finally:
        reset_registry()
