"""ResultStore: atomicity, content addressing, corruption handling."""

import json

import pytest

from repro._version import __version__
from repro.campaign.spec import canonical_json, sha256_text
from repro.campaign.store import ResultStore

HASH_A = "a" * 64
HASH_B = "b" * 64

PAYLOAD = {"kind": "figure", "winner": {"design": "ASIC"},
           "values": [1.5, 2.25, None]}


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path)


class TestRoundTrip:
    def test_put_then_get(self, store):
        store.put(HASH_A, PAYLOAD)
        assert store.get(HASH_A) == PAYLOAD

    def test_missing_key_is_a_miss(self, store):
        assert store.get(HASH_A) is None
        assert store.stats().misses == 1

    def test_keys_are_sorted_hashes(self, store):
        store.put(HASH_B, PAYLOAD)
        store.put(HASH_A, PAYLOAD)
        assert store.keys() == [HASH_A, HASH_B]
        assert len(store) == 2

    def test_layout_shards_by_hash_prefix(self, store, tmp_path):
        path = store.put(HASH_A, PAYLOAD)
        assert path == (
            tmp_path / __version__ / HASH_A[:2] / f"{HASH_A}.json"
        )
        assert path.exists()

    def test_no_leftover_temp_files(self, store):
        store.put(HASH_A, PAYLOAD)
        leftovers = [
            p for p in store.directory.rglob("*.tmp")
        ]
        assert leftovers == []

    def test_envelope_is_the_canonical_encoding(self, store):
        """The file holds exactly the canonical JSON of the envelope
        dict, whose checksum covers the result's canonical form."""
        result = dict(PAYLOAD, label="ASIC\u00b5", tiny=5e-324,
                      nested={"b": [0.1, 1e300], "a": -0.0})
        path = store.put(HASH_A, result)
        body = canonical_json(result)
        assert path.read_text(encoding="utf-8") == canonical_json({
            "task_hash": HASH_A,
            "model_version": store.model_version,
            "checksum": sha256_text(body),
            "result": result,
        })
        assert store.get(HASH_A) == result

    def test_contains_does_not_touch_counters(self, store):
        assert not store.contains(HASH_A)
        store.put(HASH_A, PAYLOAD)
        assert store.contains(HASH_A)
        assert store.stats().hits == 0
        assert store.stats().misses == 0


class TestVersionKeying:
    def test_results_are_keyed_on_model_version(self, tmp_path):
        old = ResultStore(tmp_path, model_version="0.9.0")
        new = ResultStore(tmp_path, model_version="1.0.0")
        old.put(HASH_A, PAYLOAD)
        # The same task hash under a newer model version is a miss:
        # an upgraded model never serves results computed by an old one.
        assert new.get(HASH_A) is None
        assert old.get(HASH_A) == PAYLOAD

    def test_default_version_is_the_package_version(self, store):
        assert store.model_version == __version__


class TestCorruption:
    def _entry_path(self, store):
        store.put(HASH_A, PAYLOAD)
        return store.path_for(HASH_A)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[: len(raw) // 2],          # truncated write
        lambda raw: raw.replace("ASIC", "ASID"),   # bit flip in result
        lambda raw: "not json at all",             # total garbage
        lambda raw: "[]",                          # wrong shape
    ])
    def test_damaged_entry_is_quarantined_miss(self, store, damage):
        path = self._entry_path(store)
        path.write_text(damage(path.read_text()))
        assert store.get(HASH_A) is None
        stats = store.stats()
        assert stats.corrupt == 1
        assert stats.misses == 1
        # The bad file is gone, so a re-run re-executes and re-stores.
        assert not path.exists()
        store.put(HASH_A, PAYLOAD)
        assert store.get(HASH_A) == PAYLOAD

    def test_checksum_binds_result_to_hash(self, store):
        # An entry copied under a different hash is rejected: the
        # envelope names its own task hash.
        path = self._entry_path(store)
        other = store.path_for(HASH_B)
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_text(path.read_text())
        assert store.get(HASH_B) is None
        assert store.stats().corrupt == 1

    def test_wrong_embedded_version_is_rejected(self, store):
        path = self._entry_path(store)
        envelope = json.loads(path.read_text())
        envelope["model_version"] = "0.0.1"
        path.write_text(json.dumps(envelope))
        assert store.get(HASH_A) is None


class TestStats:
    def test_counters_track_every_operation(self, store):
        store.get(HASH_A)            # miss
        store.put(HASH_A, PAYLOAD)   # write
        store.get(HASH_A)            # hit
        store.get(HASH_A)            # hit
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes,
                stats.corrupt) == (2, 1, 1, 0)

    def test_stats_payload_is_json_ready(self, store):
        payload = store.stats_payload()
        assert sorted(payload) == ["corrupt", "hits", "misses", "writes"]
        json.dumps(payload)


class TestEphemeral:
    def test_ephemeral_store_creates_its_own_directory(self):
        store = ResultStore()
        assert store.is_ephemeral
        store.put(HASH_A, PAYLOAD)
        assert store.get(HASH_A) == PAYLOAD
        assert store.directory.is_dir()

    def test_flush_is_safe_before_and_after_writes(self, store):
        store.flush()
        store.put(HASH_A, PAYLOAD)
        store.flush()
