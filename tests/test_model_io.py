import dataclasses
import hashlib
import json

import numpy as np
import pytest

from windpdm.agent import MonitoringAgent
from windpdm.broker import Broker
from windpdm.cli import main
from windpdm.errors import CorruptModel, MissingModel, VersionMismatch
from windpdm.forest import LEAF, predict, train_forest
from windpdm.manifest import Manifest
from windpdm.model_io import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    ModelBundle,
    bundle_path,
    deserialize_model,
    dump_text,
    load_model,
    save_model,
    serialize_model,
)
from windpdm.patterns import HORIZONS_MINUTES, StatusPattern


@pytest.fixture
def bundle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(120, 4))
    y = rng.integers(0, 3, size=120)
    forest = train_forest(X, y, [0, 1, 2], n_trees=6, max_depth=7, seed=12)
    return ModelBundle(
        turbine_id="T03",
        horizon_minutes=30,
        forest=forest,
        feature_names=["wind_speed", "rotor_rpm", "power_kw", "gen_temp"],
        patterns=[
            StatusPattern(1, frozenset({"GOverSpMax", "WLFRTActive"}), 0.12),
            StatusPattern(2, frozenset({"InvCH0Loss"}), 0.04),
        ],
        created_at=1420070400,
    )


class TestRoundTrip:
    def test_structural_equality(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded == bundle

    def test_loaded_bundle_keeps_its_payload_sha256(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        save_model(bundle, path)
        assert bundle.sha256 is None
        assert load_model(path).sha256 == path.read_bytes()[-32:].hex()

    def test_identical_predictions_on_random_inputs(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        save_model(bundle, path)
        loaded = load_model(path)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=4).tolist()
            assert predict(loaded.forest, x) == predict(bundle.forest, x)

    def test_save_is_deterministic(self, bundle, tmp_path):
        a = tmp_path / "a.model"
        b = tmp_path / "b.model"
        save_model(bundle, a)
        save_model(bundle, b)
        assert a.read_bytes() == b.read_bytes()


class TestCorruption:
    def test_truncated_file(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        save_model(bundle, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_truncated_below_header(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"WP")
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_flipped_payload_byte(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        save_model(bundle, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_bumped_version(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        save_model(bundle, path)
        blob = bytearray(path.read_bytes())
        blob[4] = FORMAT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_bad_magic(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        save_model(bundle, path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize("payload", [b"{}", b"[]", b"5", b'{"forest": {"trees": 5}}'])
    def test_checksummed_payload_that_is_no_bundle(self, payload):
        blob = _HEADER.pack(MAGIC, FORMAT_VERSION, len(payload)) + payload + hashlib.sha256(payload).digest()
        with pytest.raises(CorruptModel, match="no model bundle"):
            deserialize_model(blob, source="m.model")


class TestDump:
    def test_text_dump_mentions_everything(self, bundle):
        text = dump_text(bundle)
        assert "turbine T03" in text
        assert "t+30 min" in text
        assert "GOverSpMax" in text
        assert "wind_speed" in text
        assert text.count("tree ") == bundle.forest.n_trees

    def test_serialize_matches_file(self, bundle, tmp_path):
        path = tmp_path / "m.model"
        save_model(bundle, path)
        assert path.read_bytes() == serialize_model(bundle)


def _rechecksummed(bundle, mutate) -> bytes:
    """``bundle``'s bytes with ``mutate(doc)`` applied to its payload, which
    keeps a valid checksum: only the payload check can refuse it."""
    doc = json.loads(serialize_model(bundle)[_HEADER.size:-32])
    mutate(doc)
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return _HEADER.pack(MAGIC, FORMAT_VERSION, len(payload)) + payload + hashlib.sha256(payload).digest()


def _first_leaf(tree):
    return tree["feature"].index(LEAF)


def _set(field, index, value):
    def mutate(doc):
        tree = doc["forest"]["trees"][0]
        tree[field][index if index is not None else _first_leaf(tree)] = value
    return mutate


CORRUPT_TREES = {
    "non-numeric feature": lambda doc: doc["forest"]["trees"].__setitem__(0, {
        "feature": ["abc", -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
        "right": [2, -1, -1], "counts": [None, [1, 0, 0], [0, 1, 0]]}),
    "non-numeric threshold": _set("threshold", 0, "high"),
    "child past its tree": _set("left", 0, 10_000),
    "child before its node": _set("right", 0, 0),
    "leaf child outside its tree": _set("left", None, -5),
    "feature past the width": _set("feature", 0, 4),
    "leaf without counts": _set("counts", None, None),
    "leaf counts of another width": _set("counts", None, [1, 2]),
    "fields of different lengths": lambda doc: doc["forest"]["trees"][1]["threshold"].pop(),
    "field that is no list": lambda doc: doc["forest"]["trees"][0].__setitem__("left", "abc"),
    "width that does not count the names": lambda doc: doc["feature_names"].pop(),
}


class TestCheckedTrees:
    @pytest.mark.parametrize("case", sorted(CORRUPT_TREES))
    def test_checksummed_tree_that_scoring_cannot_walk_is_corrupt(self, bundle, case):
        blob = _rechecksummed(bundle, CORRUPT_TREES[case])
        with pytest.raises(CorruptModel, match="no model bundle"):
            deserialize_model(blob, source="m.model")

    def test_untouched_payload_loads_with_its_forest_compiled(self, bundle):
        loaded = deserialize_model(_rechecksummed(bundle, lambda doc: None))
        assert loaded == bundle
        x = [0.3, -1.2, 0.8, 0.1]
        assert predict(loaded.forest, x) == predict(bundle.forest, x)
        assert loaded.compiled.roots.size == bundle.forest.n_trees

    def test_agent_start_reports_a_corrupt_tree_as_a_gap(self, bundle, tmp_path):
        manifest = Manifest(parameters=bundle.feature_names, alarms=["GOverSpMax"], turbines=["T03"])
        models = tmp_path / "models"
        for h in HORIZONS_MINUTES:
            path = bundle_path(models, "T03", h)
            path.parent.mkdir(parents=True, exist_ok=True)
            save_model(dataclasses.replace(bundle, horizon_minutes=h), path)
        bundle_path(models, "T03", 30).write_bytes(
            _rechecksummed(bundle, CORRUPT_TREES["non-numeric feature"]))
        with pytest.raises(MissingModel, match="horizon_30.model: payload is no model bundle"):
            MonitoringAgent.start(models, Broker(tmp_path / "broker"), ["T03"], tmp_path / "sink", manifest)

    def test_evaluate_reports_a_corrupt_tree_as_a_data_error(self, bundle, tmp_path, capsys):
        model = tmp_path / "m.model"
        model.write_bytes(_rechecksummed(bundle, CORRUPT_TREES["child past its tree"]))
        assert main(["evaluate", "--model", str(model), "--dump"]) == 2
        assert "error: data:" in capsys.readouterr().err
