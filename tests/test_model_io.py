import numpy as np
import pytest

from windpdm.errors import CorruptModel, VersionMismatch
from windpdm.forest import predict, train_forest
from windpdm.model_io import (
    FORMAT_VERSION,
    ModelBundle,
    dump_text,
    load_model,
    save_model,
    serialize_model,
)
from windpdm.patterns import StatusPattern


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
