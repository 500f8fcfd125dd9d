"""Model bundle persistence.

A bundle is one trained forest plus everything the monitoring agent needs to
apply it: feature names, class list, mined patterns, the horizon, and
provenance. On disk it is a length-prefixed, checksummed, versioned binary:

    magic "WPDM" | format version u32 LE | payload length u64 LE
    | payload (canonical JSON, UTF-8) | sha256(payload)

Identical bundles serialize to identical bytes, which is what makes seeded
training runs reproducible file-for-file. ``dump_text`` renders a bundle as
a human-readable tree listing for inspection.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .durable import atomic_write
from .errors import CorruptModel, VersionMismatch
from .forest import LEAF, DecisionTree, RandomForest
from .patterns import StatusPattern
from .timeutil import format_rfc3339

MAGIC = b"WPDM"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")


@dataclass
class ModelBundle:
    turbine_id: str
    horizon_minutes: int
    forest: RandomForest
    feature_names: list[str]
    patterns: list[StatusPattern]
    created_at: int  # epoch seconds, supplied by the training plan
    # hex sha256 of the payload it was read from (the file's trailing
    # checksum); None for a bundle built in memory
    sha256: str | None = field(default=None, compare=False)


def bundle_path(models_dir: Path, turbine_id: str, horizon_minutes: int) -> Path:
    """Where a bundle lives: ``<models_dir>/<turbine>/horizon_<m>.model``."""
    return Path(models_dir) / turbine_id / f"horizon_{horizon_minutes}.model"


def _bundle_payload(b: ModelBundle) -> bytes:
    doc = {
        "turbine_id": b.turbine_id,
        "horizon_minutes": b.horizon_minutes,
        "created_at": b.created_at,
        "feature_names": b.feature_names,
        "patterns": [
            {"pattern_id": p.pattern_id, "alarms": sorted(p.alarm_set), "support": p.support}
            for p in b.patterns
        ],
        "forest": {
            "n_trees": b.forest.n_trees,
            "max_depth": b.forest.max_depth,
            "features_per_split": b.forest.features_per_split,
            "class_ids": b.forest.class_ids,
            "seed": b.forest.seed,
            "bootstrap": b.forest.bootstrap,
            "n_features": b.forest.n_features,
            "trees": [
                {
                    "feature": t.feature,
                    "threshold": t.threshold,
                    "left": t.left,
                    "right": t.right,
                    "counts": t.counts,
                }
                for t in b.forest.trees
            ],
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def serialize_model(b: ModelBundle) -> bytes:
    payload = _bundle_payload(b)
    return _HEADER.pack(MAGIC, FORMAT_VERSION, len(payload)) + payload + hashlib.sha256(payload).digest()


def save_model(b: ModelBundle, path: Path) -> None:
    atomic_write(path, serialize_model(b))


def load_model(path: Path) -> ModelBundle:
    blob = Path(path).read_bytes()
    return deserialize_model(blob, source=str(path))


def deserialize_model(blob: bytes, source: str = "<bytes>") -> ModelBundle:
    if len(blob) < _HEADER.size:
        raise CorruptModel(f"{source}: shorter than the header")
    magic, version, payload_len = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptModel(f"{source}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{source}: format version {version}, expected {FORMAT_VERSION}")
    expected_len = _HEADER.size + payload_len + 32
    if len(blob) != expected_len:
        raise CorruptModel(f"{source}: expected {expected_len} bytes, found {len(blob)}")
    payload = blob[_HEADER.size:_HEADER.size + payload_len]
    digest = blob[_HEADER.size + payload_len:]
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptModel(f"{source}: checksum mismatch")
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptModel(f"{source}: undecodable payload: {exc}") from None
    try:  # a payload that passes the checksum but holds no bundle object
        fdoc = doc["forest"]
        trees = [
            DecisionTree(
                feature=t["feature"],
                threshold=t["threshold"],
                left=t["left"],
                right=t["right"],
                counts=t["counts"],
            )
            for t in fdoc["trees"]
        ]
        forest = RandomForest(
            trees=trees,
            n_trees=fdoc["n_trees"],
            max_depth=fdoc["max_depth"],
            features_per_split=fdoc["features_per_split"],
            class_ids=fdoc["class_ids"],
            seed=fdoc["seed"],
            bootstrap=fdoc["bootstrap"],
            n_features=fdoc["n_features"],
        )
        patterns = [
            StatusPattern(p["pattern_id"], frozenset(p["alarms"]), p["support"])
            for p in doc["patterns"]
        ]
        return ModelBundle(
            turbine_id=doc["turbine_id"],
            horizon_minutes=doc["horizon_minutes"],
            forest=forest,
            feature_names=doc["feature_names"],
            patterns=patterns,
            created_at=doc["created_at"],
            sha256=digest.hex(),
        )
    except (KeyError, TypeError) as exc:
        raise CorruptModel(f"{source}: payload is no model bundle: {exc!r}") from None


def dump_text(b: ModelBundle) -> str:
    """Readable dump: metadata, classes, and every tree's structure."""
    lines = [
        f"model bundle: turbine {b.turbine_id}, horizon t+{b.horizon_minutes} min",
        f"  created_at: {format_rfc3339(b.created_at)}",
        f"  format version: {FORMAT_VERSION}",
        f"  features ({len(b.feature_names)}): {', '.join(b.feature_names)}",
        f"  classes: {b.forest.class_ids}",
        "  patterns:",
    ]
    for p in b.patterns:
        lines.append(f"    {p.describe()}")
    lines.append(
        f"  forest: {b.forest.n_trees} trees, max_depth {b.forest.max_depth}, "
        f"features_per_split {b.forest.features_per_split}, seed {b.forest.seed}, "
        f"bootstrap {b.forest.bootstrap}"
    )
    for ti, tree in enumerate(b.forest.trees):
        lines.append(f"  tree {ti} ({len(tree.feature)} nodes, depth {tree.depth()}):")

        def walk(i: int, indent: int):
            pad = "    " + "  " * indent
            if tree.feature[i] == LEAF:
                lines.append(f"{pad}leaf counts={tree.counts[i]}")
            else:
                name = b.feature_names[tree.feature[i]]
                lines.append(f"{pad}if {name} <= {tree.threshold[i]!r}:")
                walk(tree.left[i], indent + 1)
                lines.append(f"{pad}else:")
                walk(tree.right[i], indent + 1)

        walk(0, 0)
    return "\n".join(lines) + "\n"
