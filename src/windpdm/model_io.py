"""Model bundle persistence.

A bundle is one trained forest plus everything the monitoring agent needs to
apply it: feature names, class list, mined patterns, the horizon, and
provenance. On disk it is a length-prefixed, checksummed, versioned binary:

    magic "WPDM" | format version u32 LE | payload length u64 LE
    | payload (canonical JSON, UTF-8) | sha256(payload)

Identical bundles serialize to identical bytes, which is what makes seeded
training runs reproducible file-for-file. The payload keeps each tree's node
fields as JSON lists, ``null`` at an inner node's counts; they are the only
lists a tree is held in. Writing slices the forest's arrays tree by tree.
Reading builds each field for the whole forest with one ``fromiter`` over
the trees' lists, and building the forest checks it, so a payload that
passes its checksum but holds fields of the wrong kind or length, child
indexes outside their tree or a width its feature names do not match raises
``CorruptModel`` like a torn one. The forest is compiled for scoring on
first use (``ModelBundle.compiled``). ``dump_text`` renders a bundle as a
human-readable tree listing for inspection.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import is_not, itemgetter
from pathlib import Path

import numpy as np

from .durable import atomic_write
from .errors import CorruptModel, VersionMismatch
from .forest import LEAF, TREE_FIELDS, CompiledForests, DecisionTree, RandomForest, compile_forest
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

    @cached_property
    def compiled(self) -> CompiledForests:
        """The forest compiled for scoring, reading its own features, built
        at first use."""
        return compile_forest(self.forest)


def bundle_path(models_dir: Path, turbine_id: str, horizon_minutes: int) -> Path:
    """Where a bundle lives: ``<models_dir>/<turbine>/horizon_<m>.model``."""
    return Path(models_dir) / turbine_id / f"horizon_{horizon_minutes}.model"


def _tree_doc(t: DecisionTree) -> dict:
    """One tree's payload: each field as a list, null at an inner node's counts."""
    doc = {name: getattr(t, name).tolist() for name in TREE_FIELDS}
    for i in np.flatnonzero(t.feature != LEAF).tolist():
        doc["counts"][i] = None
    return doc


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
            "trees": [_tree_doc(t) for t in b.forest.trees],
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


def _forest_arrays(trees: list[dict], n_classes: int) -> tuple[np.ndarray, ...]:
    """The payload's trees as a forest's arrays (``TREE_FIELDS``, then each
    tree's node count), each field built with one ``fromiter`` over every
    tree's list. Raises ValueError or TypeError for fields that are no lists
    of numbers, a tree whose fields differ in length, counts that are not
    null exactly at the inner nodes, or leaves that do not each hold one
    count per class."""
    per_tree = [list(map(itemgetter(name), trees)) for name in TREE_FIELDS]  # per field, each tree's list
    if not {list}.issuperset(map(type, chain.from_iterable(per_tree))):
        raise ValueError("a tree field is no list")
    sizes = list(map(len, per_tree[0]))
    if any(list(map(len, lists)) != sizes for lists in per_tree[1:]):
        raise ValueError("a tree's fields differ in length")
    n = sum(sizes)
    feature, threshold, left, right = (np.fromiter(chain.from_iterable(lists), dtype, n)
                                       for lists, dtype in zip(per_tree, (np.intp, np.float64, np.intp, np.intp)))
    at_leaf = feature == LEAF
    node_counts = list(chain.from_iterable(per_tree[4]))
    # else a leaf could take counts written at an inner node
    if not np.array_equal(np.fromiter(map(is_not, node_counts, repeat(None)), bool, n), at_leaf):
        raise ValueError("counts are null at another node than an inner one, or not null at one")
    leaf_counts = list(filter(None, node_counts))  # in node order
    if len(leaf_counts) != np.count_nonzero(at_leaf) or not {n_classes}.issuperset(map(len, leaf_counts)):
        raise ValueError(f"the leaves do not each hold {n_classes} class counts")
    counts = np.zeros((n, n_classes), dtype=np.int64)
    counts[at_leaf] = np.fromiter(chain.from_iterable(leaf_counts), np.int64, len(leaf_counts) * n_classes).reshape(
        -1, n_classes)
    return feature, threshold, left, right, counts, np.array(sizes, dtype=np.intp)


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
        forest = RandomForest(
            *_forest_arrays(fdoc["trees"], len(fdoc["class_ids"])),
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
        bundle = ModelBundle(
            turbine_id=doc["turbine_id"],
            horizon_minutes=doc["horizon_minutes"],
            forest=forest,
            feature_names=doc["feature_names"],
            patterns=patterns,
            created_at=doc["created_at"],
            sha256=digest.hex(),
        )
        if not (type(forest.class_ids) is list and {int}.issuperset(map(type, forest.class_ids))
                and type(forest.n_features) is int and type(bundle.feature_names) is list
                and len(bundle.feature_names) == forest.n_features):
            raise ValueError("class_ids are no integers, or n_features does not count feature_names")
        return bundle
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
                lines.append(f"{pad}leaf counts={tree.counts[i].tolist()}")
            else:
                name = b.feature_names[tree.feature[i]]
                lines.append(f"{pad}if {name} <= {float(tree.threshold[i])!r}:")
                walk(tree.left[i], indent + 1)
                lines.append(f"{pad}else:")
                walk(tree.right[i], indent + 1)

        walk(0, 0)
    return "\n".join(lines) + "\n"
