"""The model arena: one flattened, memory-mappable copy of a model's weights.

A published agent reasoner carries its weights in two ``.npz`` archives
(``structural.npz`` and ``agent.npz``).  ``np.load`` on an ``.npz`` always
*decompresses into fresh private memory*, so a pool of N worker processes
restoring the same version holds N copies of the embedding/fusion/LSTM
matrices.  The arena fixes that:

* :func:`write_arena` concatenates every weight matrix into **one plain
  ``arena.npy``** (a single contiguous float64 vector) next to the save,
  plus an offset manifest — tensor name -> ``(offset, shape)`` in elements —
  written to a sidecar ``arena.json`` and embedded into the registry's
  ``version.json`` at publish time;
* :func:`open_arena` maps the arena with ``np.load(..., mmap_mode="r")`` and
  returns read-only views into the mapping, one per tensor, **without
  copying a byte** — the OS page cache holds the only physical copy, shared
  by every process that maps the file;
* :func:`load_arena_reasoner` rebuilds a full serving
  :class:`~repro.serve.reasoner.Reasoner` around those views
  (``load_state_dict(..., copy=False)``), which is how the process execution
  backend (:mod:`repro.serve.procpool`) attaches workers to a version.

Arena views are read-only by construction: a worker that accidentally tried
to train in place would fault instead of silently diverging from its
siblings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import (
    AGENT_FILE,
    STRUCTURAL_FILE,
    read_checkpoint_manifest,
    restore_pipeline,
)
from repro.utils.rng import SeedLike

PathLike = Union[str, Path]

ARENA_FILE = "arena.npy"
ARENA_MANIFEST_FILE = "arena.json"
ARENA_FORMAT_VERSION = 1
ARENA_DTYPE = "float64"

# The registry's per-version manifest (repro.serve.registry.VERSION_FILE;
# the literal is repeated here because the registry imports this module).
_VERSION_FILE = "version.json"

# Keys of structural.npz, prefixed into the arena namespace.
_STRUCTURAL_KEYS = ("entity_embeddings", "relation_embeddings")

__all__ = [
    "ARENA_FILE",
    "ARENA_MANIFEST_FILE",
    "arena_manifest",
    "load_arena_reasoner",
    "open_arena",
    "write_arena",
]


def write_arena(save_dir: PathLike) -> Optional[dict]:
    """Flatten ``save_dir``'s weight archives into ``arena.npy`` + manifest.

    Returns the manifest dict, or ``None`` when the save has no ``.npz``
    weight archives to flatten (embedding/rule reasoners persist via pickle
    and keep loading per process — only the agent family gets the
    shared-memory treatment).
    """
    save_dir = Path(save_dir)
    structural_path = save_dir / STRUCTURAL_FILE
    agent_path = save_dir / AGENT_FILE
    if not structural_path.exists() or not agent_path.exists():
        return None

    tensors: Dict[str, dict] = {}
    chunks = []
    offset = 0

    def append(name: str, array: np.ndarray) -> None:
        nonlocal offset
        flat = np.ascontiguousarray(array, dtype=np.float64).reshape(-1)
        tensors[name] = {"offset": offset, "shape": list(np.shape(array))}
        chunks.append(flat)
        offset += flat.size

    with np.load(structural_path) as archive:
        for key in _STRUCTURAL_KEYS:
            append(f"structural.{key}", archive[key])
    with np.load(agent_path) as archive:
        for key in archive.files:
            append(f"agent.{key}", archive[key])

    arena = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
    np.save(save_dir / ARENA_FILE, arena)
    manifest = {
        "format_version": ARENA_FORMAT_VERSION,
        "file": ARENA_FILE,
        "dtype": ARENA_DTYPE,
        "total_elements": int(offset),
        "tensors": tensors,
    }
    (save_dir / ARENA_MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    return manifest


def arena_manifest(save_dir: PathLike) -> Optional[dict]:
    """The arena manifest of ``save_dir``, or ``None`` when it has no arena.

    Registry versions carry the manifest inside ``version.json`` (written at
    publish time); the sidecar ``arena.json`` covers plain checkpoint
    directories and spill saves that never went through the registry.
    """
    save_dir = Path(save_dir)
    version_path = save_dir / _VERSION_FILE
    if version_path.exists():
        payload = json.loads(version_path.read_text(encoding="utf-8"))
        manifest = payload.get("arena")
        if manifest is not None:
            return manifest
    sidecar = save_dir / ARENA_MANIFEST_FILE
    if sidecar.exists():
        return json.loads(sidecar.read_text(encoding="utf-8"))
    return None


def open_arena(
    save_dir: PathLike, manifest: Optional[dict] = None
) -> Dict[str, np.ndarray]:
    """Memory-map ``save_dir``'s arena and return zero-copy views per tensor.

    Every returned array is a read-only view into one shared ``np.memmap``;
    nothing is loaded eagerly — pages fault in on first access and live in
    the OS page cache, shared across every process mapping the same file.
    """
    save_dir = Path(save_dir)
    if manifest is None:
        manifest = arena_manifest(save_dir)
    if manifest is None:
        raise FileNotFoundError(f"{save_dir} has no model arena")
    version = manifest.get("format_version")
    if version != ARENA_FORMAT_VERSION:
        raise ValueError(f"unsupported arena format version {version!r}")
    if manifest.get("dtype") != ARENA_DTYPE:
        raise ValueError(f"unsupported arena dtype {manifest.get('dtype')!r}")
    arena = np.load(save_dir / manifest.get("file", ARENA_FILE), mmap_mode="r")
    total = int(manifest["total_elements"])
    if arena.shape != (total,):
        raise ValueError(
            f"arena shape {arena.shape} does not match manifest total {total}"
        )
    views: Dict[str, np.ndarray] = {}
    for name, spec in manifest["tensors"].items():
        start = int(spec["offset"])
        shape = tuple(int(dim) for dim in spec["shape"])
        size = int(np.prod(shape)) if shape else 1
        if start < 0 or start + size > total:
            raise ValueError(f"arena tensor {name!r} overruns the arena file")
        views[name] = arena[start : start + size].reshape(shape)
    return views


def _split_views(
    views: Dict[str, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    try:
        entity = views["structural.entity_embeddings"]
        relation = views["structural.relation_embeddings"]
    except KeyError as error:
        raise ValueError(f"arena is missing structural tensor {error}") from None
    agent_state = {
        name[len("agent.") :]: view
        for name, view in views.items()
        if name.startswith("agent.")
    }
    return entity, relation, agent_state


def load_arena_reasoner(save_dir: PathLike, rng: SeedLike = None):
    """Restore an agent reasoner whose weights are views into the arena.

    The graph, action spaces, and engine scaffolding are rebuilt per process
    (they are deterministic functions of the saved config), but every weight
    matrix — structural embeddings, fusion, LSTM, policy — stays a read-only
    view into the single memory-mapped arena: no per-worker weight copy.
    """
    from repro.serve.reasoner import Reasoner, _read_manifest, _restore_specialisations

    save_dir = Path(save_dir)
    manifest = _read_manifest(save_dir)
    if manifest.get("reasoner_type") != "agent":
        raise ValueError(
            f"{save_dir} holds a {manifest.get('reasoner_type')!r} reasoner; "
            "only the agent family supports arena attachment"
        )
    entity, relation, agent_state = _split_views(open_arena(save_dir))
    pipeline = restore_pipeline(
        read_checkpoint_manifest(save_dir),
        entity,
        relation,
        agent_state,
        rng=rng,
        copy=False,
    )
    _restore_specialisations(pipeline, manifest)
    return Reasoner.from_pipeline(
        pipeline,
        name=manifest.get("name", "MMKGR"),
        beam_width=manifest.get("beam_width"),
    )


def load_serving_reasoner(save_dir: PathLike, rng: SeedLike = None):
    """``(reasoner, arena_attached)`` — arena-backed when possible.

    Worker processes call this: an agent save with an arena attaches
    zero-copy; anything else (embedding/rule reasoners, pre-arena saves)
    falls back to the ordinary loader, which copies — correct, just not
    shared.
    """
    from repro.serve.reasoner import load_reasoner

    save_dir = Path(save_dir)
    if arena_manifest(save_dir) is not None:
        try:
            return load_arena_reasoner(save_dir, rng=rng), True
        except ValueError:
            # A foreign or stale manifest (e.g. a hand-edited version.json)
            # must degrade to the copying loader, not kill the worker.
            pass
    return load_reasoner(save_dir, rng=rng), False
