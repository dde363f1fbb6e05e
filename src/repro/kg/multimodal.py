"""Multi-modal knowledge graph: a structural graph plus per-entity modalities.

Definition 1 of the paper: a multi-modal knowledge graph extends a knowledge
graph by attaching multi-modal auxiliary data (texts and images) to every
entity.  In this reproduction the auxiliary data are feature vectors — the
image vector that a VGG-style encoder would produce and the text vector that
word2vec-style descriptions would produce — generated by the encoders in
``repro.features``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.kg.graph import KnowledgeGraph

MODAL_META_FILE = "modal_meta.json"
MODAL_FORMAT_VERSION = 1

_IMAGE_FILE = "image_features.npy"
_TEXT_FILE = "text_features.npy"
_COVERAGE_FILE = "modal_coverage.npy"


@dataclass
class EntityModalities:
    """Multi-modal auxiliary data attached to a single entity."""

    image: np.ndarray
    text: np.ndarray
    description: str = ""
    num_images: int = 1

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image, dtype=np.float64)
        self.text = np.asarray(self.text, dtype=np.float64)
        if self.image.ndim != 1:
            raise ValueError(f"image feature must be 1-D, got shape {self.image.shape}")
        if self.text.ndim != 1:
            raise ValueError(f"text feature must be 1-D, got shape {self.text.shape}")
        if self.num_images < 0:
            raise ValueError("num_images must be non-negative")


class MultiModalKnowledgeGraph:
    """A structural :class:`KnowledgeGraph` with per-entity modality features.

    Two storage modes share one interface:

    * **dict-backed** (the default): modalities are attached one entity at a
      time via :meth:`attach_modalities` — convenient while *building* a
      dataset, costly at scale (one Python object and two small arrays per
      entity).
    * **matrix-backed** (:meth:`from_matrices`): features live in two
      ``(num_entities, dim)`` matrices, optionally ``np.memmap``/mmap-loaded
      so a million-entity feature store stays on disk until touched.  The
      matrices are the canonical storage; :meth:`image_matrix` and
      :meth:`text_matrix` return them without copying, and per-entity lookups
      are row views.  Matrix-backed graphs are read-only.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        image_dim: int,
        text_dim: int,
        name: str = "mkg",
    ):
        if image_dim <= 0 or text_dim <= 0:
            raise ValueError("modality dimensions must be positive")
        self.graph = graph
        self.image_dim = image_dim
        self.text_dim = text_dim
        self.name = name
        self._modalities: Dict[int, EntityModalities] = {}
        # Matrix-backed storage; None in dict-backed mode.
        self._image_backing: Optional[np.ndarray] = None
        self._text_backing: Optional[np.ndarray] = None
        # Bool mask of entities with real (non-filler) modalities; None means
        # full coverage in matrix mode.
        self._coverage_mask: Optional[np.ndarray] = None

    @property
    def matrix_backed(self) -> bool:
        return self._image_backing is not None

    @classmethod
    def from_matrices(
        cls,
        graph: KnowledgeGraph,
        image_matrix: np.ndarray,
        text_matrix: np.ndarray,
        coverage_mask: Optional[np.ndarray] = None,
        name: str = "mkg",
    ) -> "MultiModalKnowledgeGraph":
        """Wrap pre-built (possibly memory-mapped) feature matrices.

        ``image_matrix``/``text_matrix`` must be ``(num_entities, dim)`` and
        are stored as-is — pass ``np.load(..., mmap_mode="r")`` arrays or
        stride-0 broadcast views to keep resident memory flat.
        ``coverage_mask`` marks which rows carry real features (uncovered rows
        are fillers, conventionally zero); omit it for full coverage.
        """
        for label, matrix in (("image", image_matrix), ("text", text_matrix)):
            if matrix.ndim != 2:
                raise ValueError(f"{label} matrix must be 2-D, got shape {matrix.shape}")
            if matrix.shape[0] != graph.num_entities:
                raise ValueError(
                    f"{label} matrix has {matrix.shape[0]} rows for "
                    f"{graph.num_entities} entities"
                )
        mkg = cls(
            graph,
            image_dim=int(image_matrix.shape[1]),
            text_dim=int(text_matrix.shape[1]),
            name=name,
        )
        mkg._image_backing = image_matrix
        mkg._text_backing = text_matrix
        if coverage_mask is not None:
            coverage_mask = np.asarray(coverage_mask)
            if coverage_mask.shape != (graph.num_entities,):
                raise ValueError(
                    f"coverage mask shape {coverage_mask.shape} does not match "
                    f"{graph.num_entities} entities"
                )
            mkg._coverage_mask = coverage_mask.astype(bool, copy=False)
        return mkg

    # ----------------------------------------------------------------- sizes
    @property
    def num_entities(self) -> int:
        return self.graph.num_entities

    @property
    def num_relations(self) -> int:
        return self.graph.num_relations

    @property
    def num_triples(self) -> int:
        return self.graph.num_triples

    # ------------------------------------------------------------ modalities
    def attach_modalities(self, entity_id: int, modalities: EntityModalities) -> None:
        if self.matrix_backed:
            raise TypeError(
                "matrix-backed multimodal graphs are read-only; "
                "build features into the matrices instead"
            )
        if not 0 <= entity_id < self.num_entities:
            raise IndexError(f"entity id {entity_id} out of range")
        if modalities.image.shape[0] != self.image_dim:
            raise ValueError(
                f"image feature has dim {modalities.image.shape[0]}, expected {self.image_dim}"
            )
        if modalities.text.shape[0] != self.text_dim:
            raise ValueError(
                f"text feature has dim {modalities.text.shape[0]}, expected {self.text_dim}"
            )
        self._modalities[entity_id] = modalities

    def modalities(self, entity_id: int) -> EntityModalities:
        if self.matrix_backed:
            if not self.has_modalities(entity_id):
                raise KeyError(f"entity {entity_id} has no attached modalities")
            return EntityModalities(
                image=self._image_backing[entity_id],
                text=self._text_backing[entity_id],
            )
        try:
            return self._modalities[entity_id]
        except KeyError:
            raise KeyError(f"entity {entity_id} has no attached modalities") from None

    def has_modalities(self, entity_id: int) -> bool:
        if self.matrix_backed:
            if not 0 <= entity_id < self.num_entities:
                return False
            if self._coverage_mask is None:
                return True
            return bool(self._coverage_mask[entity_id])
        return entity_id in self._modalities

    def image_feature(self, entity_id: int) -> np.ndarray:
        if self.matrix_backed:
            return np.asarray(self._image_backing[entity_id])
        return self.modalities(entity_id).image

    def text_feature(self, entity_id: int) -> np.ndarray:
        if self.matrix_backed:
            return np.asarray(self._text_backing[entity_id])
        return self.modalities(entity_id).text

    def coverage(self) -> float:
        """Fraction of entities with attached modalities (1.0 for complete MKGs)."""
        if self.num_entities == 0:
            return 0.0
        if self.matrix_backed:
            if self._coverage_mask is None:
                return 1.0
            return float(self._coverage_mask.sum()) / self.num_entities
        return len(self._modalities) / self.num_entities

    def image_matrix(self) -> np.ndarray:
        """The ``(num_entities, image_dim)`` image-feature matrix.

        Matrix-backed graphs return the backing array itself (zero copy —
        possibly a read-only memmap).  Dict-backed graphs stack attached
        features, leaving a zero row for entities with no attached modality;
        this mirrors how MKG datasets treat entities with no crawled images.
        """
        if self.matrix_backed:
            return self._image_backing
        matrix = np.zeros((self.num_entities, self.image_dim))
        for entity_id, modality in self._modalities.items():
            matrix[entity_id] = modality.image
        return matrix

    def text_matrix(self) -> np.ndarray:
        """The ``(num_entities, text_dim)`` text-feature matrix (see :meth:`image_matrix`)."""
        if self.matrix_backed:
            return self._text_backing
        matrix = np.zeros((self.num_entities, self.text_dim))
        for entity_id, modality in self._modalities.items():
            matrix[entity_id] = modality.text
        return matrix

    # ------------------------------------------------------------ persistence
    def save_modalities(self, directory: Union[str, Path]) -> Path:
        """Persist feature matrices as ``.npy`` files next to the graph.

        Works for both storage modes (dict-backed graphs are stacked first);
        float32 on disk.  Reload with :meth:`load_modalities`, which maps the
        matrices read-only instead of reading them into memory.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        image = np.asarray(self.image_matrix(), dtype=np.float32)
        text = np.asarray(self.text_matrix(), dtype=np.float32)
        np.save(directory / _IMAGE_FILE, image)
        np.save(directory / _TEXT_FILE, text)
        meta = {
            "format_version": MODAL_FORMAT_VERSION,
            "name": self.name,
            "num_entities": self.num_entities,
            "image_dim": self.image_dim,
            "text_dim": self.text_dim,
            "has_coverage_mask": False,
        }
        if self.matrix_backed:
            mask = self._coverage_mask
        else:
            mask = np.zeros(self.num_entities, dtype=bool)
            mask[list(self._modalities)] = True
        if mask is not None and not mask.all():
            np.save(directory / _COVERAGE_FILE, mask)
            meta["has_coverage_mask"] = True
        (directory / MODAL_META_FILE).write_text(
            json.dumps(meta, indent=2), encoding="utf-8"
        )
        return directory

    @classmethod
    def load_modalities(
        cls,
        directory: Union[str, Path],
        graph: KnowledgeGraph,
        mmap: bool = True,
    ) -> "MultiModalKnowledgeGraph":
        """Open saved feature matrices as a matrix-backed multimodal graph."""
        directory = Path(directory)
        meta_path = directory / MODAL_META_FILE
        if not meta_path.exists():
            raise FileNotFoundError(
                f"{meta_path} does not exist; not a saved modality directory"
            )
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        version = meta.get("format_version")
        if version != MODAL_FORMAT_VERSION:
            raise ValueError(f"unsupported modality format version {version!r}")
        mmap_mode = "r" if mmap else None
        image = np.load(directory / _IMAGE_FILE, mmap_mode=mmap_mode)
        text = np.load(directory / _TEXT_FILE, mmap_mode=mmap_mode)
        mask = None
        if meta.get("has_coverage_mask"):
            mask = np.load(directory / _COVERAGE_FILE, mmap_mode=mmap_mode)
        return cls.from_matrices(
            graph,
            image_matrix=image,
            text_matrix=text,
            coverage_mask=mask,
            name=meta.get("name", "mkg"),
        )

    # ------------------------------------------------------------- passthrough
    def outgoing_edges(self, entity_id: int):
        return self.graph.outgoing_edges(entity_id)

    def adjacency_arrays(self):
        return self.graph.adjacency_arrays()

    def neighbors(self, entity_id: int):
        return self.graph.neighbors(entity_id)

    def contains(self, head: int, relation: int, tail: int) -> bool:
        return self.graph.contains(head, relation, tail)

    def statistics(self) -> Dict[str, float]:
        """Summary statistics in the layout of the paper's Table II."""
        return {
            "entities": self.num_entities,
            "relations": self.graph.num_relations,
            "triples": self.num_triples,
            "modal_coverage": self.coverage(),
            "image_dim": self.image_dim,
            "text_dim": self.text_dim,
        }
