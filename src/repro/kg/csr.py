"""Compact CSR adjacency backend for million-entity knowledge graphs.

The dict-of-lists :class:`~repro.kg.graph.KnowledgeGraph` is ideal for
incremental construction but holds every edge as a Python tuple inside a
per-entity list — hundreds of bytes per edge, all resident.  This module
provides :class:`CSRKnowledgeGraph`, a read-only backend exposing the same
read interface from three flat arrays:

* ``indptr`` — ``int64 (num_entities + 1,)`` row offsets;
* ``adj_tails`` — ``int32 (num_edges,)`` neighbour entity ids;
* ``adj_relations`` — ``int32 (num_edges,)`` relation ids, row-aligned with
  ``adj_tails``.

Rows cover the *full* action space (forward plus inverse edges, exactly the
set the dict backend keeps in ``_outgoing``) and are sorted by
``(relation, tail)``, which makes ``contains`` and ``tails_for`` two binary
searches instead of set lookups.  :meth:`CSRKnowledgeGraph.save` persists the
arrays as plain ``.npy`` files next to the dataset and
:meth:`CSRKnowledgeGraph.load` maps them back with ``np.load(...,
mmap_mode="r")`` — the same zero-copy convention as the serving weight arena
(:mod:`repro.serve.arena`): pages fault in on first touch and live in the OS
page cache, shared across every process mapping the same files.

Beam search reads the arrays directly through :meth:`CSRKnowledgeGraph.
adjacency_arrays` (see :meth:`repro.rl.environment.MKGEnvironment.
action_block`), so no row is ever turned into Python objects on the serving
path; ``outgoing_edges(entity)`` builds its ``(relation, tail)`` list from
the row slice on each call.  :meth:`CSRKnowledgeGraph.load` checks the
arrays it maps, since that read path indexes them without bounds checks.

>>> from repro.kg.graph import KnowledgeGraph
>>> dict_graph = KnowledgeGraph()
>>> _ = dict_graph.add_triple_by_name("alice", "knows", "bob")
>>> _ = dict_graph.add_triple_by_name("bob", "knows", "carol")
>>> csr = CSRKnowledgeGraph.from_graph(dict_graph)
>>> csr.num_entities == dict_graph.num_entities
True
>>> csr.neighbors(0) == dict_graph.neighbors(0)
True
>>> sorted(csr.outgoing_edges(1)) == sorted(dict_graph.outgoing_edges(1))
True
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kg.graph import (
    NO_OP_RELATION,
    Triple,
    enumerate_paths,
    inverse_relation_name,
)
from repro.kg.vocab import RangeVocabulary, Vocabulary

PathLike = Union[str, Path]

CSR_META_FILE = "csr_meta.json"
CSR_FORMAT_VERSION = 1

_INDPTR_FILE = "indptr.npy"
_TAILS_FILE = "adj_tails.npy"
_RELATIONS_FILE = "adj_relations.npy"
_TRIPLES_FILE = "triples.npy"
_ENTITIES_FILE = "entities.json"

__all__ = ["CSRKnowledgeGraph", "load_csr_graph"]


def _pack(heads: np.ndarray, rels: np.ndarray, tails: np.ndarray,
          num_entities: int, num_relations: int) -> np.ndarray:
    """Bijective int64 key for (h, r, t), monotone in lexicographic order."""
    if num_entities * num_relations * num_entities >= 2 ** 63:
        raise ValueError("graph too large for int64 edge keys")
    return (
        heads.astype(np.int64) * num_relations + rels.astype(np.int64)
    ) * num_entities + tails.astype(np.int64)


def _unpack(keys: np.ndarray, num_entities: int, num_relations: int):
    tails = keys % num_entities
    rest = keys // num_entities
    rels = rest % num_relations
    heads = rest // num_relations
    return heads, rels, tails


class CSRKnowledgeGraph:
    """Read-only knowledge graph over int32 CSR arrays.

    Duck-type compatible with the read interface of
    :class:`~repro.kg.graph.KnowledgeGraph`: everything the RL environment,
    the beam-search engine and the evaluators touch (``adjacency_arrays``,
    ``outgoing_edges``, ``neighbors``, ``degree``, ``contains``,
    ``tails_for``, vocabularies, sizes) behaves identically.  Mutation
    methods are deliberately absent — build through the dict backend or the
    synthetic generator, then convert.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        adj_tails: np.ndarray,
        adj_relations: np.ndarray,
        forward_triples: np.ndarray,
        entity_vocab,
        relation_vocab,
        add_inverse: bool = True,
        add_no_op: bool = True,
    ):
        self._indptr = indptr
        self._adj_tails = adj_tails
        self._adj_relations = adj_relations
        self._forward = forward_triples
        self.entities = entity_vocab
        self.relations = relation_vocab
        self.add_inverse = add_inverse
        self.add_no_op = add_no_op
        if len(indptr) != len(entity_vocab) + 1:
            raise ValueError(
                f"indptr length {len(indptr)} does not match "
                f"{len(entity_vocab)} entities"
            )
        if len(adj_tails) != len(adj_relations):
            raise ValueError("adj_tails and adj_relations must be row-aligned")
        # Plain ndarray views: indexing a np.memmap pays for its subclass hooks.
        self._adjacency = tuple(
            np.asarray(array) for array in (indptr, adj_relations, adj_tails)
        )
        self._inverse_ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------ construction
    @classmethod
    def from_triple_arrays(
        cls,
        heads: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
        entity_vocab,
        relation_vocab,
        add_inverse: bool = True,
        add_no_op: bool = True,
        inverse_ids: Optional[np.ndarray] = None,
    ) -> "CSRKnowledgeGraph":
        """Build from parallel forward-triple id arrays.

        Duplicates are dropped and forward triples end up sorted by
        ``(head, relation, tail)``.  When ``add_inverse`` is set, every
        forward edge contributes the inverse copy ``(t, inv(r), h)`` to the
        adjacency (``inverse_ids`` maps relation id -> inverse relation id;
        derived from the vocabulary names when omitted).
        """
        num_entities = len(entity_vocab)
        num_relations = len(relation_vocab)
        heads = np.asarray(heads, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        tails = np.asarray(tails, dtype=np.int64).reshape(-1)
        if not (len(heads) == len(relations) == len(tails)):
            raise ValueError("head/relation/tail arrays must be the same length")
        for name, array, bound in (
            ("head", heads, num_entities),
            ("relation", relations, num_relations),
            ("tail", tails, num_entities),
        ):
            if len(array) and (array.min() < 0 or array.max() >= bound):
                raise IndexError(f"{name} id out of range [0, {bound})")

        forward_keys = np.unique(_pack(heads, relations, tails, num_entities, num_relations))
        f_heads, f_rels, f_tails = _unpack(forward_keys, num_entities, num_relations)
        forward = np.stack(
            [f_heads, f_rels, f_tails], axis=1
        ).astype(np.int32, copy=False)

        if add_inverse:
            if inverse_ids is None:
                inverse_ids = _inverse_id_table(relation_vocab, add_no_op)
            inv_rels = np.asarray(inverse_ids, dtype=np.int64)[f_rels]
            adj_keys = np.unique(
                np.concatenate(
                    [
                        forward_keys,
                        _pack(f_tails, inv_rels, f_heads, num_entities, num_relations),
                    ]
                )
            )
        else:
            adj_keys = forward_keys
        a_heads, a_rels, a_tails = _unpack(adj_keys, num_entities, num_relations)

        counts = np.bincount(a_heads, minlength=num_entities)
        indptr = np.zeros(num_entities + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            indptr=indptr,
            adj_tails=a_tails.astype(np.int32, copy=False),
            adj_relations=a_rels.astype(np.int32, copy=False),
            forward_triples=forward,
            entity_vocab=entity_vocab,
            relation_vocab=relation_vocab,
            add_inverse=add_inverse,
            add_no_op=add_no_op,
        )

    @classmethod
    def from_graph(cls, graph) -> "CSRKnowledgeGraph":
        """Convert a dict-backed :class:`~repro.kg.graph.KnowledgeGraph`.

        Vocabularies are shared (not copied) with the source graph.
        """
        triples = graph.triples()
        if triples:
            array = np.asarray([t.as_tuple() for t in triples], dtype=np.int64)
            heads, rels, tails = array[:, 0], array[:, 1], array[:, 2]
        else:
            heads = rels = tails = np.empty(0, dtype=np.int64)
        return cls.from_triple_arrays(
            heads,
            rels,
            tails,
            entity_vocab=graph.entities,
            relation_vocab=graph.relations,
            add_inverse=graph.add_inverse,
            add_no_op=graph.add_no_op,
        )

    # ----------------------------------------------------------------- sizes
    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_triples(self) -> int:
        """Number of forward facts (inverse copies are not counted)."""
        return len(self._forward)

    @property
    def num_edges(self) -> int:
        """Adjacency entries (forward plus inverse) across all rows."""
        return len(self._adj_tails)

    def __len__(self) -> int:
        return self.num_triples

    # ----------------------------------------------------------------- access
    def triples(self) -> List[Triple]:
        """All forward triples, sorted by ``(head, relation, tail)``."""
        return list(self)

    def __iter__(self) -> Iterator[Triple]:
        for head, relation, tail in self._forward:
            yield Triple(int(head), int(relation), int(tail))

    def triples_array(self) -> np.ndarray:
        """Forward triples as an ``int32 (num_triples, 3)`` array (no copy)."""
        return self._forward

    def _row(self, entity: int) -> Tuple[np.ndarray, np.ndarray]:
        start, end = int(self._indptr[entity]), int(self._indptr[entity + 1])
        return self._adj_relations[start:end], self._adj_tails[start:end]

    def outgoing_arrays(self, entity: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(relations, tails)`` row slices — the raw action space."""
        if not 0 <= entity < self.num_entities:
            raise IndexError(f"entity id {entity} out of range")
        return self._row(entity)

    def adjacency_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, relations, tails)``: the CSR arrays themselves (no copy)."""
        return self._adjacency

    def outgoing_edges(self, entity: int) -> List[Tuple[int, int]]:
        """Outgoing ``(relation, neighbour)`` pairs, sorted by ``(relation, tail)``."""
        if not 0 <= entity < self.num_entities:
            return []
        rels, tails = self._row(entity)
        return list(zip(rels.tolist(), tails.tolist()))

    def neighbors(self, entity: int) -> Tuple[int, ...]:
        """Distinct neighbour entities as an id-sorted tuple."""
        if not 0 <= entity < self.num_entities:
            return ()
        _, tails = self._row(entity)
        return tuple(int(t) for t in np.unique(tails))

    def degree(self, entity: int) -> int:
        if not 0 <= entity < self.num_entities:
            return 0
        return int(self._indptr[entity + 1] - self._indptr[entity])

    def _relation_range(self, head: int, relation: int) -> Tuple[int, int]:
        start, end = int(self._indptr[head]), int(self._indptr[head + 1])
        rels = self._adj_relations[start:end]
        lo = start + int(np.searchsorted(rels, relation, side="left"))
        hi = start + int(np.searchsorted(rels, relation, side="right"))
        return lo, hi

    def contains(self, head: int, relation: int, tail: int) -> bool:
        """Membership over forward plus inverse edges (like the dict backend)."""
        if not 0 <= head < self.num_entities:
            return False
        lo, hi = self._relation_range(head, relation)
        if lo == hi:
            return False
        pos = lo + int(np.searchsorted(self._adj_tails[lo:hi], tail))
        return pos < hi and int(self._adj_tails[pos]) == tail

    def tails_for(self, head: int, relation: int) -> FrozenSet[int]:
        """All known answer tails for ``(head, relation)`` — used for filtering."""
        if not 0 <= head < self.num_entities:
            return frozenset()
        lo, hi = self._relation_range(head, relation)
        return frozenset(self._adj_tails[lo:hi].tolist())

    def relation_id(self, name: str) -> int:
        return self.relations.index(name)

    def entity_id(self, name: str) -> int:
        return self.entities.index(name)

    def inverse_relation_id(self, relation_id: int) -> int:
        """Id of the inverse relation; the inverse of NO_OP is NO_OP itself."""
        if self._inverse_ids is None:
            self._inverse_ids = _inverse_id_table(self.relations, self.add_no_op)
        return int(self._inverse_ids[relation_id])

    @property
    def no_op_relation_id(self) -> Optional[int]:
        if not self.add_no_op:
            return None
        return self.relations.index(NO_OP_RELATION)

    # ------------------------------------------------------------- utilities
    def relation_frequencies(self) -> Dict[int, int]:
        """Number of forward triples per relation id (zero-count ids omitted)."""
        counts = np.bincount(self._forward[:, 1], minlength=self.num_relations)
        return {int(r): int(c) for r, c in enumerate(counts) if c}

    def subgraph(self, triples: Sequence[Triple]) -> "CSRKnowledgeGraph":
        """A new CSR graph over the same vocabularies containing only ``triples``."""
        if triples:
            array = np.asarray([t.as_tuple() for t in triples], dtype=np.int64)
            heads, rels, tails = array[:, 0], array[:, 1], array[:, 2]
        else:
            heads = rels = tails = np.empty(0, dtype=np.int64)
        return CSRKnowledgeGraph.from_triple_arrays(
            heads,
            rels,
            tails,
            entity_vocab=self.entities,
            relation_vocab=self.relations,
            add_inverse=self.add_inverse,
            add_no_op=self.add_no_op,
        )

    def paths_between(
        self, source: int, target: int, max_hops: int, limit: int = 100
    ) -> List[List[Tuple[int, int]]]:
        """See :meth:`repro.kg.graph.KnowledgeGraph.paths_between`."""
        return enumerate_paths(self, source, target, max_hops, limit)

    def memory_nbytes(self) -> int:
        """Bytes held by the adjacency and triple arrays (mapped or resident)."""
        return int(
            self._indptr.nbytes
            + self._adj_tails.nbytes
            + self._adj_relations.nbytes
            + self._forward.nbytes
        )

    def statistics(self) -> Dict[str, float]:
        """Structural summary used by ``mmkgr kg stats``."""
        degrees = np.diff(self._indptr)
        stats: Dict[str, float] = {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "forward_triples": self.num_triples,
            "adjacency_edges": self.num_edges,
            "array_mb": round(self.memory_nbytes() / 1e6, 2),
        }
        if len(degrees):
            stats.update(
                degree_mean=round(float(degrees.mean()), 3),
                degree_p50=int(np.percentile(degrees, 50)),
                degree_p99=int(np.percentile(degrees, 99)),
                degree_max=int(degrees.max()),
                isolated_entities=int((degrees == 0).sum()),
            )
        return stats

    # ------------------------------------------------------------ persistence
    def save(self, directory: PathLike) -> Path:
        """Persist as plain ``.npy`` arrays plus a JSON meta/vocab manifest.

        The layout mirrors the serving arena's conventions: flat arrays that
        ``load`` re-opens with ``mmap_mode="r"``, with everything else (vocab,
        flags, counts) in a small JSON sidecar.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / _INDPTR_FILE, self._indptr)
        np.save(directory / _TAILS_FILE, self._adj_tails)
        np.save(directory / _RELATIONS_FILE, self._adj_relations)
        np.save(directory / _TRIPLES_FILE, self._forward)
        if isinstance(self.entities, RangeVocabulary):
            entity_spec = {
                "kind": "range",
                "prefix": self.entities.prefix,
                "size": self.entities.size,
            }
        else:
            entity_spec = {"kind": "explicit", "file": _ENTITIES_FILE}
            (directory / _ENTITIES_FILE).write_text(
                json.dumps(list(self.entities.symbols())), encoding="utf-8"
            )
        meta = {
            "format_version": CSR_FORMAT_VERSION,
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "num_forward_triples": self.num_triples,
            "num_adjacency_edges": self.num_edges,
            "add_inverse": self.add_inverse,
            "add_no_op": self.add_no_op,
            "entities": entity_spec,
            "relations": list(self.relations.symbols()),
        }
        (directory / CSR_META_FILE).write_text(
            json.dumps(meta, indent=2), encoding="utf-8"
        )
        return directory

    @classmethod
    def load(cls, directory: PathLike, mmap: bool = True) -> "CSRKnowledgeGraph":
        """Open a saved graph; arrays are memory-mapped read-only by default.

        The row offsets and ids are checked in O(E) vectorized passes; a
        corrupt file raises ``ValueError`` naming it.
        """
        directory = Path(directory)
        meta_path = directory / CSR_META_FILE
        if not meta_path.exists():
            raise FileNotFoundError(
                f"{meta_path} does not exist; not a saved CSR graph directory"
            )
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        version = meta.get("format_version")
        if version != CSR_FORMAT_VERSION:
            raise ValueError(f"unsupported CSR graph format version {version!r}")
        entity_spec = meta["entities"]
        if entity_spec["kind"] == "range":
            entity_vocab = RangeVocabulary(entity_spec["prefix"], int(entity_spec["size"]))
        else:
            names = json.loads(
                (directory / entity_spec["file"]).read_text(encoding="utf-8")
            )
            entity_vocab = Vocabulary(names)
        relation_vocab = Vocabulary(meta["relations"])
        mmap_mode = "r" if mmap else None

        def _open(name: str) -> np.ndarray:
            return np.load(directory / name, mmap_mode=mmap_mode)

        graph = cls(
            indptr=_open(_INDPTR_FILE),
            adj_tails=_open(_TAILS_FILE),
            adj_relations=_open(_RELATIONS_FILE),
            forward_triples=_open(_TRIPLES_FILE),
            entity_vocab=entity_vocab,
            relation_vocab=relation_vocab,
            add_inverse=bool(meta.get("add_inverse", True)),
            add_no_op=bool(meta.get("add_no_op", True)),
        )
        if graph.num_edges != int(meta["num_adjacency_edges"]):
            raise ValueError(
                f"{directory}: adjacency arrays hold {graph.num_edges} edges, "
                f"meta records {meta['num_adjacency_edges']}"
            )
        graph._validate(directory)
        return graph

    def _validate(self, directory: Path) -> None:
        """Raise ``ValueError`` unless the adjacency arrays form valid CSR rows."""
        indptr = self._indptr
        if indptr[0] != 0 or indptr[-1] != self.num_edges:
            raise ValueError(
                f"{directory / _INDPTR_FILE}: offsets must run from 0 to "
                f"{self.num_edges}, got {indptr[0]} to {indptr[-1]}"
            )
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError(f"{directory / _INDPTR_FILE}: offsets decrease")
        for name, ids, bound in (
            (_TAILS_FILE, self._adj_tails, self.num_entities),
            (_RELATIONS_FILE, self._adj_relations, self.num_relations),
        ):
            if len(ids) and (ids.min() < 0 or ids.max() >= bound):
                raise ValueError(f"{directory / name}: ids outside [0, {bound})")


def _inverse_id_table(relation_vocab, add_no_op: bool) -> np.ndarray:
    """relation id -> inverse relation id, derived from the vocabulary names."""
    table = np.arange(len(relation_vocab), dtype=np.int64)
    for relation_id in range(len(relation_vocab)):
        name = relation_vocab.symbol(relation_id)
        if add_no_op and name == NO_OP_RELATION:
            continue
        table[relation_id] = relation_vocab.index(inverse_relation_name(name))
    return table


def load_csr_graph(directory: PathLike, mmap: bool = True) -> CSRKnowledgeGraph:
    """Module-level alias of :meth:`CSRKnowledgeGraph.load` for the CLI/tools."""
    return CSRKnowledgeGraph.load(directory, mmap=mmap)
