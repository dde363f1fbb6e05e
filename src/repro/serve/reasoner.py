"""Reasoner facades: the train-once / query-many entry points.

Two families implement :class:`~repro.serve.protocol.ReasonerProtocol`:

* :class:`Reasoner` wraps a (trained) :class:`~repro.core.trainer.
  MMKGRPipeline` — MMKGR itself, its ablation variants, and the RL baselines
  that reuse the pipeline (MINERVA, FIRE, RLH).  Queries run through the
  batched beam-search engine; persistence rides on the existing checkpoint
  layer.
* :class:`EmbeddingReasoner` wraps any model exposing
  ``score_tails(head, relation)`` over a known graph — the single-hop
  embedding baselines (MTRL, TransAE, GAATs) and NeuralLP's rule reasoner —
  and persists via pickle.

:func:`load_reasoner` restores either family from a saved directory without
the caller knowing which model produced it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.config import EvaluationConfig, ExperimentPreset
from repro.core.evaluator import (
    evaluate_entity_prediction,
    evaluate_relation_prediction,
)
from repro.core.trainer import MMKGRPipeline
from repro.explain.paths import display_relation
from repro.features.extraction import ModalityConfig
from repro.kg.datasets import MKGDataset
from repro.kg.graph import NO_OP_RELATION, KnowledgeGraph, Triple
from repro.rl.environment import Query
from repro.serve.engine import BatchBeamSearch
from repro.serve.protocol import (
    EntityLike,
    Prediction,
    QuerySpec,
    RelationLike,
    predictions_from_scores,
    resolve_query,
)
from repro.utils.rng import SeedLike

PathLike = Union[str, Path]

REASONER_FILE = "reasoner.json"
MODEL_FILE = "model.pkl"
REASONER_FORMAT_VERSION = 1

# Serving queries have no gold answer; the sentinel never matches an entity,
# so answer-edge masking and reward bookkeeping stay inert.
NO_ANSWER = -1


def _repro_version() -> str:
    """The package version recorded in save manifests (lazy: avoids an import
    cycle while :mod:`repro`'s own ``__init__`` is still executing)."""
    import repro

    return getattr(repro, "__version__", "unknown")


def dataset_fingerprint(source) -> Optional[str]:
    """A short stable digest identifying the data a reasoner was trained on.

    Accepts a dataset config (the synthetic datasets are deterministic
    functions of their config), a full :class:`~repro.kg.datasets.MKGDataset`,
    or a bare :class:`~repro.kg.graph.KnowledgeGraph` (hashed triple by
    triple — the embedding reasoners keep a graph but no config).  Returns
    ``None`` when ``source`` is ``None``.
    """
    if source is None:
        return None
    config = getattr(source, "config", source)
    digest = hashlib.sha256()
    if isinstance(config, KnowledgeGraph):
        graph = config
        digest.update(
            f"graph:{graph.num_entities}:{graph.num_relations}:{graph.num_triples}".encode()
        )
        for triple in graph.triples():
            digest.update(b"%d,%d,%d;" % (triple.head, triple.relation, triple.tail))
    else:
        from repro.core.config_io import dataset_config_to_dict

        payload = dataset_config_to_dict(config)
        digest.update(json.dumps(payload, sort_keys=True, default=str).encode("utf-8"))
    return digest.hexdigest()[:16]


def _manifest_provenance(
    dataset_name: Optional[str], fingerprint_source, metrics: Optional[Dict[str, float]]
) -> dict:
    """The provenance block shared by both save manifests (PR-5 additions).

    Every field is optional at load time, so PR-1 manifests (which predate
    the block) keep loading unchanged.
    """
    provenance = {
        "repro_version": _repro_version(),
        "dataset": {
            "name": dataset_name,
            "fingerprint": dataset_fingerprint(fingerprint_source),
        },
    }
    if metrics is not None:
        provenance["metrics"] = {key: float(value) for key, value in metrics.items()}
    return provenance


class Reasoner:
    """Facade over a trained multi-hop RL pipeline: ``fit`` once, ``query`` many.

    Construct with the training configuration and call :meth:`fit`, wrap an
    already-trained pipeline with :meth:`from_pipeline`, or restore one from
    disk with :meth:`load`.
    """

    def __init__(
        self,
        preset: Optional[ExperimentPreset] = None,
        modalities: Optional[ModalityConfig] = None,
        reward_scheme: str = "3d",
        shaping_scorer: str = "transe",
        beam_width: Optional[int] = None,
        name: str = "MMKGR",
        rng: SeedLike = None,
    ):
        self.name = name
        self.preset = preset
        self.modalities = modalities
        self.reward_scheme = reward_scheme
        self.shaping_scorer = shaping_scorer
        self.beam_width = beam_width
        self.rng = rng
        self.pipeline: Optional[MMKGRPipeline] = None
        self._engine: Optional[BatchBeamSearch] = None

    # ------------------------------------------------------------ construction
    @classmethod
    def from_pipeline(
        cls,
        pipeline: MMKGRPipeline,
        name: str = "MMKGR",
        beam_width: Optional[int] = None,
    ) -> "Reasoner":
        """Wrap an already-built (usually trained) pipeline."""
        if pipeline.agent is None:
            raise RuntimeError("the pipeline has not been built yet; call train() first")
        reasoner = cls(
            preset=pipeline.preset,
            modalities=pipeline.modalities,
            reward_scheme=pipeline.reward_scheme,
            shaping_scorer=pipeline.shaping_scorer,
            beam_width=beam_width,
            name=name,
        )
        reasoner.pipeline = pipeline
        return reasoner

    def fit(self, dataset: MKGDataset) -> "Reasoner":
        """Train the underlying pipeline on ``dataset`` and return ``self``.

        A reasoner named after a registered baseline (e.g. one restored from
        a FIRE or RLH save) refits through that baseline's own recipe, so its
        agent/environment specialisations survive the refit.
        """
        if self.name != "MMKGR":
            from repro.baselines.registry import BASELINE_REGISTRY, fit_baseline

            if self.name in BASELINE_REGISTRY:
                fitted = fit_baseline(
                    self.name, dataset, preset=self.preset, rng=self.rng
                )
                if not isinstance(fitted, Reasoner):
                    raise TypeError(
                        f"baseline {self.name!r} did not produce an agent reasoner"
                    )
                self.pipeline = fitted.pipeline
                self._engine = None
                return self
        self.pipeline = MMKGRPipeline(
            dataset,
            preset=self.preset,
            modalities=self.modalities,
            reward_scheme=self.reward_scheme,
            shaping_scorer=self.shaping_scorer,
            rng=self.rng,
        )
        self.pipeline.train()
        self._engine = None
        return self

    @property
    def is_fitted(self) -> bool:
        return self.pipeline is not None and self.pipeline.agent is not None

    def _require_fitted(self) -> MMKGRPipeline:
        if not self.is_fitted:
            raise RuntimeError(f"reasoner {self.name!r} has not been fitted yet")
        return self.pipeline

    # ---------------------------------------------------------------- serving
    @property
    def graph(self) -> KnowledgeGraph:
        return self._require_fitted().dataset.graph

    @property
    def engine(self) -> BatchBeamSearch:
        """The (lazily built) batched beam-search engine."""
        if self._engine is None:
            pipeline = self._require_fitted()
            width = self.beam_width or pipeline.preset.evaluation.beam_width
            self._engine = BatchBeamSearch(
                pipeline.agent, pipeline.environment, beam_width=width
            )
        return self._engine

    def replicate(self) -> "Reasoner":
        """A serving replica for another worker thread: same pipeline, own engine.

        Engines never mutate the agent or the environment, so replicas share
        the trained pipeline without locking.
        """
        replica = Reasoner.from_pipeline(
            self._require_fitted(), name=self.name, beam_width=self.beam_width
        )
        replica._engine = BatchBeamSearch(
            replica.pipeline.agent,
            replica.pipeline.environment,
            beam_width=self.engine.beam_width,
        )
        return replica

    def query(
        self, head: EntityLike, relation: RelationLike, k: int = 10
    ) -> List[Prediction]:
        """Ranked answers to ``(head, relation, ?)`` with their reasoning paths."""
        return self.query_batch([(head, relation)], k=k)[0]

    def query_batch(
        self, queries: Sequence[Tuple[EntityLike, RelationLike]], k: int = 10
    ) -> List[List[Prediction]]:
        """Answer many queries with one lockstep (vectorized) beam search."""
        if k < 1:
            raise ValueError("k must be >= 1")
        pipeline = self._require_fitted()
        graph = pipeline.dataset.graph
        specs = [resolve_query(graph, head, relation) for head, relation in queries]
        search_queries = [Query(spec.head, spec.relation, NO_ANSWER) for spec in specs]
        results = self.engine.run(search_queries)
        return [self._predictions(graph, result, k) for result in results]

    @staticmethod
    def _predictions(graph: KnowledgeGraph, result, k: int) -> List[Prediction]:
        """The top ``k`` entities of a beam result, each with its best path.

        Ranked by descending score, ties in beam order; NO_OP steps are left
        out of the path.
        """
        entity_name = graph.entities.symbol
        relation_name = graph.relations.symbol
        ranked = sorted(result.entity_log_probs.items(), key=lambda kv: kv[1], reverse=True)
        predictions = []
        for entity, score in ranked[:k]:
            path = []
            names: List[str] = []
            for relation, tail in result.paths[entity]:
                name = relation_name(relation)
                if name != NO_OP_RELATION:
                    path.append((relation, tail))
                    names.extend((display_relation(name), entity_name(tail)))
            predictions.append(
                Prediction(
                    entity=entity,
                    entity_name=entity_name(entity),
                    score=float(score),
                    path=tuple(path),
                    path_names=tuple(names),
                )
            )
        return predictions

    # ------------------------------------------------------------- evaluation
    def entity_metrics(
        self,
        test_triples: Sequence[Triple],
        filter_graph: Optional[KnowledgeGraph] = None,
        config: Optional[EvaluationConfig] = None,
        rng: SeedLike = None,
    ) -> Dict[str, float]:
        """Entity link-prediction metrics via the shared evaluation protocol.

        Evaluation runs through the same lockstep batched beam search as
        serving.
        """
        pipeline = self._require_fitted()
        return evaluate_entity_prediction(
            pipeline.agent,
            pipeline.environment,
            test_triples,
            filter_graph=filter_graph or pipeline.dataset.graph,
            config=config or pipeline.preset.evaluation,
            rng=pipeline.rng if rng is None else rng,
        )

    def relation_metrics(
        self,
        test_triples: Sequence[Triple],
        config: Optional[EvaluationConfig] = None,
        rng: SeedLike = None,
    ) -> Dict[str, float]:
        pipeline = self._require_fitted()
        return evaluate_relation_prediction(
            pipeline.agent,
            pipeline.environment,
            test_triples,
            config=config or pipeline.preset.evaluation,
            rng=rng,
        )

    # ------------------------------------------------------------ persistence
    def save(self, path: PathLike, metrics: Optional[Dict[str, float]] = None) -> Path:
        """Persist to ``path`` on top of the pipeline checkpoint format.

        ``metrics`` optionally snapshots evaluation numbers into the manifest
        (the model registry surfaces them when listing published versions).
        """
        pipeline = self._require_fitted()
        directory = save_checkpoint(pipeline, path)
        environment = pipeline.environment
        manifest = {
            "format_version": REASONER_FORMAT_VERSION,
            "reasoner_type": "agent",
            "name": self.name,
            "beam_width": self.beam_width,
            "agent_class": type(pipeline.agent).__name__,
            "environment_class": type(environment).__name__,
            "prune_to": getattr(environment, "prune_to", None),
            **_manifest_provenance(
                pipeline.dataset.config.name, pipeline.dataset.config, metrics
            ),
        }
        (directory / REASONER_FILE).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        return directory

    @classmethod
    def load(cls, path: PathLike, rng: SeedLike = None) -> "Reasoner":
        """Restore a saved reasoner (checkpoint + serving manifest)."""
        directory = Path(path)
        manifest = _read_manifest(directory)
        if manifest["reasoner_type"] != "agent":
            raise ValueError(
                f"{directory} holds a {manifest['reasoner_type']!r} reasoner; "
                "use load_reasoner() to dispatch on the stored type"
            )
        pipeline = load_checkpoint(directory, rng=rng)
        _restore_specialisations(pipeline, manifest)
        reasoner = cls.from_pipeline(
            pipeline,
            name=manifest.get("name", "MMKGR"),
            beam_width=manifest.get("beam_width"),
        )
        return reasoner


def _restore_specialisations(pipeline: MMKGRPipeline, manifest: dict) -> None:
    """Rebuild baseline-specific agent/environment subclasses after loading.

    The checkpoint layer restores a stock agent and environment; RLH's
    hierarchical policy and FIRE's embedding-pruned environment carry no
    extra parameters, so they are reconstructed around the restored state.
    """
    agent_class = manifest.get("agent_class", "MMKGRAgent")
    if agent_class == "HierarchicalAgent":
        from repro.baselines.rlh import HierarchicalAgent

        agent = HierarchicalAgent(
            pipeline.features, config=pipeline.preset.model, rng=0
        )
        agent.load_state_dict(pipeline.agent.state_dict())
        pipeline.agent = agent
    environment_class = manifest.get("environment_class", "MKGEnvironment")
    if environment_class == "PrunedEnvironment":
        from repro.baselines.fire import PrunedEnvironment

        pipeline.environment = PrunedEnvironment(
            pipeline.dataset.train_graph,
            max_steps=pipeline.preset.model.max_steps,
            max_actions=pipeline.preset.model.max_actions,
            entity_embeddings=pipeline.features.entity_embeddings,
            relation_embeddings=pipeline.features.relation_embeddings,
            prune_to=manifest.get("prune_to") or 16,
        )


def reasoner_over_graph(
    graph,
    mkg=None,
    preset=None,
    name: str = "graph-demo",
    beam_width: Optional[int] = None,
    rng: SeedLike = None,
) -> Reasoner:
    """An untrained, seeded :class:`Reasoner` serving beam search over a bare graph.

    The million-entity capacity path: no TransE pre-training and no REINFORCE
    — the agent keeps its (seed-deterministic) initialization weights, so
    predictions are reproducible but not meaningful.  What this exercises is
    everything *around* the model at full fidelity: CSR adjacency expansion
    and the lockstep beam-search engine — which
    is exactly what capacity benchmarks and `mmkgr query --graph` need.

    ``graph`` is any graph backend (typically a memory-mapped
    :class:`~repro.kg.csr.CSRKnowledgeGraph`).  When no ``mkg`` is given, the
    graph is wrapped with stride-0 broadcast zero feature matrices, so the
    multimodal layer adds nothing to resident memory.
    """
    from repro.core.config import fast_preset
    from repro.core.model import MMKGRAgent
    from repro.features.extraction import FeatureStore
    from repro.kg.datasets import GraphOnlyDataset
    from repro.kg.multimodal import MultiModalKnowledgeGraph
    from repro.rl.environment import MKGEnvironment
    from repro.utils.rng import new_rng

    preset = preset or fast_preset()
    if mkg is None:
        zero = np.zeros((), dtype=np.float32)
        mkg = MultiModalKnowledgeGraph.from_matrices(
            graph,
            image_matrix=np.broadcast_to(zero, (graph.num_entities, 8)),
            text_matrix=np.broadcast_to(zero, (graph.num_entities, 8)),
            name=name,
        )
    rng = new_rng(preset.model.seed if rng is None else rng)
    # ModalityConfig.full() keeps FeatureStore returning the (broadcast,
    # zero-byte) backing matrices directly instead of materializing
    # np.zeros_like copies for disabled modalities.
    features = FeatureStore(
        mkg,
        structural_dim=preset.model.structural_dim,
        modalities=ModalityConfig.full(),
        rng=rng,
    )
    environment = MKGEnvironment(
        mkg.graph,
        max_steps=preset.model.max_steps,
        max_actions=preset.model.max_actions,
    )
    agent = MMKGRAgent(features, config=preset.model, rng=rng)
    pipeline = MMKGRPipeline.from_components(
        GraphOnlyDataset.wrap(mkg, name=name),
        agent=agent,
        environment=environment,
        features=features,
        preset=preset,
    )
    return Reasoner.from_pipeline(pipeline, name=name, beam_width=beam_width)


class EmbeddingReasoner:
    """Queryable wrapper for single-hop models scoring every tail in closed form.

    ``model`` must expose ``score_tails(head, relation) -> np.ndarray`` and a
    ``graph`` attribute (every :class:`~repro.embeddings.base.KGEmbeddingModel`
    and NeuralLP's ``RuleReasoner`` do).  ``query_batch`` is a straight loop —
    the closed-form scorers are already vectorized over the entity axis.
    """

    reasoner_type = "embedding"

    def __init__(
        self,
        model=None,
        name: str = "embedding",
        filter_graph: Optional[KnowledgeGraph] = None,
    ):
        self.model = model
        self.name = name
        self.filter_graph = filter_graph
        # Model-specific diagnostics reported alongside metrics (e.g. the
        # TransAE reconstruction error).
        self.extras: Dict[str, float] = {}

    # ------------------------------------------------------------ construction
    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> "EmbeddingReasoner":
        """(Re)train by delegating to the registered baseline of this name."""
        from repro.baselines.registry import fit_baseline

        fitted = fit_baseline(self.name, dataset, preset=preset, rng=rng)
        if not isinstance(fitted, EmbeddingReasoner):
            raise TypeError(
                f"baseline {self.name!r} did not produce an embedding reasoner"
            )
        self.model = fitted.model
        self.filter_graph = fitted.filter_graph
        self.extras = dict(fitted.extras)
        return self

    @property
    def is_fitted(self) -> bool:
        return self.model is not None

    def _require_model(self):
        if self.model is None:
            raise RuntimeError(f"reasoner {self.name!r} has not been fitted yet")
        return self.model

    @property
    def graph(self) -> KnowledgeGraph:
        return self._require_model().graph

    # ---------------------------------------------------------------- serving
    def query(
        self, head: EntityLike, relation: RelationLike, k: int = 10
    ) -> List[Prediction]:
        if k < 1:
            raise ValueError("k must be >= 1")
        model = self._require_model()
        spec = resolve_query(model.graph, head, relation)
        scores = np.asarray(model.score_tails(spec.head, spec.relation), dtype=np.float64)
        return predictions_from_scores(model.graph, scores, k)

    def query_batch(
        self, queries: Sequence[Tuple[EntityLike, RelationLike]], k: int = 10
    ) -> List[List[Prediction]]:
        return [self.query(head, relation, k=k) for head, relation in queries]

    # ------------------------------------------------------------- evaluation
    def entity_metrics(
        self,
        test_triples: Sequence[Triple],
        filter_graph: Optional[KnowledgeGraph] = None,
        config: Optional[EvaluationConfig] = None,
        rng: SeedLike = None,
    ) -> Dict[str, float]:
        from repro.embeddings.evaluation import evaluate_embedding_model

        hits_at = config.hits_at if config is not None else (1, 5, 10)
        return evaluate_embedding_model(
            self._require_model(),
            test_triples,
            filter_graph=filter_graph or self.filter_graph,
            hits_at=hits_at,
        )

    def relation_metrics(
        self,
        test_triples: Sequence[Triple],
        config: Optional[EvaluationConfig] = None,
        rng: SeedLike = None,
    ) -> Dict[str, float]:
        from repro.baselines.mtrl import forward_relations, relation_map_for_embedding_model

        model = self._require_model()
        graph = self.filter_graph or model.graph
        return relation_map_for_embedding_model(
            model, test_triples, forward_relations(graph), graph
        )

    # ------------------------------------------------------------ persistence
    def save(self, path: PathLike, metrics: Optional[Dict[str, float]] = None) -> Path:
        model = self._require_model()  # fail before touching the directory
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        # No dataset config survives fitting, so the fingerprint hashes the
        # graph the model scores over instead.
        manifest = {
            "format_version": REASONER_FORMAT_VERSION,
            "reasoner_type": self.reasoner_type,
            "name": self.name,
            **_manifest_provenance(None, self.filter_graph or model.graph, metrics),
        }
        (directory / REASONER_FILE).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        with open(directory / MODEL_FILE, "wb") as handle:
            pickle.dump(
                {
                    "model": model,
                    "filter_graph": self.filter_graph,
                    "extras": self.extras,
                },
                handle,
            )
        return directory

    @classmethod
    def load(cls, path: PathLike, rng: SeedLike = None) -> "EmbeddingReasoner":
        directory = Path(path)
        manifest = _read_manifest(directory)
        with open(directory / MODEL_FILE, "rb") as handle:
            payload = pickle.load(handle)
        reasoner = cls(
            model=payload["model"],
            name=manifest.get("name", "embedding"),
            filter_graph=payload.get("filter_graph"),
        )
        reasoner.extras = dict(payload.get("extras", {}))
        return reasoner


class RuleReasonerAdapter(EmbeddingReasoner):
    """NeuralLP's rule reasoner behind the same serving contract."""

    reasoner_type = "rules"


_REASONER_TYPES = {
    "agent": Reasoner,
    "embedding": EmbeddingReasoner,
    "rules": RuleReasonerAdapter,
}


def _read_manifest(directory: Path) -> dict:
    manifest_path = directory / REASONER_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{manifest_path} does not exist; not a saved reasoner directory"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    version = manifest.get("format_version")
    if version != REASONER_FORMAT_VERSION:
        raise ValueError(f"unsupported reasoner format version {version!r}")
    return manifest


def load_reasoner(path: PathLike, rng: SeedLike = None):
    """Restore any saved reasoner, dispatching on the stored ``reasoner_type``.

    Every model — MMKGR and the baselines — saves through the same protocol,
    so one loader restores them all: ``load_reasoner("checkpoints/mmkgr")``
    returns a fitted object with ``query`` / ``query_batch`` / ``save``.
    A directory without a reasoner manifest is rejected up front:

    >>> load_reasoner("/no/such/checkpoint")  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    FileNotFoundError: ...reasoner.json does not exist; not a saved reasoner directory
    """
    directory = Path(path)
    manifest = _read_manifest(directory)
    kind = manifest.get("reasoner_type")
    try:
        cls = _REASONER_TYPES[kind]
    except KeyError:
        known = ", ".join(sorted(_REASONER_TYPES))
        raise ValueError(f"unknown reasoner type {kind!r}; known types: {known}") from None
    return cls.load(directory, rng=rng)
