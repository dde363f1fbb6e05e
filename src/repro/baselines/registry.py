"""Uniform interface and registry for baseline models.

Every baseline implements :class:`BaselineRunner`: ``fit`` trains the model
on a dataset and returns a *queryable* reasoner (the
:class:`~repro.serve.protocol.ReasonerProtocol` contract shared with MMKGR),
so callers can keep the trained model, answer ``(head, relation, ?)``
queries, and persist it.  :func:`result_from_reasoner` evaluates a fitted
reasoner into the metric dictionaries the experiment tables consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Type

from repro.core.config import ExperimentPreset, fast_preset
from repro.kg.datasets import MKGDataset
from repro.serve.protocol import ReasonerProtocol
from repro.utils.rng import SeedLike


@dataclass
class BaselineResult:
    """Metrics reported by a baseline run."""

    name: str
    entity_metrics: Dict[str, float] = field(default_factory=dict)
    relation_metrics: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def mrr(self) -> float:
        return self.entity_metrics.get("mrr", float("nan"))

    def hits(self, k: int) -> float:
        return self.entity_metrics.get(f"hits@{k}", float("nan"))


class BaselineRunner(Protocol):
    """The interface every baseline implements."""

    name: str

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> ReasonerProtocol:
        """Train on ``dataset`` and return the queryable trained model."""
        ...


class FittableBaseline:
    """Base class of the registered baselines: a ``name`` and a ``fit``."""

    name = ""

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> ReasonerProtocol:
        raise NotImplementedError


BASELINE_REGISTRY: Dict[str, Type] = {}


def register_baseline(cls: Type) -> Type:
    """Class decorator adding a baseline to the registry under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not name:
        raise ValueError(f"baseline class {cls.__name__} must define a non-empty 'name'")
    BASELINE_REGISTRY[name] = cls
    return cls


def available_baselines() -> List[str]:
    """Names of all registered baselines (import side effect of the package)."""
    # Importing the package registers every baseline class.
    import repro.baselines  # noqa: F401  (self import keeps registry populated)

    return sorted(BASELINE_REGISTRY)


def get_baseline(name: str) -> BaselineRunner:
    """Instantiate a registered baseline by name."""
    import repro.baselines  # noqa: F401

    try:
        cls = BASELINE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(BASELINE_REGISTRY))
        raise KeyError(f"unknown baseline {name!r}; known baselines: {known}") from None
    return cls()


def fit_baseline(
    name: str,
    dataset: MKGDataset,
    preset: Optional[ExperimentPreset] = None,
    rng: SeedLike = None,
) -> ReasonerProtocol:
    """Train a registered baseline and return the queryable trained model."""
    runner = get_baseline(name)
    return runner.fit(dataset, preset=preset or fast_preset(), rng=rng)


def result_from_reasoner(
    reasoner: ReasonerProtocol,
    dataset: MKGDataset,
    preset: ExperimentPreset,
    evaluate_relations: bool = False,
    rng: SeedLike = None,
) -> BaselineResult:
    """Evaluate a fitted reasoner into the table-oriented metric bundle."""
    entity_metrics = reasoner.entity_metrics(
        dataset.splits.test,
        filter_graph=dataset.graph,
        config=preset.evaluation,
        rng=rng,
    )
    relation_metrics: Dict[str, float] = {}
    if evaluate_relations:
        relation_metrics = reasoner.relation_metrics(
            dataset.splits.test, config=preset.evaluation, rng=rng
        )
    return BaselineResult(
        name=reasoner.name,
        entity_metrics=entity_metrics,
        relation_metrics=relation_metrics,
        extras=dict(getattr(reasoner, "extras", {}) or {}),
    )

