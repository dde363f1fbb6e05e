"""Explanation and provenance extraction for multi-hop reasoning.

One of the paper's central arguments for RL-based multi-hop reasoning over
embedding-based single-hop reasoning is *explainability*: every prediction is
backed by a concrete relation path through the graph ("Titanic —Heroine→ Rose
Bukater —Played_by→ Kate Winslet").  This package turns the raw beam-search
output of a trained agent into that human-readable provenance:

* :mod:`repro.explain.paths` — symbolic reasoning paths with entity/relation
  names, hop counts, and scores;
* :mod:`repro.explain.explainer` — per-query explanations (top predictions and
  the paths supporting them) produced from any trained ``MMKGRAgent``;
* :mod:`repro.explain.rules` — aggregation of the relation-path signatures the
  agent actually uses into weighted inference rules with support/confidence;
* :mod:`repro.explain.report` — a report object combining explanations and
  mined rules with text and JSON renderings.
"""

from repro.explain.paths import PathStep, ReasoningPath, path_from_steps
from repro.explain.explainer import Explainer, Explanation, explain_pipeline
from repro.explain.rules import RelationRule, aggregate_rules
from repro.explain.report import ExplanationReport, build_report

__all__ = [
    "PathStep",
    "ReasoningPath",
    "path_from_steps",
    "Explainer",
    "Explanation",
    "explain_pipeline",
    "RelationRule",
    "aggregate_rules",
    "ExplanationReport",
    "build_report",
]
