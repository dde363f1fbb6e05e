"""Baseline reasoning models compared against MMKGR in Tables III, IV and VII.

Two families:

* single-hop, embedding-based, multi-modal: **MTRL**, **TransAE**;
* multi-hop on traditional KGs (no multi-modal input): **MINERVA**, **FIRE**,
  **GAATs**, **NeuralLP**, **RLH**.

Each baseline is a faithful *algorithmic* reimplementation at the level the
comparison requires (single-hop vs multi-hop, 0/1 reward vs shaped reward,
rule-based vs embedding-based vs RL); see DESIGN.md for the exact
approximations made for the components whose original code is unavailable.
"""

from repro.baselines.registry import (
    BASELINE_REGISTRY,
    BaselineResult,
    BaselineRunner,
    available_baselines,
    fit_baseline,
    get_baseline,
    result_from_reasoner,
)
from repro.baselines.mtrl import MTRLBaseline
from repro.baselines.transae import TransAEBaseline
from repro.baselines.minerva import MinervaBaseline
from repro.baselines.rlh import RLHBaseline
from repro.baselines.fire import FIREBaseline
from repro.baselines.gaats import GAATsBaseline
from repro.baselines.neurallp import NeuralLPBaseline

__all__ = [
    "BASELINE_REGISTRY",
    "BaselineResult",
    "BaselineRunner",
    "available_baselines",
    "fit_baseline",
    "get_baseline",
    "result_from_reasoner",
    "MTRLBaseline",
    "TransAEBaseline",
    "MinervaBaseline",
    "RLHBaseline",
    "FIREBaseline",
    "GAATsBaseline",
    "NeuralLPBaseline",
]
