"""CosmoTools: the in-situ analysis framework embedded in the simulation.

``InSituAlgorithm`` (set_parameters / should_execute / execute),
``InSituAnalysisManager`` (the hook the simulation calls each step),
configuration parsing (input deck + CosmoTools config), and the concrete
analysis algorithms.
"""

from .algorithm import AnalysisContext, InSituAlgorithm
from .algorithms import (
    ALGORITHM_REGISTRY,
    HaloCenterAlgorithm,
    HaloFinderAlgorithm,
    Level1WriterAlgorithm,
    Level2WriterAlgorithm,
    PowerSpectrumAlgorithm,
    SOMassAlgorithm,
    StreamingPreviewAlgorithm,
    SubhaloFinderAlgorithm,
    tag_index_map,
)
from .config import CosmoToolsConfig, InputDeck, parse_deck, parse_value
from .manager import InSituAnalysisManager
from .pipeline import AsyncInSituManager, PendingAnalysis, SimSnapshot
from .spatial import SharedStepIndex

__all__ = [
    "AsyncInSituManager",
    "PendingAnalysis",
    "SimSnapshot",
    "SharedStepIndex",
    "AnalysisContext",
    "InSituAlgorithm",
    "ALGORITHM_REGISTRY",
    "HaloCenterAlgorithm",
    "HaloFinderAlgorithm",
    "Level1WriterAlgorithm",
    "Level2WriterAlgorithm",
    "PowerSpectrumAlgorithm",
    "SOMassAlgorithm",
    "StreamingPreviewAlgorithm",
    "SubhaloFinderAlgorithm",
    "tag_index_map",
    "CosmoToolsConfig",
    "InputDeck",
    "parse_deck",
    "parse_value",
    "InSituAnalysisManager",
]
