"""Blaeu's core: themes, data maps, navigation, the engine facade.

This package is the paper's primary contribution — everything else in
the repository is substrate for it.
"""

from repro.core.config import BlaeuConfig, ExplorationConfig
from repro.core.datamap import DataMap, Region
from repro.core.engine import Blaeu
from repro.core.insights import InsightReport, region_insights
from repro.core.navigation import ExplorationState, Explorer, Highlight
from repro.core.pipeline import (
    MapBuilder,
    MapBuildError,
    MapPipeline,
    build_map,
)
from repro.core.preprocess import FeatureSpace, preprocess
from repro.core.queries import QuantizedQuery, quantized_queries, state_to_sql
from repro.core.themes import Theme, ThemeSet, extract_themes

__all__ = [
    "Blaeu",
    "BlaeuConfig",
    "DataMap",
    "ExplorationConfig",
    "ExplorationState",
    "Explorer",
    "FeatureSpace",
    "Highlight",
    "InsightReport",
    "MapBuildError",
    "MapBuilder",
    "MapPipeline",
    "QuantizedQuery",
    "Region",
    "Theme",
    "ThemeSet",
    "build_map",
    "extract_themes",
    "preprocess",
    "quantized_queries",
    "region_insights",
    "state_to_sql",
]
