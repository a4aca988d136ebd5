"""DeepStore: the paper's primary contribution.

This package assembles the substrates into the in-storage acceleration
system:

* :mod:`placement` — the three accelerator placements of paper Table 3
  (SSD-level, channel-level, chip-level) with their dataflows, clocks,
  scratchpads, areas and power budgets;
* :mod:`topk` — the controller's hardware top-K sorter (sorted tag array
  + mapping table, paper §4.3);
* :mod:`accelerator` — one in-storage accelerator instance: systolic
  array + scratchpad hierarchy + controller, with analytic and
  event-driven (FLASH_DFV queue) execution models;
* :mod:`deepstore` — the whole-SSD system model producing per-query
  latency and energy at any placement level;
* :mod:`query_cache` — the similarity-based query cache (Algorithm 1);
* :mod:`engine` — the in-storage runtime's query engine (map-reduce
  scheduling, top-K merging, overhead model);
* :mod:`api` — the programming API of paper Table 2 (``readDB``,
  ``writeDB``, ``appendDB``, ``loadModel``, ``query``, ``getResults``,
  ``setQC``) over a functional device that really executes queries;
* :mod:`dse` — the design-space exploration of §4.5 / Fig. 6.
"""

from repro.core.placement import (
    CHANNEL_LEVEL,
    CHIP_LEVEL,
    LEVELS,
    SSD_LEVEL,
    AcceleratorPlacement,
    UnsupportedModelError,
)
from repro.core.topk import TopKSorter
from repro.core.accelerator import InStorageAccelerator
from repro.core.deepstore import DeepStoreSystem, QueryLatency
from repro.core.query_cache import (
    CacheEntry,
    EmbeddingComparator,
    QueryCache,
    QueryCacheSimulator,
)
from repro.core.engine import EngineCosts, QueryEngine
from repro.core.api import DeepStoreDevice, QueryHandle, QueryResult
from repro.core.dse import DesignPoint, explore_pe_scaling, search_configurations
from repro.core.scheduler import MultiQueryScheduler, SharedScanReport
from repro.core.commands import Command, CommandTransport, CompletionEntry
from repro.core.event_query import EventQueryResult, EventQuerySimulator
from repro.core.capacity import DeploymentPlan, best_plan, plan_deployment

__all__ = [
    "AcceleratorPlacement",
    "UnsupportedModelError",
    "SSD_LEVEL",
    "CHANNEL_LEVEL",
    "CHIP_LEVEL",
    "LEVELS",
    "TopKSorter",
    "InStorageAccelerator",
    "DeepStoreSystem",
    "QueryLatency",
    "QueryCache",
    "CacheEntry",
    "EmbeddingComparator",
    "QueryCacheSimulator",
    "QueryEngine",
    "EngineCosts",
    "DeepStoreDevice",
    "QueryHandle",
    "QueryResult",
    "DesignPoint",
    "explore_pe_scaling",
    "search_configurations",
    "MultiQueryScheduler",
    "SharedScanReport",
    "Command",
    "CommandTransport",
    "CompletionEntry",
    "EventQuerySimulator",
    "EventQueryResult",
    "DeploymentPlan",
    "plan_deployment",
    "best_plan",
]
