"""repro — Conceptual Partitioning (CPM) for continuous NN monitoring.

A full reproduction of Mouratidis, Hadjieleftheriou & Papadias,
"Conceptual Partitioning: An Efficient Method for Continuous Nearest
Neighbor Monitoring" (SIGMOD 2005): the CPM algorithm with its aggregate
and constrained extensions, the YPK-CNN and SEA-CNN baselines, a
Brinkhoff-style moving-object workload generator, a replay/measurement
engine, the Section 4.1 analytical model and drivers regenerating every
figure of the paper's evaluation.

Quickstart::

    from repro import CPMMonitor, ObjectUpdate

    monitor = CPMMonitor(cells_per_axis=64)
    monitor.load_objects([(1, (0.10, 0.20)), (2, (0.70, 0.75))])
    print(monitor.install_query(qid=0, point=(0.5, 0.5), k=1))
    monitor.process([ObjectUpdate(1, (0.10, 0.20), (0.51, 0.52))])
    print(monitor.result(0))

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.analysis import model as analysis_model
from repro.api.client import Client
from repro.api.queries import (
    ConstrainedKnnSpec,
    FilteredKnnSpec,
    KnnSpec,
    RangeSpec,
)
from repro.api.server import MonitorSocketServer
from repro.api.session import QueryHandle, Session, replay_workload
from repro.baselines.brute import BruteForceMonitor
from repro.baselines.naive_grid import naive_nn_search, naive_strategy_search
from repro.baselines.sea import SeaCnnMonitor
from repro.baselines.ypk import YpkCnnMonitor
from repro.core.cpm import CPMMonitor
from repro.core.metrics_ext import MinkowskiNNStrategy
from repro.core.partition import ConceptualPartition
from repro.core.range_monitor import GridRangeMonitor
from repro.core.strategies import (
    AggregateNNStrategy,
    ConstrainedStrategy,
    FilteredStrategy,
    PointNNStrategy,
    QueryStrategy,
)
from repro.engine.metrics import CycleMetrics, RunReport
from repro.geometry.aggregates import adist
from repro.geometry.points import dist
from repro.geometry.rects import Rect
from repro.grid.grid import Grid
from repro.ingest import (
    GeneratorFeed,
    IngestBuffer,
    IngestDriver,
    JsonlTraceFeed,
    SocketFeed,
    UpdateFeed,
    WorkloadFeed,
)
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.network import RoadNetwork, grid_network, random_geometric_network
from repro.mobility.uniform import UniformGenerator
from repro.mobility.workload import Workload, WorkloadSpec
from repro.monitor import ContinuousMonitor
from repro.service.deltas import ResultDelta, diff_results
from repro.service.partition import PartitionedMonitor, ShardPlan
from repro.service.service import MonitoringService
from repro.service.subscriptions import (
    FanoutQueue,
    SlowConsumerPolicy,
    SubscriptionHub,
)
from repro.updates import (
    FlatUpdateBatch,
    ObjectUpdate,
    QueryUpdate,
    QueryUpdateKind,
    UpdateBatch,
    appear_update,
    disappear_update,
    move_update,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateNNStrategy",
    "BrinkhoffGenerator",
    "BruteForceMonitor",
    "CPMMonitor",
    "Client",
    "ConceptualPartition",
    "ConstrainedKnnSpec",
    "ConstrainedStrategy",
    "ContinuousMonitor",
    "CycleMetrics",
    "FanoutQueue",
    "FilteredKnnSpec",
    "FilteredStrategy",
    "FlatUpdateBatch",
    "GeneratorFeed",
    "Grid",
    "GridRangeMonitor",
    "IngestBuffer",
    "IngestDriver",
    "JsonlTraceFeed",
    "KnnSpec",
    "MinkowskiNNStrategy",
    "MonitorSocketServer",
    "MonitoringService",
    "ObjectUpdate",
    "PartitionedMonitor",
    "PointNNStrategy",
    "QueryHandle",
    "QueryStrategy",
    "QueryUpdate",
    "QueryUpdateKind",
    "RangeSpec",
    "Rect",
    "ResultDelta",
    "RoadNetwork",
    "RunReport",
    "SeaCnnMonitor",
    "Session",
    "ShardPlan",
    "SlowConsumerPolicy",
    "SocketFeed",
    "SubscriptionHub",
    "UniformGenerator",
    "UpdateBatch",
    "UpdateFeed",
    "Workload",
    "WorkloadFeed",
    "WorkloadSpec",
    "YpkCnnMonitor",
    "adist",
    "analysis_model",
    "appear_update",
    "diff_results",
    "disappear_update",
    "dist",
    "grid_network",
    "move_update",
    "naive_nn_search",
    "naive_strategy_search",
    "random_geometric_network",
    "replay_workload",
]
