"""Shared experiment machinery.

Every figure driver follows the same recipe, factored here:

1. build a :class:`~repro.mobility.workload.WorkloadSpec` from the paper's
   defaults (Table 6.1), scaled down by a ``scale`` factor so the sweeps
   run in seconds on a laptop (``scale=1.0`` restores the paper's sizes);
2. materialize one workload per sweep point (same seed across algorithms);
3. replay it into each algorithm through the monitoring server;
4. collect ``(parameter, algorithm) -> summary`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.session import replay_workload
from repro.baselines.sea import SeaCnnMonitor
from repro.baselines.ypk import YpkCnnMonitor
from repro.core.cpm import CPMMonitor
from repro.engine.metrics import RunReport
from repro.mobility.brinkhoff import BrinkhoffGenerator
from repro.mobility.network import RoadNetwork, grid_network
from repro.mobility.workload import Workload, WorkloadSpec
from repro.monitor import ContinuousMonitor

#: default downscaling of the paper's experiment sizes (see EXPERIMENTS.md).
DEFAULT_SCALE = 0.05

#: paper defaults from Table 6.1.
PAPER_DEFAULTS = WorkloadSpec(
    n_objects=100_000,
    n_queries=5_000,
    k=16,
    object_speed="medium",
    query_speed="medium",
    object_agility=0.5,
    query_agility=0.3,
    timestamps=100,
    seed=2005,
)

#: paper default grid granularity (cells per axis).
DEFAULT_GRID = 128

#: the monitoring algorithms by report name.
_ENGINES = {"CPM": CPMMonitor, "YPK-CNN": YpkCnnMonitor, "SEA-CNN": SeaCnnMonitor}

ALGORITHMS = tuple(_ENGINES)


def scaled_spec(scale: float = DEFAULT_SCALE, **overrides) -> WorkloadSpec:
    """Table 6.1 defaults with populations and length scaled by ``scale``.

    ``n_objects`` and ``n_queries`` scale linearly; the simulation length
    scales with ``sqrt(scale)`` (clamped to at least 5 timestamps) so runs
    stay representative without dominating wall-clock time.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    spec = PAPER_DEFAULTS.replace(
        n_objects=max(200, round(PAPER_DEFAULTS.n_objects * scale)),
        n_queries=max(5, round(PAPER_DEFAULTS.n_queries * scale)),
        timestamps=max(5, round(PAPER_DEFAULTS.timestamps * scale**0.5)),
    )
    return spec.replace(**overrides)


def scaled_grid(scale: float, base: int = DEFAULT_GRID) -> int:
    """Grid granularity adjusted to the scaled population.

    The analysis (Section 4.1) ties the best ``delta`` to the object
    density; when the population shrinks by ``scale`` the cell count per
    axis should shrink by ``sqrt(scale)`` to keep objects-per-cell
    constant.  Rounded to the nearest power of two, min 16.
    """
    target = base * scale**0.5
    grid = 16
    # Round to the nearest power of two (ratio test), floor 16.
    while grid * 2 <= target * 2**0.5:
        grid *= 2
    return grid


def make_workload(spec: WorkloadSpec, network: RoadNetwork | None = None) -> Workload:
    """Materialize a Brinkhoff-style workload for ``spec``."""
    if network is None:
        network = grid_network(16, 16, bounds=spec.rect, seed=spec.seed)
    return BrinkhoffGenerator(spec, network).generate()


def build_monitor(
    algorithm: str, cells_per_axis: int, bounds=(0.0, 0.0, 1.0, 1.0)
) -> ContinuousMonitor:
    """Instantiate a monitoring algorithm by name (one of ``ALGORITHMS``)."""
    engine = _ENGINES.get(algorithm)
    if engine is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return engine(cells_per_axis, bounds=bounds)


@dataclass(slots=True)
class SeriesPoint:
    """One (sweep value, algorithm) measurement."""

    parameter: str
    value: object
    algorithm: str
    report: RunReport

    @property
    def cpu_sec(self) -> float:
        return self.report.total_processing_sec

    @property
    def cell_accesses(self) -> float:
        return self.report.cell_accesses_per_query_per_timestamp


@dataclass(slots=True)
class ExperimentResult:
    """All measurements of one experiment (one paper figure)."""

    experiment: str
    title: str
    parameter: str
    points: list[SeriesPoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def algorithms(self) -> list[str]:
        seen: list[str] = []
        for p in self.points:
            if p.algorithm not in seen:
                seen.append(p.algorithm)
        return seen

    def values(self) -> list[object]:
        seen: list[object] = []
        for p in self.points:
            if p.value not in seen:
                seen.append(p.value)
        return seen

    def point(self, value: object, algorithm: str) -> SeriesPoint:
        for p in self.points:
            if p.value == value and p.algorithm == algorithm:
                return p
        raise KeyError(f"no point for ({value!r}, {algorithm!r})")

    def series(self, algorithm: str, metric: str = "cpu_sec") -> list[float]:
        """Metric values for one algorithm in sweep order."""
        return [
            getattr(self.point(value, algorithm), metric) for value in self.values()
        ]


def run_algorithms(
    workload: Workload,
    cells_per_axis: int,
    parameter: str,
    value: object,
    algorithms: tuple[str, ...] = ALGORITHMS,
) -> list[SeriesPoint]:
    """Replay one workload into each algorithm; one point per algorithm."""
    points = []
    for algorithm in algorithms:
        monitor = build_monitor(algorithm, cells_per_axis, bounds=workload.spec.bounds)
        report = replay_workload(monitor, workload)
        points.append(
            SeriesPoint(
                parameter=parameter, value=value, algorithm=algorithm, report=report
            )
        )
    return points
