"""Materialized, replayable workloads.

A :class:`Workload` bundles the initial object/query populations with the
full sequence of per-timestamp :class:`repro.updates.UpdateBatch` objects.
Materializing the stream once and replaying it into every monitor is what
makes the experimental comparison fair: CPM, YPK-CNN and SEA-CNN observe
byte-identical inputs (the paper runs all methods over the same generated
traces for the same reason).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.geometry.points import Point
from repro.geometry.rects import Rect
from repro.updates import FlatUpdateBatch, UpdateBatch

SpeedClass = Literal["slow", "medium", "fast"]


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Parameters of a workload, mirroring Table 6.1 of the paper.

    Attributes:
        n_objects: object population ``N`` (paper default 100K).
        n_queries: number of installed queries ``n`` (paper default 5K).
        k: neighbors monitored per query (paper default 16).
        object_speed: speed class of the objects (paper default medium).
        query_speed: speed class of the queries (paper default medium).
        object_agility: fraction ``f_obj`` of objects issuing a location
            update per timestamp (paper default 50%).
        query_agility: fraction ``f_qry`` of queries moving per timestamp
            (paper default 30%).
        timestamps: simulation length (paper default 100).
        seed: RNG seed; equal specs with equal seeds generate identical
            workloads.
        bounds: workspace rectangle (unit square).
    """

    n_objects: int = 1000
    n_queries: int = 10
    k: int = 16
    object_speed: SpeedClass = "medium"
    query_speed: SpeedClass = "medium"
    object_agility: float = 0.5
    query_agility: float = 0.3
    timestamps: int = 100
    seed: int = 7
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if self.n_objects < 1:
            raise ValueError("n_objects must be positive")
        if self.n_queries < 0:
            raise ValueError("n_queries may not be negative")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.object_agility <= 1.0:
            raise ValueError("object_agility must be within [0, 1]")
        if not 0.0 <= self.query_agility <= 1.0:
            raise ValueError("query_agility must be within [0, 1]")
        if self.timestamps < 0:
            raise ValueError("timestamps may not be negative")

    @property
    def rect(self) -> Rect:
        return Rect(*self.bounds)

    def replace(self, **overrides) -> "WorkloadSpec":
        """Copy of the spec with some fields overridden (sweep helper)."""
        fields = {
            "n_objects": self.n_objects,
            "n_queries": self.n_queries,
            "k": self.k,
            "object_speed": self.object_speed,
            "query_speed": self.query_speed,
            "object_agility": self.object_agility,
            "query_agility": self.query_agility,
            "timestamps": self.timestamps,
            "seed": self.seed,
            "bounds": self.bounds,
        }
        fields.update(overrides)
        return WorkloadSpec(**fields)


@dataclass(slots=True)
class Workload:
    """A fully materialized update stream.

    Attributes:
        spec: the generating specification.
        initial_objects: object id -> starting position (timestamp 0).
        initial_queries: query id -> starting position.
        batches: one :class:`UpdateBatch` per timestamp, in order.
    """

    spec: WorkloadSpec
    initial_objects: dict[int, Point]
    initial_queries: dict[int, Point]
    batches: list[UpdateBatch] = field(default_factory=list)
    #: memoized columnar re-encoding (see :meth:`flat_batches`).
    _flat: list[FlatUpdateBatch] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_object_updates(self) -> int:
        return sum(len(b.object_updates) for b in self.batches)

    @property
    def total_query_updates(self) -> int:
        return sum(len(b.query_updates) for b in self.batches)

    def flat_batches(self) -> list[FlatUpdateBatch]:
        """The stream re-encoded columnar, one
        :class:`repro.updates.FlatUpdateBatch` per timestamp (lossless —
        see ``FlatUpdateBatch.from_batch``); the engines' native input and
        the offline-replay reference the ingestion tests compare against.

        Memoized: the replay loop (:meth:`repro.api.session.Session.replay`)
        drives every monitor through the columnar cycle, and converting
        once keeps repeated replays of one workload from re-paying the
        row-to-column transpose.  Callers must not
        mutate the returned batches.
        """
        if self._flat is None:
            self._flat = [FlatUpdateBatch.from_batch(b) for b in self.batches]
        return self._flat

    def validate(self) -> None:
        """Replay the stream against a shadow position table and verify that
        every update's ``old`` position matches reality.

        Guards the monitors' contract: ``ObjectUpdate.old`` must be the
        exact previously reported location (the grid deletes by position).
        """
        positions = dict(self.initial_objects)
        for batch in self.batches:
            seen: set[int] = set()
            for upd in batch.object_updates:
                if upd.oid in seen:
                    raise AssertionError(
                        f"object {upd.oid} updated twice at t={batch.timestamp}"
                    )
                seen.add(upd.oid)
                if upd.old is None:
                    if upd.oid in positions:
                        raise AssertionError(
                            f"object {upd.oid} appeared while on-line at "
                            f"t={batch.timestamp}"
                        )
                else:
                    actual = positions.get(upd.oid)
                    if actual != upd.old:
                        raise AssertionError(
                            f"object {upd.oid} old position mismatch at "
                            f"t={batch.timestamp}: {upd.old} != {actual}"
                        )
                if upd.new is None:
                    positions.pop(upd.oid, None)
                else:
                    positions[upd.oid] = upd.new
