"""The counter gate: diff two bench files exactly.

``repro.perf compare old.json new.json`` matches cases by ``case_id`` and
compares every metric both sides carry.  Every metric is a count that is
deterministic for a fixed workload and seed, and every one is a cost, so
there is no threshold: any *increase* is a real algorithmic regression,
any *decrease* is listed as ``improved`` (the committed baseline is then
refreshed by hand).  The exit code is the contract:

* ``0`` — no counter grew and no baseline case disappeared;
* ``1`` — at least one counter grew, or a baseline case is missing from
  the new run;
* ``2`` — the files could not be compared at all (schema mismatch,
  different scale or suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.schema import BenchReport, SchemaError


@dataclass(slots=True)
class Delta:
    """One compared metric of one case."""

    case_id: str
    metric: str
    old: float
    new: float

    @property
    def regressed(self) -> bool:
        return self.new > self.old

    @property
    def improved(self) -> bool:
        return self.new < self.old


@dataclass(slots=True)
class Comparison:
    """Full result of one bench-file diff."""

    deltas: list[Delta]
    missing_cases: list[str]
    new_cases: list[str]

    @property
    def regressions(self) -> list[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing_cases


def compare_reports(old: BenchReport, new: BenchReport) -> Comparison:
    """Diff ``new`` against the ``old`` baseline.

    Raises :class:`SchemaError` when the two files measure different
    things (scale or suite mismatch) — comparing them would be a category
    error, not a regression.
    """
    if old.scale != new.scale:
        raise SchemaError(
            f"scale mismatch: baseline ran at {old.scale}, new run at {new.scale}"
        )
    if old.suite != new.suite:
        raise SchemaError(
            f"suite mismatch: baseline ran {old.suite!r}, new run {new.suite!r}"
        )
    new_by_id = {case.case_id: case for case in new.cases}
    deltas: list[Delta] = []
    missing: list[str] = []
    for old_case in old.cases:
        new_case = new_by_id.pop(old_case.case_id, None)
        if new_case is None:
            missing.append(old_case.case_id)
            continue
        for metric, old_value in old_case.metrics.items():
            if metric in new_case.metrics:
                deltas.append(
                    Delta(old_case.case_id, metric, old_value, new_case.metrics[metric])
                )
    return Comparison(
        deltas=deltas, missing_cases=missing, new_cases=sorted(new_by_id)
    )


def render_comparison(comparison: Comparison, *, verbose: bool = False) -> str:
    """Human-readable diff summary (regressions always listed)."""
    regressions = comparison.regressions
    improvements = [d for d in comparison.deltas if d.improved]
    lines = [
        f"compared {len(comparison.deltas)} metric pairs: "
        f"{len(regressions)} regression(s), {len(improvements)} improvement(s)"
    ]
    for delta in regressions:
        lines.append(
            f"  REGRESSION {delta.case_id} {delta.metric}: "
            f"{delta.old} -> {delta.new} ({delta.new - delta.old:+g})"
        )
    for case_id in comparison.missing_cases:
        lines.append(f"  MISSING baseline case disappeared: {case_id}")
    for case_id in comparison.new_cases:
        lines.append(f"  NEW case without baseline: {case_id}")
    for delta in comparison.deltas if verbose else improvements:
        if delta.regressed:
            continue
        lines.append(
            f"  {'improved' if delta.improved else 'ok':>8} "
            f"{delta.case_id} {delta.metric}: {delta.old} -> {delta.new}"
        )
    return "\n".join(lines)
