"""Aggregate campaign result stores into grouped summary tables.

Takes the flat JSONL records a
:class:`~repro.campaign.store.ResultStore` holds and folds them into rows
grouped by any subset of the campaign factors (scenario, variant,
pifo_backend, lang_backend, load_scale, replicate): run counts, delivery
and drop totals, packet-delay means and flow-completion-time statistics.
The rows render with :func:`~repro.reporting.tables.render_table`, so the
CLI's ``repro campaign report`` output matches the rest of the report
suite.

Aggregation is a single streaming pass: records may come from any
iterable — a list or
:meth:`~repro.campaign.store.ResultStore.iter_effective_records` — and
memory stays proportional to the number of *groups*, not records, so a
store with hundreds of thousands of rows summarises without being loaded
wholesale.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

GROUPABLE_KEYS = (
    "campaign",
    "scenario",
    "variant",
    "pifo_backend",
    "lang_backend",
    "load_scale",
    "replicate",
    "quick",
)

DEFAULT_GROUP_BY = ("scenario", "variant")

#: Metric columns averaged across a group's healthy runs (store field,
#: output column, scale factor).
_MEAN_METRICS = (
    ("mean_delay", "mean_delay_ms", 1e3),
    ("fct_mean", "fct_mean_ms", 1e3),
    ("fct_p99", "fct_p99_ms", 1e3),
    ("wall_clock_s", "wall_clock_s", 1.0),
    ("cpu_user_s", "cpu_user_s", 1.0),
    ("events_per_s", "events_per_s", 1.0),
)

#: Count columns summed across a group's healthy runs.
_SUM_METRICS = ("delivered", "dropped", "lost_to_faults")


class _GroupAccumulator:
    """Running aggregates for one factor-level combination.

    Holds sums/counts/maxima only — O(1) per group however many records
    stream through it.
    """

    __slots__ = ("runs", "failed", "sums", "mean_sums", "mean_counts",
                 "max_delay", "rss_peak")

    def __init__(self) -> None:
        self.runs = 0
        self.failed = 0
        self.sums = {name: 0 for name in _SUM_METRICS}
        self.mean_sums = {name: 0.0 for name, _, _ in _MEAN_METRICS}
        self.mean_counts = {name: 0 for name, _, _ in _MEAN_METRICS}
        self.max_delay: float | None = None
        self.rss_peak: float | None = None

    def add(self, record: Mapping, ok: bool) -> None:
        self.runs += 1
        if not ok:
            # Failure records (failed / timeout / worker_lost) count into
            # ``failed`` but contribute to no metric — a crashed run has no
            # delivery totals, and letting its zeros into the means would
            # skew the healthy statistics.
            self.failed += 1
            return
        for name in _SUM_METRICS:
            self.sums[name] += record.get(name, 0)
        for name, _, _ in _MEAN_METRICS:
            value = record.get(name)
            if value is not None:
                self.mean_sums[name] += value
                self.mean_counts[name] += 1
        value = record.get("max_delay")
        if value is not None:
            self.max_delay = (value if self.max_delay is None
                              else max(self.max_delay, value))
        value = record.get("rss_peak_bytes")
        if value is not None:
            self.rss_peak = (value if self.rss_peak is None
                             else max(self.rss_peak, value))

    def row(self, group_by: Tuple[str, ...], group_key: Tuple) -> Dict:
        row: Dict = {
            key: ("-" if value is None else value)
            for key, value in zip(group_by, group_key)
        }
        row["runs"] = self.runs
        row["failed"] = self.failed
        for name in _SUM_METRICS:
            row[name] = self.sums[name]
        metrics = {}
        for name, column, scale in _MEAN_METRICS:
            count = self.mean_counts[name]
            metrics[column] = (_scale(self.mean_sums[name] / count, scale)
                               if count else None)
        row["mean_delay_ms"] = metrics["mean_delay_ms"]
        row["max_delay_ms"] = _scale(self.max_delay, 1e3)
        row["fct_mean_ms"] = metrics["fct_mean_ms"]
        row["fct_p99_ms"] = metrics["fct_p99_ms"]
        row["wall_clock_s"] = metrics["wall_clock_s"]
        # Resource columns (PR 9): absent from pre-observability stores,
        # in which case they render as "-" like any other missing metric.
        row["cpu_user_s"] = metrics["cpu_user_s"]
        row["events_per_s"] = metrics["events_per_s"]
        row["rss_peak_mb"] = _scale(self.rss_peak, 1.0 / (1024 * 1024))
        return row


def summarize_records(
    records: Iterable[Mapping],
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
) -> List[Dict]:
    """Fold run records into one summary row per factor-level combination.

    ``records`` is any iterable (list or generator — the pass is single
    and streaming).  Metric columns are averaged *across runs* in the
    group (each run already aggregates its own packets/flows); counts are
    summed.  Rows come back sorted by the group key, so output order is
    stable no matter the store's append order.
    """
    from ..campaign.store import record_is_ok

    group_by = tuple(group_by)
    for key in group_by:
        if key not in GROUPABLE_KEYS:
            known = ", ".join(GROUPABLE_KEYS)
            raise ValueError(
                f"cannot group by {key!r}; groupable factors: {known}"
            )
    groups: Dict[Tuple, _GroupAccumulator] = {}
    for record in records:
        group_key = tuple(record.get(key) for key in group_by)
        accumulator = groups.get(group_key)
        if accumulator is None:
            accumulator = groups[group_key] = _GroupAccumulator()
        accumulator.add(record, record_is_ok(record))

    def sort_key(item):
        # Type-aware per-component ordering: numerics in numeric order,
        # then strings, with None last — so load_scale 2.0 sorts before
        # 10.0 and a None factor level (substrate default) trails the
        # named levels.
        return tuple(
            (part is None, isinstance(part, str), part if part is not None else 0)
            for part in item[0]
        )

    return [accumulator.row(group_by, group_key)
            for group_key, accumulator in sorted(groups.items(), key=sort_key)]


def _scale(value: float | None, factor: float) -> float | None:
    return None if value is None else value * factor


def campaign_report_text(
    records: Iterable[Mapping],
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    title: str = "Campaign summary",
) -> str:
    """Render grouped summary rows as an aligned text table."""
    from .tables import render_table

    rows = summarize_records(records, group_by=group_by)
    return render_table(rows, title=title)
