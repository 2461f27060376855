"""Durable JSONL result store for campaign runs.

One line per completed run, appended as soon as the run's record is
available and flushed to disk immediately — an interrupted campaign loses
at most the line being written.  Records are plain JSON objects carrying
the run's full configuration (including its :meth:`RunSpec.fingerprint`)
next to its measured results, so the store is self-describing: resuming
needs no side state beyond the file, and reports can group by any factor
column straight off the records.

A torn trailing line (the classic crash artefact) is tolerated on load and
simply re-run on resume; corruption anywhere else raises, because silently
dropping completed results would make reports lie.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..exceptions import ReproError

#: Record fields that legitimately differ between two executions of the
#: same RunSpec (wall-clock and resource measurements, worker identity
#: and — under injected faults — how many attempts a run took).
#: Everything else must be bit-identical regardless of worker count —
#: the determinism tests strip exactly these keys before comparing.
#: ``events`` is deliberately *not* here: the simulator event count is a
#: pure function of the spec, so determinism checks cover it.
TIMING_FIELDS = ("wall_clock_s", "worker_pid", "attempts",
                 "rss_peak_bytes", "cpu_user_s", "cpu_sys_s", "events_per_s")

#: Run completed and produced a full result record.
STATUS_OK = "ok"
#: Run raised an exception on every attempt; record carries the error.
STATUS_FAILED = "failed"
#: Run exceeded its per-run timeout.
STATUS_TIMEOUT = "timeout"
#: The worker process executing the run died (crash / kill -9 / OOM).
STATUS_WORKER_LOST = "worker_lost"

#: Statuses that count as "needs re-running" on resume.
FAILURE_STATUSES = frozenset({STATUS_FAILED, STATUS_TIMEOUT,
                              STATUS_WORKER_LOST})

#: Fields every well-formed record must carry (results or failure alike).
REQUIRED_RECORD_FIELDS = ("run_id", "fingerprint", "campaign", "scenario",
                          "variant")


class StoreError(ReproError):
    """A result store file is unreadable or corrupt."""


def record_is_ok(record: Dict) -> bool:
    """Whether a record represents a completed (non-failed) run.

    Records written before failure tracking carry no ``status`` field and
    are all completed runs, so a missing status counts as ok.
    """
    return record.get("status", STATUS_OK) == STATUS_OK


def strip_timing(record: Dict) -> Dict:
    """A copy of ``record`` without the execution-timing fields."""
    return {key: value for key, value in record.items()
            if key not in TIMING_FIELDS}


def encode_record(record: Dict) -> str:
    """The record's canonical store line (without the trailing newline).

    This is the *single* encoding used everywhere a record meets disk —
    :meth:`ResultStore.append` delegates here, and warm-engine workers
    pre-encode their rows with it so the parent can append the bytes
    verbatim and a parallel store stays byte-identical to a serial one.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """Append-only JSONL store of one record per completed run."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, record: Dict) -> None:
        """Append one record and flush it to disk.

        If the file ends in a torn line (interrupted previous append), the
        torn bytes are truncated first — appending after them would merge
        two records into one unparseable interior line.
        """
        self.append_line(encode_record(record))

    def append_line(self, line: str) -> None:
        """Append one pre-encoded canonical record line (and flush).

        The warm-engine fast path: workers encode records with
        :func:`encode_record` once, and the parent appends the line
        without re-serialising.  The caller is responsible for the line
        being one complete canonical JSON record without a newline.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._truncate_torn_tail()
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def _truncate_torn_tail(self) -> None:
        """Drop trailing bytes after the last newline (a torn append).

        One exception: a trailing line that is complete JSON and only
        lost its newline (the truncation landed exactly on the closing
        brace) is a record ``load`` already counts — resume skips its
        spec — so it is finished with a newline, not thrown away.
        """
        if not self.path.exists():
            return
        with self.path.open("rb+") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            # Scan backwards in chunks for the last newline.
            keep = 0
            position = size
            while position > 0:
                chunk_size = min(4096, position)
                position -= chunk_size
                handle.seek(position)
                chunk = handle.read(chunk_size)
                newline = chunk.rfind(b"\n")
                if newline != -1:
                    keep = position + newline + 1
                    break
            handle.seek(keep)
            tail = handle.read(size - keep)
            try:
                json.loads(tail.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                handle.truncate(keep)
            else:
                handle.seek(0, 2)
                handle.write(b"\n")

    def _iter_positioned_lines(self) -> Iterator[Tuple[Tuple[int, int, bytes], bool]]:
        """Stream ``((line_no, offset, raw), is_last)`` without buffering.

        ``line_no`` is 1-based, ``offset`` is where the line starts in the
        file — the coordinates corruption diagnostics report so a bad
        record can be located with ``dd``/``sed`` directly.  Trailing blank
        lines are dropped, interior ones are surfaced; at most one record
        line is held in memory, so multi-gigabyte stores stream.
        ``is_last`` marks the final surfaced line (the only position where
        a torn record is tolerated).
        """
        if not self.path.exists():
            return
        hold: Optional[Tuple[int, int, bytes]] = None
        blanks: List[Tuple[int, int, bytes]] = []
        offset = 0
        with self.path.open("rb") as handle:
            for index, raw in enumerate(handle):
                item = (index + 1, offset, raw.rstrip(b"\r\n"))
                offset += len(raw)
                if not item[2].strip():
                    blanks.append(item)
                    continue
                if hold is not None:
                    yield hold, False
                for blank in blanks:
                    yield blank, False
                blanks = []
                hold = item
        if hold is not None:
            yield hold, True

    def iter_records(self) -> Iterator[Dict]:
        """Stream records in append order, holding one line at a time.

        Same tolerance contract as :meth:`load`: an unparseable *final*
        line is dropped (interrupted append), an unparseable line anywhere
        else raises :class:`StoreError` with its 1-based line number and
        byte offset.  This is what report streaming consumes — a store of
        millions of records never materialises as a list.
        """
        for (line_no, byte_offset, raw), is_last in self._iter_positioned_lines():
            try:
                yield json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if is_last:
                    return  # torn tail from an interrupt; resume re-runs it
                raise StoreError(
                    f"{self.path}: corrupt record on line {line_no} "
                    f"(byte offset {byte_offset}): {exc}"
                ) from exc

    def iter_effective_records(self) -> Iterator[Dict]:
        """Stream records with re-runs deduplicated (last record wins).

        Two passes over the file: the first builds a fingerprint ->
        last-position index (ints only — memory is O(distinct runs), not
        O(file)), the second yields exactly the surviving records in
        append order.  The result is a snapshot of the records the first
        pass counted: records a running campaign appends between the
        passes are left for the next read.  This is what reports should
        aggregate — running a campaign twice into the same store must not
        double its counts.
        """
        last_index: Dict[str, int] = {}
        count = 0
        for record in self.iter_records():
            fingerprint = record.get("fingerprint")
            if fingerprint is not None:
                last_index[fingerprint] = count
            count += 1
        for index, record in enumerate(islice(self.iter_records(), count)):
            fingerprint = record.get("fingerprint")
            if fingerprint is None or last_index[fingerprint] == index:
                yield record

    def load(self) -> List[Dict]:
        """All records in append order.

        An unparseable *final* line is dropped (interrupted append); an
        unparseable line anywhere else raises :class:`StoreError` naming
        the 1-based line number and the byte offset of the bad record.
        """
        return list(self.iter_records())

    def fingerprints(self) -> Set[str]:
        """Fingerprints of every run recorded in the store (any status)."""
        return {record["fingerprint"] for record in self.load()
                if "fingerprint" in record}

    def completed_fingerprints(self) -> Set[str]:
        """Fingerprints whose *latest* record completed successfully.

        This is what resume skips: a spec whose last attempt failed, timed
        out or lost its worker is re-run, while a failure superseded by a
        later successful record stays skipped.
        """
        return {fingerprint
                for fingerprint, record in self.latest_by_fingerprint().items()
                if record_is_ok(record)}

    def verify_records(self, expected_fingerprints:
                       Optional[Set[str]] = None) -> Dict:
        """Check every record's schema and fingerprint without running.

        Returns a summary dict: record/ok/failed counts and a list of
        human-readable issue strings (missing required fields, fingerprint
        mismatches against the record's own embedded config, corrupt
        lines).  ``expected_fingerprints`` (when given — e.g. a campaign's
        expanded run table) additionally reports coverage: how many
        expected runs the store is missing.
        """
        from .spec import RunSpec

        issues: List[str] = []
        records: List[Dict] = []
        for (line_no, offset, raw), is_last in self._iter_positioned_lines():
            try:
                records.append(json.loads(raw.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                label = "torn trailing line" if is_last else "corrupt record"
                issues.append(f"line {line_no} (byte offset {offset}): "
                              f"{label}: {exc}")
        ok = failed = 0
        for index, record in enumerate(records):
            where = f"record {index + 1}"
            missing = [key for key in REQUIRED_RECORD_FIELDS
                       if key not in record]
            if missing:
                issues.append(f"{where}: missing fields {missing}")
                continue
            if record_is_ok(record):
                ok += 1
            else:
                failed += 1
            try:
                spec = RunSpec.from_dict(record)
            except Exception as exc:  # malformed config columns
                issues.append(f"{where} ({record['run_id']}): "
                              f"unreadable config: {exc}")
                continue
            if spec.fingerprint() != record["fingerprint"]:
                issues.append(
                    f"{where} ({record['run_id']}): fingerprint mismatch: "
                    f"stored {record['fingerprint']} != computed "
                    f"{spec.fingerprint()}"
                )
        summary = {
            "path": str(self.path),
            "records": len(records),
            "ok": ok,
            "failed": failed,
            "issues": issues,
        }
        if expected_fingerprints is not None:
            present = {r.get("fingerprint") for r in records}
            missing_runs = expected_fingerprints - present
            summary["expected"] = len(expected_fingerprints)
            summary["missing"] = len(missing_runs)
        return summary

    def latest_by_fingerprint(self) -> Dict[str, Dict]:
        """Last record per fingerprint (re-runs overwrite logically)."""
        latest: Dict[str, Dict] = {}
        for record in self.load():
            fingerprint = record.get("fingerprint")
            if fingerprint is not None:
                latest[fingerprint] = record
        return latest

    def effective_records(self) -> List[Dict]:
        """:meth:`iter_effective_records` as a list."""
        return list(self.iter_effective_records())

    def clear(self) -> None:
        if self.path.exists():
            self.path.unlink()

    def __len__(self) -> int:
        return len(self.load())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.path)!r})"
