"""Live campaign status: sidecar progress files and their readers.

A progress file is a small JSON document written next to the result
store (``<store>.progress``).  Writers publish with the write-to-temp
then ``os.replace`` idiom, so readers never observe a half-written
document; if an interrupted writer does leave garbage (or the file does
not exist yet), :func:`read_progress` returns ``None`` instead of
raising — status polling must never kill a campaign.

The run rate is an exponential moving average over completed runs
(``EMA_ALPHA`` weights the newest inter-completion interval), which
tracks warm-up (first runs pay kernel compiles) far better than a
global mean; the ETA is simply ``remaining / rate``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

__all__ = ["ProgressWriter", "read_progress", "progress_path_for"]

#: EMA weight for the newest per-run rate sample.
EMA_ALPHA = 0.3

#: Minimum seconds between sidecar rewrites (finish always flushes).
MIN_WRITE_INTERVAL_S = 0.2


def progress_path_for(store_path: str) -> str:
    """Sidecar path for a result store: ``<store>.progress``."""
    return f"{store_path}.progress"


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def read_progress(path: str) -> Optional[Dict[str, Any]]:
    """Parse a progress file; ``None`` on missing/torn/invalid content."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class ProgressWriter:
    """Throttled heartbeat writer for one campaign execution.

    Call :meth:`record_run` after every committed record,
    :meth:`heartbeat` from the engine's idle loop (keeps ``updated_at``
    and ``in_flight`` fresh while long runs are in flight), and
    :meth:`finish` exactly once at the end.
    """

    def __init__(self, path: str, campaign: str, total: int,
                 workers: int = 1, time_fn=time.time) -> None:
        self.path = path
        self.campaign = campaign
        self.total = total
        self.workers = workers
        self._time = time_fn
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.in_flight = 0
        self._rate_ema = 0.0  # runs per second
        self._started = time_fn()
        self._last_done_at = self._started
        self._last_write = 0.0
        self.state = "running"
        self.write(force=True)

    # -- updates --------------------------------------------------------------
    def record_run(self, ok: bool) -> None:
        now = self._time()
        self.done += 1
        if ok:
            self.ok += 1
        else:
            self.failed += 1
        interval = now - self._last_done_at
        self._last_done_at = now
        if interval > 0:
            sample = 1.0 / interval
            self._rate_ema = (sample if self._rate_ema == 0.0 else
                              EMA_ALPHA * sample
                              + (1.0 - EMA_ALPHA) * self._rate_ema)
        self.write()

    def heartbeat(self, in_flight: int) -> None:
        self.in_flight = in_flight
        self.write()

    def finish(self, state: str = "done") -> None:
        self.state = state
        self.in_flight = 0
        self.write(force=True)

    # -- serialisation --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        now = self._time()
        remaining = max(0, self.total - self.done)
        eta_s = (remaining / self._rate_ema
                 if self._rate_ema > 0 and remaining else 0.0)
        return {
            "campaign": self.campaign,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "ok": self.ok,
            "failed": self.failed,
            "in_flight": self.in_flight,
            "workers": self.workers,
            "runs_per_s": round(self._rate_ema, 4),
            "eta_s": round(eta_s, 2),
            "started_at": self._started,
            "updated_at": now,
        }

    def write(self, force: bool = False) -> None:
        now = self._time()
        if not force and now - self._last_write < MIN_WRITE_INTERVAL_S:
            return
        self._last_write = now
        try:
            _atomic_write_json(self.path, self.snapshot())
        except OSError:
            pass  # progress is best-effort; never fail the campaign
