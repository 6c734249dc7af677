"""Content-addressed suite cache: byte-budgeted LRU + JSONL persistence.

The cache stores *canonical payload bytes* — the serialized result of a
generation or evaluation job — under a content key derived from
:func:`repro.service.fingerprint.fingerprint`.  Because the key covers
everything that can change generator output, a hit may be served in
place of a solve with a byte-identity guarantee: ``tests/test_service.py``
asserts cached responses are bit-for-bit equal to cold ones.  It is the
only result memo of the service: the job queue keeps no solved suite.

Eviction is least-recently-used over a byte budget rather than an entry
count, because suites vary wildly in size (a three-table join suite with
input-database fixtures can be 100x a single-table one).  An optional
JSON-lines file persists entries across restarts; the format is
append-oriented (last write per key wins) so crash-interrupted writes
cost at most the trailing line.
"""

from __future__ import annotations

import json
import os

from repro.memo import CacheStats, Memo

__all__ = ["CacheStats", "SuiteCache", "canonical_bytes"]


def canonical_bytes(payload: dict) -> bytes:
    """Serialize a payload dict to canonical JSON bytes.

    Sorted keys and fixed separators make the encoding a pure function
    of the payload content, which is what lets the service promise
    byte-identical responses for fingerprint-equal requests.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


class SuiteCache(Memo):
    """Thread-safe byte-budgeted LRU over canonical payload bytes: a
    :class:`~repro.memo.Memo` sized by ``len``, plus persistence.

    Attributes:
        max_bytes: Eviction threshold; a single oversized entry is still
            admitted (the budget bounds *retained* neighbours, it is not
            an admission filter — rejecting would break the service's
            "second identical request is a hit" contract).
        path: Optional JSON-lines persistence file.  Existing entries
            are loaded eagerly (oldest first, so file order seeds LRU
            order; they count as stores) and every store appends one
            line.

    ``stats`` holds the counters ``/metrics`` reads.
    """

    def __init__(
        self,
        max_bytes: int = 64 * 1024 * 1024,
        path: str | os.PathLike | None = None,
    ) -> None:
        super().__init__(max_bytes, size=len)
        self.max_bytes = max_bytes
        self.path = path
        if path is not None and os.path.exists(path):
            self._load()

    def put(self, key: str, value: bytes) -> None:
        """Store ``value`` under ``key``, evicting LRU entries over budget."""
        if not isinstance(value, bytes):
            raise TypeError(f"cache values must be bytes, got {type(value)}")
        with self.lock:
            super().put(key, value)
            if self.path is not None:
                self._append(key, value)

    @property
    def total_bytes(self) -> int:
        return self.total

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _append(self, key: str, value: bytes) -> None:
        record = {"key": key, "payload": value.decode("utf-8")}
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def _load(self) -> None:
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing write; later lines can't exist
                key = record.get("key")
                payload = record.get("payload")
                if not isinstance(key, str) or not isinstance(payload, str):
                    continue
                # Last write wins, with fresh recency; not re-appended.
                Memo.put(self, key, payload.encode("utf-8"))

    def compact(self) -> None:
        """Rewrite the persistence file to one line per live entry.

        The append-only format grows with every store; compaction after
        a long run (or on graceful shutdown) reclaims superseded lines.
        No-op for purely in-memory caches.

        Crash-safe: the replacement is staged in a pid-unique temp file,
        fsynced, and atomically renamed over the original, so a process
        killed at any instant leaves either the old complete file or the
        new complete file — never a truncated one.  A failed staging
        write cleans up its temp file and leaves the original untouched.
        """
        if self.path is None:
            return
        with self.lock:
            tmp = f"{self.path}.tmp.{os.getpid()}"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    for key, value in self.items():
                        record = {
                            "key": key, "payload": value.decode("utf-8"),
                        }
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
