"""Generation-as-a-service (DESIGN.md §5h).

The service layer turns the pipeline into a shared facility for
course-scale grading bursts (Chandra et al., PAPERS.md): many users
submitting near-identical queries, where most solver work is redundant
across submissions.  Four pieces, each usable on its own:

* :mod:`repro.service.fingerprint` — canonical content-addressing of
  ``(schema, query, config)`` so equivalent spellings of one submission
  collide on a single cache key;
* :mod:`repro.service.cache` — a content-addressed suite cache
  (byte-budgeted LRU with optional JSON-lines disk persistence), the
  only place the service remembers a result;
* :mod:`repro.service.jobs` — an async job queue (PENDING → RUNNING →
  DONE/FAILED/CANCELLED) with per-job deadlines and single-flight
  deduplication, solving each cache miss with one generator run;
* :mod:`repro.service.server` — a zero-dependency stdlib HTTP front end
  (``python -m repro.service``) exposing ``POST /v1/jobs``,
  ``GET /v1/jobs/{id}``, ``GET /v1/jobs/{id}/result``, ``DELETE
  /v1/jobs/{id}``, ``GET /healthz`` and ``GET /metrics``.
"""

from repro.service.cache import SuiteCache
from repro.service.fingerprint import (
    canonical_config,
    canonical_query,
    canonical_schema,
    fingerprint,
)
from repro.service.jobs import Job, JobQueue, JobRequest, JobState
from repro.service.server import Service

__all__ = [
    "SuiteCache",
    "canonical_config",
    "canonical_query",
    "canonical_schema",
    "fingerprint",
    "Job",
    "JobQueue",
    "JobRequest",
    "JobState",
    "Service",
]
