"""Stdlib HTTP front end for the job queue (``python -m repro.service``).

Zero-dependency by design (ISSUE 8): the endpoint shape follows the
familiar REST idiom, but the implementation is
:class:`http.server.ThreadingHTTPServer` — no framework, no install.

Endpoints:

* ``POST /v1/jobs`` — submit ``{"schema": ddl, "query": sql}`` plus
  optional ``"mode"`` (``"generate"``/``"evaluate"``), ``"deadline_s"``
  and ``"options"`` (:class:`repro.api.EvalOptions` fields).  Returns
  ``202`` with ``{"id", "state", "fingerprint"}``.
* ``GET /v1/jobs/{id}`` — full job status.
* ``GET /v1/jobs/{id}/result`` — the canonical result payload
  (``409`` while unfinished, ``404`` unknown); the ``X-Xdata-Cache``
  header says ``hit`` or ``miss``.
* ``DELETE /v1/jobs/{id}`` — cancel a still-pending job.
* ``GET /healthz`` — liveness.
* ``GET /metrics`` — Prometheus text exposition from
  :mod:`repro.obs.metrics`, including the service counters
  (``xdata_service_cache_{hits,misses}_total``, job outcomes,
  queue-depth gauge, latency histograms) and ``xdata_memo_*_total``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api import EvalOptions
from repro.service.cache import SuiteCache
from repro.service.jobs import JobQueue, JobRequest

__all__ = ["Service", "main"]

#: Request body cap; a classroom submission is a few KB of DDL + SQL.
_MAX_BODY = 4 * 1024 * 1024

#: Query text cap, in characters; a classroom query is a few hundred.
_MAX_QUERY = 16 * 1024


def _parse_options(raw: dict | None) -> EvalOptions | None:
    if not raw:
        return None
    allowed = {"include_full_outer", "backend", "cross_check"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown options keys: {sorted(unknown)}")
    return EvalOptions(**raw)


class _Handler(BaseHTTPRequestHandler):
    """One request; the queue lives on ``self.server.queue``."""

    server_version = "xdata-service/1"
    protocol_version = "HTTP/1.1"
    # Buffer each response and flush it once per request, so headers and
    # body leave in one write: written apart, a kept-alive client's
    # delayed ACK holds each response about 40 ms.  No Nagle either, so
    # a body larger than the buffer never waits for that ACK.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, code: int, body: bytes, content_type: str,
              extra: dict | None = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict,
                   extra: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(code, body, "application/json", extra)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0 or length > _MAX_BODY:
            self._error(400, "missing, malformed or oversized request body")
            return None
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    # -- routes --------------------------------------------------------

    def do_POST(self) -> None:
        if self.path != "/v1/jobs":
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            request = JobRequest(
                schema=body["schema"],
                query=body["query"],
                mode=body.get("mode", "generate"),
                options=_parse_options(body.get("options")),
                deadline_s=body.get("deadline_s"),
            )
        except KeyError as exc:
            self._error(400, f"missing required field {exc.args[0]!r}")
            return
        except (TypeError, ValueError) as exc:
            self._error(400, str(exc))
            return
        if not isinstance(request.schema, str) or not isinstance(request.query, str):
            self._error(400, "schema and query must be strings")
            return
        if len(request.query) > _MAX_QUERY:
            self._error(400, f"query longer than {_MAX_QUERY} characters")
            return
        try:
            job = self.server.queue.submit(request)
        except Exception as exc:
            self._error(400, f"{type(exc).__name__}: {exc}")
            return
        self._send_json(202, {
            "id": job.id,
            "state": job.state.value,
            "fingerprint": job.fingerprint,
        })

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
            return
        if self.path == "/metrics":
            from repro.obs.metrics import render_text

            body = render_text(self.server.queue.snapshot()).encode("utf-8")
            body = body or b"# no samples yet\n"
            self._send(200, body, "text/plain; version=0.0.4")
            return
        if self.path.startswith("/v1/jobs/"):
            rest = self.path[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                self._get_result(rest[: -len("/result")])
            else:
                self._get_status(rest)
            return
        self._error(404, f"no such endpoint: GET {self.path}")

    def do_DELETE(self) -> None:
        if not self.path.startswith("/v1/jobs/"):
            self._error(404, f"no such endpoint: DELETE {self.path}")
            return
        job_id = self.path[len("/v1/jobs/"):]
        if self.server.queue.get(job_id) is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        cancelled = self.server.queue.cancel(job_id)
        self._send_json(200, {"id": job_id, "cancelled": cancelled})

    def _get_status(self, job_id: str) -> None:
        job = self.server.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._send_json(200, job.status())

    def _get_result(self, job_id: str) -> None:
        job = self.server.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if job.result is None:
            self._error(409, f"job {job_id} is {job.state.value}, not done")
            return
        # The raw canonical bytes, verbatim: byte-identity across
        # fingerprint-equal submissions is part of the API contract.
        self._send(200, job.result, "application/json",
                   {"X-Xdata-Cache": "hit" if job.cached else "miss"})


class Service:
    """The HTTP server plus its queue, startable in-process or as a CLI.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    bound address after :meth:`start`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        *,
        workers: int = 1,
        cache: SuiteCache | None = None,
        cache_path: str | None = None,
        cache_bytes: int = 64 * 1024 * 1024,
        journal_path: str | None = None,
        verbose: bool = False,
    ) -> None:
        if cache is None:
            cache = SuiteCache(max_bytes=cache_bytes, path=cache_path)
        self.queue = JobQueue(
            workers=workers, cache=cache, journal_path=journal_path
        )
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.queue = self.queue
        self._server.verbose = verbose
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "Service":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="xdata-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self._server.serve_forever()

    def stop(self, drain_s: float = 0.0) -> dict | None:
        """Shut down: listener first, then the queue, then flush cache.

        With ``drain_s > 0`` the stop is *graceful*: after the listener
        closes (no new submissions can arrive), still-pending jobs are
        cancelled and RUNNING jobs get up to ``drain_s`` seconds to
        finish before the workers stop; the drain accounting dict is
        returned.  Either way the suite cache is compacted to its
        persistence file as the final step.
        """
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if drain_s > 0:
            drained = self.queue.shutdown(drain_s)
        else:
            self.queue.close()
            drained = None
        self.queue.cache.compact()
        return drained

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.service`` / ``xdata serve`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.service",
        description="Serve test-data generation over HTTP "
        "(POST /v1/jobs, GET /v1/jobs/{id}, /healthz, /metrics).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="job worker threads (default 2)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024,
        help="suite-cache byte budget (default 64 MiB)",
    )
    parser.add_argument(
        "--cache-path", default=None,
        help="JSON-lines file persisting the suite cache across restarts",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="per-job audit log (obs run-journal format)",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request")
    parser.add_argument(
        "--drain-s", type=float, default=5.0,
        help="graceful-shutdown budget: seconds to let RUNNING jobs "
        "finish after SIGINT/SIGTERM (default 5)",
    )
    args = parser.parse_args(argv)

    service = Service(
        args.host, args.port, workers=args.workers,
        cache_path=args.cache_path, cache_bytes=args.cache_bytes,
        journal_path=args.journal, verbose=args.verbose,
    )

    # SIGTERM gets the same graceful drain SIGINT (KeyboardInterrupt)
    # already had: raise out of serve_forever, drain in the finally.
    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    import signal

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    print(f"xdata service listening on {service.url}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        drained = service.stop(drain_s=args.drain_s)
        if drained is not None:
            print(
                f"xdata service stopped: {drained['cancelled']} pending "
                f"job(s) cancelled, {drained['abandoned']} abandoned"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
