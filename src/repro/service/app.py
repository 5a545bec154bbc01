"""The compression service: asyncio server + dispatcher + ops surface.

Architecture (one process, one event loop)::

    clients --- HTTP/1.1 ---> _handle ----> JobQueue (bounded, priority)
                                |                |
            /healthz /readyz /metrics      dispatcher loops (N)
                                                 |  micro-batching
                                          Executor (warm pool + arena)
                                                 |
                                     ledger + drift + service.* metrics

Requests are parsed by :mod:`repro.service.http`, validated into
:class:`~repro.service.jobs.JobSpec`\\ s and **admitted** through the
bounded queue -- a full queue answers ``429`` with a ``Retry-After``
hint instead of queueing unbounded work.  ``N = n_workers`` dispatcher
coroutines pull jobs in priority order; single-field compress jobs
that share a batch key are micro-batched into one pool fan-out (one
dispatch for up to ``batch_max`` jobs, collected within
``batch_window_s``), which is where small-job throughput comes from.

Every terminal job updates the ``service.*`` metrics; successful runs
append a schema-3 ledger record with the same ``extra["conformance"]``
payload CLI runs write, so ``fpzc drift`` charts service traffic with
no special casing.  ``SIGTERM``/``SIGINT`` trigger a **drain**: the
readiness probe and admissions flip to 503 immediately, queued and
in-flight jobs get ``grace_s`` seconds to finish, then the process
exits 0.

The pool itself is a :class:`repro.parallel.executor.Executor` -- the
long-lived pool+arena context this PR introduced -- created with the
``spawn`` start method, because a serving process is multi-threaded by
the time it forks and forking such a process is unsafe.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import json
import signal
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

import repro.observe as observe
from repro.core.spec import CompressSpec, field_stats
from repro.errors import ParameterError, ReproError
from repro.resilience.retry import account_failure, classify_failure
from repro.service.http import (
    HttpError,
    Request,
    json_body,
    read_request,
    render_response,
)
from repro.service.jobs import Job, JobQueue, JobSpec
from repro.service.tasks import (
    compress_result,
    run_autotune_job,
    run_compress_job,
    run_sweep_job,
)

__all__ = ["ServiceConfig", "CompressionService", "run_service"]


@dataclass
class ServiceConfig:
    """Every capacity/behaviour knob in one place (see
    ``docs/SERVICE.md`` for tuning guidance)."""

    host: str = "127.0.0.1"
    port: int = 8077
    n_workers: int = 2
    kind: str = "process"          # process | thread | inline
    transport: str = "auto"
    queue_limit: int = 64
    batch_window_s: float = 0.005
    batch_max: int = 8
    grace_s: float = 10.0
    max_body_bytes: int = 16 * 1024 * 1024
    max_retries: int = 1
    backoff_base: float = 0.05
    retry_seed: int = 0
    ledger: Optional[str] = None
    no_ledger: bool = False
    keep_jobs: int = 512           # terminal jobs retained for GETs
    allow_faults: bool = False     # gate for test-only fault specs
    trace_perfetto: Optional[str] = None
    cache_dir: Optional[str] = None      # None = blob cache disabled
    cache_max_bytes: Optional[int] = None

    def validate(self) -> None:
        if self.n_workers < 0:
            raise ParameterError("n_workers must be >= 0")
        if self.queue_limit < 1:
            raise ParameterError("queue_limit must be >= 1")
        if self.batch_max < 1:
            raise ParameterError("batch_max must be >= 1")
        if self.grace_s < 0:
            raise ParameterError("grace_s must be >= 0")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ParameterError("cache_max_bytes must be >= 1")


def _service_metrics():
    """The ``service.*`` metric family.

    Job counts are deterministic for a given request sequence; queue
    depth, latencies and batch sizes depend on wall-clock scheduling
    and stay out of deterministic snapshots (same split the resilience
    counters use).
    """
    from repro.telemetry.registry import DEFAULT_BUCKETS, metrics

    reg = metrics()
    return {
        "requests": reg.counter(
            "service.requests_total", help="HTTP requests handled"
        ),
        "submitted": reg.counter(
            "service.jobs_submitted_total", help="jobs admitted to the queue"
        ),
        "rejected": reg.counter(
            "service.jobs_rejected_total",
            help="jobs refused at admission (queue full -> 429)",
        ),
        "completed": reg.counter(
            "service.jobs_completed_total", help="jobs that finished ok"
        ),
        "failed": reg.counter(
            "service.jobs_failed_total",
            help="jobs that exhausted their retry budget",
        ),
        "cancelled": reg.counter(
            "service.jobs_cancelled_total", help="jobs cancelled by clients"
        ),
        "deduped": reg.counter(
            "service.jobs_deduped_total",
            help="compress jobs coalesced onto an identical in-flight job",
            deterministic=False,
        ),
        "timeouts": reg.counter(
            "service.jobs_timeout_total",
            help="jobs that exceeded their deadline",
            deterministic=False,
        ),
        "depth": reg.gauge(
            "service.queue_depth",
            help="live jobs waiting in the queue",
            deterministic=False,
        ),
        "inflight": reg.gauge(
            "service.jobs_inflight",
            help="jobs currently executing",
            deterministic=False,
        ),
        "batch": reg.histogram(
            "service.batch_size",
            buckets=(1, 2, 4, 8, 16, 32),
            help="jobs dispatched per pool fan-out",
            deterministic=False,
        ),
        "queue_s": reg.histogram(
            "service.queue_seconds",
            buckets=DEFAULT_BUCKETS,
            help="submission-to-dispatch latency",
            deterministic=False,
        ),
        "job_s": reg.histogram(
            "service.job_seconds",
            buckets=DEFAULT_BUCKETS,
            help="dispatch-to-terminal latency",
            deterministic=False,
        ),
    }


class CompressionService:
    """One serving process; see the module docstring for the shape."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        from repro.parallel.executor import (
            Executor,
            _resilience_counters,
        )
        from repro.resilience.retry import RetryPolicy
        from repro.telemetry.ledger import git_rev

        self.config = config or ServiceConfig()
        self.config.validate()
        self.executor = Executor(
            n_workers=self.config.n_workers,
            transport=self.config.transport,
            kind=self.config.kind,
            start_method=(
                "spawn" if self.config.kind == "process" else None
            ),
        )
        self.queue = JobQueue(limit=self.config.queue_limit)
        self.jobs: Dict[str, Job] = {}
        self.metrics = _service_metrics()
        self.resilience = _resilience_counters()
        self.retry_policy = RetryPolicy(
            max_retries=self.config.max_retries,
            backoff_base=self.config.backoff_base,
            seed=self.config.retry_seed,
        )
        self.trace = (
            observe.Trace() if self.config.trace_perfetto else None
        )
        self.cache = None
        if self.config.cache_dir:
            from repro.cache import CacheStore

            self.cache = CacheStore(
                root=self.config.cache_dir,
                max_bytes=self.config.cache_max_bytes,
            )
        # cache key -> followers of the in-flight primary job with that
        # key; resolved when the primary reaches a terminal state.
        self._inflight_keys: Dict[str, List[Job]] = {}
        self._git_rev = git_rev()
        self._ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatchers: List[asyncio.Task] = []
        self._accepting = False
        self._draining = False
        self._stopped = asyncio.Event()
        self._wake = asyncio.Event()
        self._cancel_events: Dict[str, asyncio.Event] = {}
        self._inflight = 0
        self._started_monotonic = time.monotonic()

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the socket and start the dispatcher loops."""
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        n_loops = max(1, self.config.n_workers)
        self._dispatchers = [
            asyncio.get_running_loop().create_task(self._dispatch_loop())
            for _ in range(n_loops)
        ]
        self._accepting = True

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until a signal (or :meth:`shutdown`) drains the service."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig,
                        lambda: asyncio.ensure_future(self.shutdown()),
                    )
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread / platform without support
        await self._stopped.wait()

    async def shutdown(self, grace: Optional[float] = None) -> None:
        """Drain: refuse new work immediately, let queued + in-flight
        jobs finish within the grace window, then stop."""
        if self._draining:
            return
        self._draining = True
        self._accepting = False
        self._wake.set()
        grace = self.config.grace_s if grace is None else grace
        deadline = time.monotonic() + grace
        # ``_inflight`` counts jobs from the moment a dispatcher pops
        # them, so a batch still gathering inside its window keeps the
        # drain waiting.
        while (len(self.queue) or self._inflight) and (
            time.monotonic() < deadline
        ):
            await asyncio.sleep(0.01)
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.trace is not None:
            from repro.telemetry.export import write_chrome_trace
            from repro.telemetry.registry import metrics as _reg

            write_chrome_trace(
                self.trace,
                self.config.trace_perfetto,
                snapshot=_reg().snapshot(),
            )
        self.executor.close()
        self._stopped.set()

    # -- HTTP -----------------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        t0 = time.perf_counter()
        route = "?"
        try:
            try:
                request = await read_request(
                    reader, max_body=self.config.max_body_bytes
                )
            except HttpError as exc:
                writer.write(
                    render_response(
                        exc.status,
                        json.dumps({"error": exc.message}).encode(),
                    )
                )
                return
            if request is None:
                return
            route = f"{request.method} {request.path}"
            self.metrics["requests"].inc()
            try:
                payload = await self._route(request)
            except HttpError as exc:
                payload = (
                    exc.status,
                    json.dumps({"error": exc.message}).encode(),
                    "application/json",
                    (),
                )
            except ReproError as exc:
                payload = (
                    400,
                    json.dumps({"error": str(exc)}).encode(),
                    "application/json",
                    (),
                )
            except Exception as exc:  # noqa: BLE001 -- last-resort 500
                payload = (
                    500,
                    json.dumps(
                        {"error": f"{type(exc).__name__}: {exc}"}
                    ).encode(),
                    "application/json",
                    (),
                )
            status, body, ctype, extra = payload
            writer.write(render_response(status, body, ctype, extra))
        finally:
            self._record_request_span(route, time.perf_counter() - t0)
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _record_request_span(self, route: str, duration_s: float) -> None:
        """Hand-built span record: async handlers interleave on one
        thread, so the synchronous span *stack* cannot be used here."""
        if self.trace is None:
            return
        import os
        import threading

        self.trace.merge(
            [
                {
                    "path": ["service.request", route],
                    "seq": 0,
                    "duration_s": duration_s,
                    "counters": {"requests": 1},
                    "gauges": {},
                    "t_start": time.perf_counter() - duration_s,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                }
            ]
        )

    async def _route(
        self, request: Request
    ) -> Tuple[int, bytes, str, Tuple]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return self._json(200, {"ok": True, "draining": self._draining})
        if path == "/readyz" and method == "GET":
            if self._accepting:
                return self._json(200, {"ready": True})
            return self._json(503, {"ready": False, "draining": True})
        if path == "/metrics" and method == "GET":
            return self._metrics_response(request)
        if path == "/v1/jobs" and method == "GET":
            docs = [
                j.as_dict(include_result=False)
                for j in self.jobs.values()
            ]
            return self._json(200, {"jobs": docs})
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            blob = False
            if job_id.endswith("/blob"):
                job_id, blob = job_id[: -len("/blob")], True
            job = self.jobs.get(job_id)
            if job is None:
                raise HttpError(404, f"no such job: {job_id}")
            if method == "GET" and blob:
                return self._blob_response(job)
            if method == "GET":
                doc = job.as_dict()
                if (
                    request.query.get("blob") == "base64"
                    and job.blob is not None
                ):
                    doc["blob_base64"] = base64.b64encode(
                        job.blob
                    ).decode("ascii")
                return self._json(200, doc)
            if method == "DELETE":
                return self._cancel(job)
            raise HttpError(405, f"{method} not allowed here")
        if path.startswith("/v1/") and method == "POST":
            kind = path[len("/v1/"):]
            return self._submit(kind, request)
        raise HttpError(404, f"no route for {method} {path}")

    def _json(
        self, status: int, doc: Dict, extra: Tuple = ()
    ) -> Tuple[int, bytes, str, Tuple]:
        return (
            status,
            json.dumps(doc, sort_keys=True).encode(),
            "application/json",
            tuple(extra),
        )

    def _metrics_response(self, request: Request):
        from repro.report import render_metrics_json, render_prometheus
        from repro.telemetry.registry import metrics as _reg

        self.metrics["depth"].set(len(self.queue))
        self.metrics["inflight"].set(self._inflight)
        snap = _reg().snapshot()
        if request.query.get("format") == "json":
            return (
                200,
                render_metrics_json(snap).encode(),
                "application/json",
                (),
            )
        return (
            200,
            render_prometheus(snap).encode(),
            "text/plain; version=0.0.4",
            (),
        )

    def _blob_response(self, job: Job):
        if job.state != "done":
            raise HttpError(409, f"job is {job.state}, not done")
        if job.blob is None:
            raise HttpError(404, "job kept no blob (keep_blob=false)")
        return (200, job.blob, "application/octet-stream", ())

    def _cache_key(self, spec: JobSpec) -> Optional[str]:
        """The blob-cache key for a cacheable job, else ``None``.

        Closed-form compress jobs (psnr/nrmse/mse) are cached: their
        pipeline is deterministic in the spec, so the key fully pins
        the output bytes.  Ratio searches converge through
        history-dependent trajectories and stay uncached here.  The key
        is :meth:`repro.core.spec.CompressSpec.cache_key`, the one
        ``fpzc compress``/``sweep`` write, so CLI runs warm the service
        and vice versa.
        """
        if (
            self.cache is None
            or spec.kind != "compress"
            or spec.mode == "ratio"
            or spec.fault is not None
        ):
            return None
        stats = field_stats(spec.dataset, spec.field, spec.scale)
        if stats is None:
            return None
        return CompressSpec.from_json(spec.as_dict()).cache_key(stats.digest)

    def _submit(self, kind: str, request: Request):
        if not self._accepting:
            return self._json(
                503,
                {"error": "service is draining"},
                (("Retry-After", "1"),),
            )
        spec = JobSpec.from_payload(kind, json_body(request))
        if spec.fault is not None and not self.config.allow_faults:
            raise HttpError(
                400, "fault injection is disabled on this server"
            )
        spec.traced = self.trace is not None
        cache_key = self._cache_key(spec)
        if cache_key is not None:
            cspec = CompressSpec.from_json(spec.as_dict())
            entry = self.cache.get(cache_key)
            hit = None if entry is None else cspec.replay(entry)
            if hit is not None:
                # Admission-time hit: the job is born terminal and the
                # client gets the result in the submit response itself.
                job = Job(f"j{next(self._ids):06d}", spec)
                job.cache_key = cache_key
                self.jobs[job.id] = job
                self.metrics["submitted"].inc()
                self._finish_cached(job, cspec, hit)
                self._prune_jobs()
                return self._json(
                    200,
                    {"id": job.id, "state": job.state, "cached": True},
                )
            followers = self._inflight_keys.get(cache_key)
            if followers is not None:
                # An identical job is already queued or running: ride
                # it instead of recompressing the same bytes.
                job = Job(f"j{next(self._ids):06d}", spec)
                job.follower_of = cache_key
                self.jobs[job.id] = job
                followers.append(job)
                self.metrics["submitted"].inc()
                self.metrics["deduped"].inc()
                self._prune_jobs()
                return self._json(
                    202,
                    {"id": job.id, "state": job.state, "deduped": True},
                )
        job = Job(f"j{next(self._ids):06d}", spec)
        job.cache_key = cache_key
        if not self.queue.offer(job):
            self.metrics["rejected"].inc()
            # Hint: roughly how long the backlog needs to half-drain.
            return self._json(
                429,
                {
                    "error": "job queue is full",
                    "queue_depth": len(self.queue),
                },
                (("Retry-After", "1"),),
            )
        self.jobs[job.id] = job
        self._cancel_events[job.id] = asyncio.Event()
        if cache_key is not None:
            self._inflight_keys[cache_key] = []
        self.metrics["submitted"].inc()
        self.metrics["depth"].set(len(self.queue))
        self._wake.set()
        self._prune_jobs()
        return self._json(
            202, {"id": job.id, "state": job.state}
        )

    def _cancel(self, job: Job):
        if job.terminal:
            return self._json(200, {"id": job.id, "state": job.state})
        job.cancel_requested = True
        if job.state == "queued":
            job.finish("cancelled")
            # Followers were never admitted to the queue, so there is
            # no heap entry (or depth) to tombstone for them.
            if job.follower_of is None:
                self.queue.cancel_queued(job)
            self.metrics["cancelled"].inc()
            self.metrics["depth"].set(len(self.queue))
            self._resolve_followers(job)
        event = self._cancel_events.get(job.id)
        if event is not None:
            event.set()
        return self._json(200, {"id": job.id, "state": job.state})

    def _prune_jobs(self) -> None:
        """Cap the terminal-job history so a long-lived server does not
        accumulate every blob it ever produced."""
        excess = len(self.jobs) - max(
            self.config.keep_jobs, self.config.queue_limit * 2
        )
        if excess <= 0:
            return
        for job_id in [
            jid for jid, j in self.jobs.items() if j.terminal
        ][:excess]:
            self.jobs.pop(job_id, None)
            self._cancel_events.pop(job_id, None)

    # -- dispatcher -----------------------------------------------------

    async def _next_job(self) -> Optional[Job]:
        while True:
            job = self.queue.pop()
            if job is not None:
                self._claim()
                return job
            if self._draining:
                return None
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                pass

    async def _dispatch_loop(self) -> None:
        try:
            while True:
                job = await self._next_job()
                if job is None:
                    return
                batch = [job]
                key = job.spec.batch_key()
                if key is not None and self.config.batch_max > 1:
                    batch += await self._gather_batch(key)
                self.metrics["batch"].observe(len(batch))
                now = time.monotonic()
                for b in batch:
                    b.batched = len(batch)
                    self.metrics["queue_s"].observe(
                        max(0.0, now - b.submitted_at)
                    )
                await asyncio.gather(
                    *(self._run_job(b) for b in batch)
                )
        except asyncio.CancelledError:
            return

    async def _gather_batch(self, key) -> List[Job]:
        """Collect compatible queued compress jobs for one fan-out:
        whatever already waits plus whatever arrives inside the batch
        window, capped at ``batch_max``."""
        out: List[Job] = []
        deadline = time.monotonic() + self.config.batch_window_s
        while len(out) < self.config.batch_max - 1:
            nxt = self.queue.pop_matching(key)
            if nxt is not None:
                self._claim()
                out.append(nxt)
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            await asyncio.sleep(min(0.001, remaining))
        return out

    def _claim(self) -> None:
        """Count a job popped off the queue as in flight; its
        :meth:`_run_job` releases it."""
        self._inflight += 1
        self.metrics["inflight"].set(self._inflight)
        self.metrics["depth"].set(len(self.queue))

    async def _run_job(self, job: Job) -> None:
        t0 = time.monotonic()
        try:
            await self._execute(job)
        finally:
            self._inflight -= 1
            self.metrics["inflight"].set(self._inflight)
            self.metrics["job_s"].observe(time.monotonic() - t0)
            self._cancel_events.pop(job.id, None)
            self._resolve_followers(job)

    async def _execute(self, job: Job) -> None:
        if job.terminal:  # cancelled while queued, popped as tombstone
            return
        if job.expired():
            self._finish_timeout(job, queued_only=True)
            return
        if job.cancel_requested:
            job.finish("cancelled")
            self.metrics["cancelled"].inc()
            return
        job.state = "running"
        job.started_at = time.monotonic()
        rng = self.retry_policy.rng()
        cancel_event = self._cancel_events.get(job.id) or asyncio.Event()
        loop = asyncio.get_running_loop()
        while True:
            spec = dict(job.spec.as_dict())
            spec["attempt"] = job.attempts
            spec["traced"] = job.spec.traced
            if job.spec.fault is not None:
                spec["fault"] = dict(job.spec.fault)
            if self.cache is not None and job.spec.fault is None:
                # Workers read and write the shared store themselves:
                # hits skip the codec inside the pool, misses persist
                # the fresh blob for every later entry point.
                spec["cache"] = {
                    "dir": str(self.cache.root),
                    "max_bytes": self.cache.max_bytes,
                }
            job.attempts += 1
            fut = self._submit_to_pool(loop, job, spec)
            waiter = loop.create_task(cancel_event.wait())
            try:
                done, _pending = await asyncio.wait(
                    {fut, waiter},
                    timeout=job.remaining(),
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                waiter.cancel()
            if fut in done:
                exc = fut.exception()
                result = None if exc is not None else fut.result()
                if exc is None and self._result_ok(result):
                    self._finish_ok(job, result)
                    return
                code, message = classify_failure(exc, result)
                if not await self._account_failure(
                    job, code, message, rng
                ):
                    return
                continue
            # The pool attempt is abandoned either way: its eventual
            # result is discarded (a busy worker until it finishes).
            fut.cancel()
            if cancel_event.is_set():
                job.finish("cancelled")
                self.metrics["cancelled"].inc()
                return
            self._finish_timeout(job)
            return

    def _submit_to_pool(self, loop, job: Job, spec: Dict):
        """One attempt as an awaitable future.  Compress jobs go
        straight to the pool (that is the batched fan-out path); sweep
        and autotune jobs block a default-executor thread and fan out
        internally over the same long-lived executor."""
        import functools

        kind = job.spec.kind
        if kind == "compress":
            if self.executor.inline:
                return loop.run_in_executor(None, run_compress_job, spec)
            return asyncio.wrap_future(
                self.executor.pool.submit(run_compress_job, spec)
            )
        fn = run_sweep_job if kind == "sweep" else run_autotune_job
        return loop.run_in_executor(
            None, functools.partial(fn, spec, executor=self.executor)
        )

    @staticmethod
    def _result_ok(result) -> bool:
        return isinstance(result, dict) and result.get("status") == "ok"

    async def _account_failure(
        self, job: Job, code: str, message: str, rng
    ) -> bool:
        """Record one failed attempt; returns whether to retry."""
        job.error, job.error_code = message, code
        delay = account_failure(
            self.retry_policy, rng, self.resilience, code, job.attempts
        )
        if delay is None:
            job.finish("failed")
            self.metrics["failed"].inc()
            return False
        await asyncio.sleep(delay)
        if job.expired():
            self._finish_timeout(job)
            return False
        return True

    def _finish_timeout(self, job: Job, queued_only: bool = False) -> None:
        from repro.errors import ErrorCode

        job.error_code = ErrorCode.TASK_TIMEOUT
        job.error = (
            f"deadline of {job.spec.deadline_s:.3f}s expired"
            + (" while queued" if queued_only else "")
        )
        job.finish("timeout")
        self.metrics["timeouts"].inc()
        self.resilience["timeouts"].inc()

    # -- completion: results, conformance, ledger -----------------------

    def _finish_ok(self, job: Job, result: Dict) -> None:
        blob = result.pop("blob", None)
        records = result.pop("records", None)
        job.blob = blob if job.spec.keep_blob else None
        job.result = result
        job.finish("done")
        self.metrics["completed"].inc()
        if records and self.trace is not None:
            self.trace.merge(records, prefix=(f"job:{job.id}",))
        extra: Dict = {
            "service": {
                "job_id": job.id,
                "priority": job.spec.priority,
                "attempts": job.attempts,
                "batched": job.batched,
                "queued_s": round(
                    (job.started_at or job.submitted_at)
                    - job.submitted_at,
                    6,
                ),
            }
        }
        if self.cache is not None and job.spec.kind == "compress":
            extra["cache"] = {
                "hit": bool(result.get("cached")),
                "key": job.cache_key,
            }
        if job.spec.cluster is not None:
            # Coordinator-forwarded job: keep the routing provenance
            # (node, route key, failover attempt) next to the result.
            extra["cluster"] = dict(job.spec.cluster)
        conformance = self._conformance(job, result)
        if conformance is not None:
            extra["conformance"] = conformance
        if not self.config.no_ledger:
            self._append_ledger(job, result, extra)

    def _finish_cached(self, job: Job, cspec, hit) -> None:
        """Complete ``job`` from a replayed cache outcome at admission
        time: same terminal bookkeeping as :meth:`_finish_ok`, blob and
        achieved metrics from the store, zero pool involvement."""
        spec = job.spec
        raw = field_stats(spec.dataset, spec.field, spec.scale).nbytes
        result = compress_result(cspec, hit, raw, 0.0)
        result["blob"] = hit.blob
        self._finish_ok(job, result)

    def _resolve_followers(self, job: Job) -> None:
        """Propagate a terminal primary job's outcome to every job that
        was coalesced onto it (and retire its in-flight key)."""
        if job.cache_key is None:
            return
        followers = self._inflight_keys.pop(job.cache_key, None)
        if not followers:
            return
        for f in followers:
            if f.terminal:  # cancelled while waiting
                continue
            f.attempts = job.attempts
            if job.state == "done":
                blob = job.blob
                if f.spec.keep_blob and blob is None and self.cache:
                    # Primary dropped its blob (keep_blob=false) but the
                    # worker persisted it -- serve the follower from
                    # the store.
                    e = self.cache.get(job.cache_key)
                    blob = e.payload if e is not None else None
                f.blob = blob if f.spec.keep_blob else None
                f.result = dict(job.result or {})
                f.result["deduped"] = True
                f.finish("done")
                self.metrics["completed"].inc()
            else:
                f.error = job.error
                f.error_code = job.error_code
                f.finish(job.state)
                if job.state == "failed":
                    self.metrics["failed"].inc()
                elif job.state == "timeout":
                    self.metrics["timeouts"].inc()
                elif job.state == "cancelled":
                    self.metrics["cancelled"].inc()

    def _conformance(self, job: Job, result: Dict):
        """The same Eq. 7/8 predicted-vs-achieved payload CLI runs
        record, so the drift monitor sees service traffic."""
        from repro.telemetry.drift import record_bound_conformance

        spec = job.spec
        if result.get("cached"):
            # A replayed measurement: its conformance point was
            # recorded when the blob was first compressed.
            return None
        if spec.kind in ("compress", "autotune") and spec.mode == "psnr":
            eb_rel = result.get("eb_rel")
            achieved = result.get("achieved_psnr", result.get("achieved"))
            if eb_rel and achieved is not None:
                (conformance,) = record_bound_conformance(
                    spec.dataset, spec.codec,
                    [(spec.target, eb_rel, achieved)],
                )
                return conformance
        if spec.kind == "sweep":
            rows = [
                (r["target_psnr"], r["eb_rel"], r["actual_psnr"])
                for r in result.get("results", ())
                if r.get("status") == "ok"
            ]
            return record_bound_conformance(
                spec.dataset, spec.codec, rows
            ) or None
        return None

    def _append_ledger(self, job: Job, result: Dict, extra: Dict) -> None:
        from repro.telemetry.ledger import LedgerEntry, append_entry

        spec = job.spec
        kind = "sweep" if spec.kind == "sweep" else (
            "autotune" if spec.kind == "autotune" else "compress"
        )
        achieved = result.get("achieved")
        achieved_psnr = result.get("achieved_psnr")
        entry = LedgerEntry(
            kind=kind,
            git_rev=self._git_rev,
            dataset=spec.dataset,
            field=spec.field or ",".join(spec.fields),
            codec=spec.codec,
            mode=spec.mode,
            target=float(spec.target) if spec.target else None,
            achieved=float(achieved) if achieved is not None else None,
            target_psnr=(
                float(spec.target)
                if spec.mode == "psnr" and spec.target
                else None
            ),
            achieved_psnr=(
                float(achieved_psnr)
                if achieved_psnr is not None
                else None
            ),
            ratio=result.get("ratio"),
            raw_bytes=result.get("raw_bytes"),
            compressed_bytes=result.get("compressed_bytes"),
            extra=extra,
        )
        append_entry(entry, path=self.config.ledger)


async def run_service(config: Optional[ServiceConfig] = None) -> int:
    """Start a service, run it until drained, return the exit code."""
    service = CompressionService(config)
    await service.start()
    await service.serve_forever()
    return 0
