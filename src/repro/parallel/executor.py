"""Field-parallel fixed-PSNR sweeps.

One task = (data set, field, target PSNR): compress, decompress,
measure.  Tasks ship only *names* to the workers -- each worker
regenerates its field from the deterministic data-set registry, so no
multi-megabyte arrays cross process boundaries (the scatter pattern the
mpi4py guide recommends: communicate work descriptions, not payloads).

``n_workers=0`` runs inline, which is what the unit tests and small
sweeps use; the benchmarks choose a worker count from ``os.cpu_count``.

Resilience
----------
``sweep_dataset`` optionally runs under a
:class:`repro.resilience.retry.RetryPolicy`: each failing attempt
(worker exception, per-task deadline exceeded, poisoned result) is
retried with exponential backoff and seeded jitter, and a task that
exhausts its attempts degrades to a *failed* :class:`FieldResult`
(``status="failed"``, NaN measurements) instead of aborting the sweep.
The ``fault`` hook accepts a
:class:`repro.resilience.inject.WorkerFault` so the failure paths are
deterministically testable -- CI's fault matrix drives it.  Without a
policy the legacy fail-fast behaviour is unchanged.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, asdict, field as dc_field, fields as dc_fields
from typing import Dict, List, Optional, Sequence, Tuple

import repro.observe as observe
from repro.errors import ErrorCode, ParameterError
from repro.resilience.retry import account_failure, classify_failure

__all__ = [
    "FieldResult",
    "Executor",
    "run_field_task",
    "sweep_dataset",
    "default_workers",
    "failed_field_result",
    "map_tasks",
]


def _warm_worker(index: int) -> int:
    """No-op task submitted at :meth:`Executor.warm` time: imports the
    hot modules so the first real task pays no import cost, and sleeps
    a beat so the pool actually spawns one process per submission
    instead of reusing an idle worker."""
    import repro.core.fixed_psnr  # noqa: F401 -- import is the point
    import repro.core.spec  # noqa: F401
    import repro.sz.compressor  # noqa: F401

    time.sleep(0.02)
    return os.getpid()


class Executor:
    """Long-lived worker pool + shared-memory arena context.

    Before this class, every parallel entry point created (and tore
    down) its own ``ProcessPoolExecutor`` and :class:`ShmArena` per
    call -- fine for one-shot CLI runs, wasteful for anything
    long-lived.  An ``Executor`` owns both for its whole lifetime and
    is accepted by :func:`sweep_dataset`, :func:`map_tasks`,
    :func:`repro.autotune.autotune` and
    :func:`repro.parallel.chunking.compress_chunked` /
    ``decompress_chunked`` via their ``executor=`` keyword, so repeated
    calls reuse warm workers and already-shared payloads::

        with Executor(n_workers=4) as ex:
            ex.warm()                       # spawn + import up front
            r1 = sweep_dataset("ATM", [60.0], executor=ex)
            r2 = sweep_dataset("ATM", [80.0], executor=ex)   # no new pool

    ``kind`` selects the pool flavour: ``"process"`` (the default; the
    only kind that can use the shm data plane), ``"thread"`` (same
    results, zero-copy by construction -- what the service uses in
    tests and benches to avoid process spawn cost), or ``"inline"``
    (no pool at all; ``n_workers <= 0`` forces it).  ``start_method``
    optionally pins the multiprocessing start method -- the service
    passes ``"spawn"`` because forking from a multi-threaded process
    is unsafe (and a ``DeprecationWarning`` on 3.12+).

    Results are bit-identical across kinds and transports -- the same
    differential contract the data plane already guarantees.
    """

    _KINDS = ("process", "thread", "inline")

    def __init__(
        self,
        n_workers: int = 0,
        transport: str = "auto",
        kind: str = "process",
        start_method: Optional[str] = None,
    ):
        from repro.parallel.shm import TRANSPORTS

        if kind not in self._KINDS:
            raise ParameterError(
                f"unknown executor kind {kind!r}; expected one of "
                f"{self._KINDS}"
            )
        if transport not in TRANSPORTS:
            raise ParameterError(
                f"unknown transport {transport!r}; expected one of "
                f"{TRANSPORTS}"
            )
        self.n_workers = int(n_workers)
        self.kind = "inline" if self.n_workers <= 0 else kind
        self.transport = transport
        self.start_method = start_method
        self._pool = None
        self._arena = None
        self._cache: Dict = {}
        self._closed = False

    # -- state ----------------------------------------------------------

    @property
    def inline(self) -> bool:
        return self.kind == "inline"

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ParameterError("executor is closed")

    @property
    def pool(self):
        """The lazily created pool (``None`` for the inline kind)."""
        self._check_open()
        if self.kind == "inline":
            return None
        if self._pool is None:
            if self.kind == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="repro-exec",
                )
            elif self.start_method:
                import multiprocessing

                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=multiprocessing.get_context(self.start_method),
                )
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._pool

    @property
    def arena(self):
        """The lazily created :class:`~repro.parallel.shm.ShmArena`,
        or ``None`` when the transport resolves to pickle (non-process
        kinds never get an arena -- threads already share memory)."""
        from repro.parallel.shm import ShmArena, resolve_transport

        self._check_open()
        if self.kind != "process":
            return None
        if not resolve_transport(self.transport, self.n_workers):
            return None
        if self._arena is None:
            self._arena = ShmArena()
        return self._arena

    # -- work -----------------------------------------------------------

    def submit(self, fn, *args) -> Future:
        """Submit one call; inline executors run it immediately and
        return an already-completed future."""
        self._check_open()
        if self.kind == "inline":
            f: Future = Future()
            try:
                f.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 -- future carries it
                f.set_exception(exc)
            return f
        return self.pool.submit(fn, *args)

    def map(self, fn, argtuples) -> List:
        """Order-preserving map over argument tuples (the
        :func:`map_tasks` contract, against this executor's pool)."""
        tasks = list(argtuples)
        if not tasks:
            return []
        if self.kind == "inline":
            return [fn(*t) for t in tasks]
        futures = [self.pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]

    def warm(self) -> int:
        """Spawn every worker now (and pre-import the codec modules in
        each) instead of on first use; returns the number of distinct
        workers that answered.  A no-op for thread/inline kinds."""
        if self.kind != "process":
            return 0
        futures = [
            self.pool.submit(_warm_worker, i) for i in range(self.n_workers)
        ]
        return len({f.result() for f in futures})

    # -- payload cache --------------------------------------------------

    def share(self, key, supplier):
        """Get-or-create a cached payload for ``key``.

        ``supplier`` is a zero-argument callable producing the array;
        it runs only on the first call for a given key.  Process
        executors with an arena return a shared-memory ref (one copy
        for the executor's lifetime); thread/inline executors return
        the materialized array itself (zero-copy in-process); process
        executors on the pickle transport also return the array (the
        caller decides whether shipping it beats regenerating).
        """
        import numpy as np

        self._check_open()
        if key in self._cache:
            return self._cache[key]
        arena = self.arena
        if arena is not None:
            payload = arena.share(supplier())
        else:
            payload = np.asarray(supplier())
        self._cache[key] = payload
        return payload

    def drop_cached(self, key) -> bool:
        """Forget a cached payload (releasing its segment when it was
        shared); returns True when the key existed."""
        from repro.parallel.shm import ShmArrayRef

        payload = self._cache.pop(key, None)
        if payload is None:
            return False
        if isinstance(payload, ShmArrayRef) and self._arena is not None:
            self._arena.release(payload)
        return True

    # -- teardown -------------------------------------------------------

    def close(self, cancel_futures: bool = False) -> None:
        """Shut the pool down and release every shared segment.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._cache.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel_futures)
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def map_tasks(fn, argtuples, n_workers: int = 0, executor: Optional[Executor] = None):
    """Order-preserving parallel map over argument tuples.

    The generic fan-out primitive the autotune driver uses for
    speculative trial probes: ``fn`` must be a module-level (picklable)
    callable and each element of ``argtuples`` a tuple of its
    positional arguments.  ``n_workers <= 0`` runs inline -- same
    results, no pool -- which is what unit tests and small searches
    use.  An empty task list short-circuits without spawning a pool.
    With ``executor=`` the map runs on the given :class:`Executor`'s
    long-lived pool (``n_workers`` is ignored) instead of a fresh one.
    """
    if executor is not None:
        return executor.map(fn, argtuples)
    tasks = list(argtuples)
    if not tasks:
        return []
    if n_workers <= 0:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class FieldResult:
    """Outcome of one (field, target) compression task.

    ``metrics`` is optional stage-level telemetry (populated when the
    sweep runs with ``collect_trace=True``): the aggregated trace dict
    plus the raw picklable span records, so parent processes can merge
    worker traces (see :mod:`repro.observe`).  It is excluded from
    equality/hash so result identity stays purely about the outcome.

    ``status`` is ``"ok"`` for a successful task and ``"failed"`` for
    one that exhausted its retry budget under a
    :class:`~repro.resilience.retry.RetryPolicy`; failed results carry
    NaN measurements, the last failure's :class:`~repro.errors.ErrorCode`
    in ``error_code`` and its message in ``error``.  ``attempts``
    counts attempts actually made (1 when nothing went wrong).
    """

    dataset: str
    field: str
    target_psnr: float
    actual_psnr: float
    deviation: float
    met: bool
    compression_ratio: float
    bit_rate: float
    eb_rel: float
    metrics: Optional[Dict] = dc_field(default=None, compare=False)
    status: str = "ok"
    error: Optional[str] = None
    error_code: Optional[str] = None
    attempts: int = 1
    #: Whether the result was served from the shared blob cache
    #: (:mod:`repro.cache`) instead of a fresh compression.  Excluded
    #: from equality so cached and fresh outcomes compare identical --
    #: the cache's correctness contract.
    cache_hit: bool = dc_field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict:
        """JSON-friendly representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict) -> "FieldResult":
        """Rebuild a result from :meth:`as_dict` output -- how rows
        cross HTTP boundaries (the cluster scatter-gather path) and
        still compare equal to locally produced ones."""
        known = {f.name for f in dc_fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})


def failed_field_result(
    dataset: str,
    field: str,
    target_psnr: float,
    *,
    error: str,
    error_code: str,
    attempts: int,
) -> FieldResult:
    """Public constructor for a ``status="failed"`` row -- what a task
    degrades to when it exhausts its retry budget (resilient sweeps)
    or every cluster node that could run it (scatter-gather)."""
    nan = float("nan")
    return FieldResult(
        dataset=dataset,
        field=field,
        target_psnr=float(target_psnr),
        actual_psnr=nan,
        deviation=nan,
        met=False,
        compression_ratio=nan,
        bit_rate=nan,
        eb_rel=nan,
        status="failed",
        error=error,
        error_code=error_code,
        attempts=attempts,
    )


def run_field_task(
    dataset: str,
    field: str,
    target_psnr: float,
    scale: Optional[float] = None,
    refine: Optional[str] = None,
    codec: str = "sz",
    collect_trace: bool = False,
    profile_mem: bool = False,
    data_ref=None,
    cache=None,
    fault=None,
    attempt: int = 0,
) -> FieldResult:
    """Execute one task: regenerate the field, run the fixed-PSNR
    pipeline, measure the reconstruction.

    Importable at module top level so it pickles for worker processes.
    With ``collect_trace=True`` the compression runs under a local
    :class:`repro.observe.Trace`; the result's ``metrics`` dict carries
    the aggregated stage costs and the raw span records back across
    the process boundary.  ``profile_mem=True`` (implies
    ``collect_trace``) additionally runs under
    :class:`repro.telemetry.memory.profile_memory`, so every span
    record also carries its peak traced bytes -- the readings cross the
    process boundary inside the records like every other measurement.

    ``data_ref`` is an optional shared-memory payload reference (see
    :mod:`repro.parallel.shm`): when present the field data is read
    from the parent's segment instead of being regenerated, so large
    fields cross the process boundary exactly once.  The bytes are
    identical either way (the registry is deterministic), which is what
    the differential suite asserts.

    ``cache`` is an optional :class:`repro.cache.CacheStore` (it
    pickles into workers as just a path + bound): a prior run's blob
    for the same (data, codec, target, refine) is replayed with its
    recorded measurements instead of recompressing, and fresh blobs
    are written through for the next run.  Cached and fresh results
    are equal by construction (differential-tested).

    ``fault`` is an optional
    :class:`repro.resilience.inject.WorkerFault` evaluated before any
    real work -- the deterministic stand-in for worker crashes, hangs
    and corrupted results that the retry layer is tested against.
    ``attempt`` is the zero-based attempt index the executor passes so
    a bounded fault can fail N attempts and then succeed.
    """
    if fault is not None:
        from repro.resilience.inject import POISON, apply_worker_fault

        if apply_worker_fault(fault, field, attempt) is not None:
            return POISON  # type: ignore[return-value]  (poisoned on purpose)
    from contextlib import ExitStack

    from repro.core.spec import CompressSpec

    spec = CompressSpec(
        mode="psnr", target=float(target_psnr), codec=codec, refine=refine
    )
    local = observe.Trace() if collect_trace or profile_mem else None
    with ExitStack() as stack:
        # Imports inside the function keep worker start-up lean.
        if data_ref is not None:
            from repro.parallel.shm import open_payload

            data = stack.enter_context(open_payload(data_ref))
        else:
            from repro.datasets.registry import get_dataset

            data = get_dataset(dataset, scale=scale).field(field)
        out = spec.run(
            data,
            cache,
            labels={"dataset": dataset, "field": field},
            trace=local,
            profile_mem=profile_mem,
        )
        if out.eb_rel is None:
            # A cache entry written before its bound was recorded.
            out = spec.run(data, trace=local, profile_mem=profile_mem)
        metrics = None
        if local is not None and not out.cached:
            metrics = {
                "trace": local.as_dict(),
                "records": [r.as_dict() for r in local.records],
            }
        return FieldResult(
            dataset=dataset,
            field=field,
            target_psnr=float(target_psnr),
            actual_psnr=out.achieved_psnr,
            deviation=out.achieved_psnr - float(target_psnr),
            met=bool(out.achieved_psnr >= target_psnr),
            compression_ratio=data.nbytes / len(out.blob),
            bit_rate=8.0 * len(out.blob) / data.size,
            eb_rel=out.eb_rel,
            metrics=metrics,
            cache_hit=out.cached,
        )


def default_workers() -> int:
    """A safe default worker count: physical parallelism minus one."""
    return max(1, (os.cpu_count() or 2) - 1)


# ---------------------------------------------------------------------------
# resilient execution
# ---------------------------------------------------------------------------


def _resilience_counters():
    from repro.telemetry.registry import metrics as _metrics

    reg = _metrics()
    return {
        "failures": reg.counter(
            "resilience.task_failures_total",
            help="task attempts that failed (any cause)",
        ),
        # Deadline trips depend on wall-clock scheduling, and backoff
        # totals on the (completion-ordered) jitter draw sequence --
        # neither belongs in golden comparisons.
        "timeouts": reg.counter(
            "resilience.task_timeouts_total",
            help="task attempts that exceeded the per-task deadline",
            deterministic=False,
        ),
        "poisoned": reg.counter(
            "resilience.poisoned_results_total",
            help="task attempts that returned a non-FieldResult",
        ),
        "retries": reg.counter(
            "resilience.retries_total", help="task attempts re-scheduled"
        ),
        "exhausted": reg.counter(
            "resilience.tasks_exhausted_total",
            help="tasks that failed every attempt and degraded to a "
            "failed result",
        ),
        "backoff": reg.counter(
            "resilience.backoff_seconds_total",
            help="total scheduled backoff delay",
            deterministic=False,
        ),
    }


class _TaskState:
    """Book-keeping for one task's attempts (parent side)."""

    __slots__ = ("index", "task", "attempt", "last_error")

    def __init__(self, index: int, task: Tuple):
        self.index = index
        self.task = task
        self.attempt = 0  # zero-based index of the attempt in flight
        self.last_error: Tuple[str, str] = (ErrorCode.TASK_FAILED, "")


def _record_failure(state, code, message, policy, rng, counters):
    """Account one failed attempt.  Returns the backoff delay before
    the next attempt, or ``None`` when the budget is exhausted."""
    state.last_error = (code, message)
    delay = account_failure(policy, rng, counters, code, state.attempt + 1)
    if delay is not None:
        state.attempt += 1
    return delay


def _exhausted_result(state) -> FieldResult:
    code, message = state.last_error
    dataset, field, target = state.task[0], state.task[1], state.task[2]
    return failed_field_result(
        dataset,
        field,
        target,
        error=message,
        error_code=code,
        attempts=state.attempt + 1,
    )


def _validated(result) -> bool:
    return isinstance(result, FieldResult)


def _with_attempts(result: FieldResult, attempts: int) -> FieldResult:
    if attempts == result.attempts:
        return result
    import dataclasses

    return dataclasses.replace(result, attempts=attempts)


def _sweep_inline_with_retry(tasks, policy, fault, counters):
    rng = policy.rng()
    results: List[FieldResult] = []
    for index, task in enumerate(tasks):
        state = _TaskState(index, task)
        while True:
            start = time.monotonic()
            exc = None
            result = None
            try:
                result = run_field_task(*task, fault=fault, attempt=state.attempt)
            except Exception as e:  # noqa: BLE001 -- worker faults are arbitrary
                exc = e
            elapsed = time.monotonic() - start
            if (
                policy.task_timeout is not None
                and elapsed > policy.task_timeout
            ):
                # Inline mode cannot preempt, so the deadline is
                # enforced post-hoc: a late result is discarded to keep
                # timeout semantics identical to the pool path.
                code, message = ErrorCode.TASK_TIMEOUT, (
                    f"attempt took {elapsed:.3f}s "
                    f"(deadline {policy.task_timeout:.3f}s)"
                )
            elif exc is None and _validated(result):
                results.append(_with_attempts(result, state.attempt + 1))
                break
            else:
                code, message = classify_failure(exc, result)
            delay = _record_failure(
                state, code, message, policy, rng, counters
            )
            if delay is None:
                results.append(_exhausted_result(state))
                break
            time.sleep(delay)
    return results


def _sweep_pool_with_retry(tasks, policy, fault, counters, n_workers,
                           external_pool=None):
    rng = policy.rng()
    results: List[Optional[FieldResult]] = [None] * len(tasks)
    states = [_TaskState(i, t) for i, t in enumerate(tasks)]
    inflight: Dict = {}  # future -> (state, deadline or None)
    waiting: List[Tuple[float, _TaskState]] = []  # (ready_at, state)

    def submit(state: _TaskState) -> None:
        fut = pool.submit(
            run_field_task, *state.task, fault=fault, attempt=state.attempt
        )
        deadline = (
            time.monotonic() + policy.task_timeout
            if policy.task_timeout is not None
            else None
        )
        inflight[fut] = (state, deadline)

    def settle(state: _TaskState, code: str, message: str) -> None:
        delay = _record_failure(state, code, message, policy, rng, counters)
        if delay is None:
            results[state.index] = _exhausted_result(state)
        else:
            waiting.append((time.monotonic() + delay, state))

    # Nothing may sit between pool creation and the try: an exception
    # in that gap would leak the pool's worker processes (the finally
    # below is the only shutdown path for this non-context-managed
    # executor -- it must cover *every* exit).  An external pool (a
    # long-lived Executor's) is never shut down here; note that an
    # abandoned hung attempt then keeps one of its workers busy until
    # the attempt finishes on its own.
    pool = external_pool or ProcessPoolExecutor(max_workers=n_workers)
    try:
        for state in states:
            submit(state)
        while inflight or waiting:
            now = time.monotonic()
            for ready_at, state in list(waiting):
                if ready_at <= now:
                    waiting.remove((ready_at, state))
                    submit(state)
            if not inflight:
                next_ready = min(ready_at for ready_at, _ in waiting)
                time.sleep(max(0.0, next_ready - time.monotonic()))
                continue
            timeout = None
            deadlines = [dl for _, dl in inflight.values() if dl is not None]
            horizons = deadlines + [ready_at for ready_at, _ in waiting]
            if horizons:
                timeout = max(0.0, min(horizons) - time.monotonic())
            done, _pending = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            for fut in done:
                state, _deadline = inflight.pop(fut)
                exc = fut.exception()
                result = None if exc is not None else fut.result()
                if exc is None and _validated(result):
                    results[state.index] = _with_attempts(
                        result, state.attempt + 1
                    )
                else:
                    settle(state, *classify_failure(exc, result))
            now = time.monotonic()
            for fut, (state, deadline) in list(inflight.items()):
                if deadline is not None and now >= deadline:
                    # The attempt is hung (or just too slow): abandon
                    # the future -- its eventual result is ignored --
                    # and account a timeout.
                    fut.cancel()
                    del inflight[fut]
                    settle(
                        state,
                        ErrorCode.TASK_TIMEOUT,
                        f"attempt exceeded the {policy.task_timeout:.3f}s "
                        "deadline",
                    )
    finally:
        # Don't block on abandoned (hung) workers; queued futures are
        # cancelled, running ones are left to finish in the background.
        if external_pool is None:
            pool.shutdown(wait=False, cancel_futures=True)
    return results


def sweep_dataset(
    dataset: str,
    targets: Sequence[float],
    fields: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    refine: Optional[str] = None,
    codec: str = "sz",
    n_workers: int = 0,
    collect_trace: bool = False,
    profile_mem: bool = False,
    retry=None,
    fault=None,
    transport: str = "auto",
    executor: Optional[Executor] = None,
    cache=None,
) -> List[FieldResult]:
    """Run every (field, target) combination of a data set.

    Returns results ordered by (target, field registry order) so
    downstream tables are deterministic regardless of scheduling.
    With ``collect_trace=True`` each task records a stage-level trace
    (see :func:`run_field_task`); if a trace is also active in *this*
    process, the per-worker span records are merged into it under a
    ``field:<name>`` prefix.  ``profile_mem=True`` adds per-span peak
    memory to every task's records (see
    :mod:`repro.telemetry.memory`).

    ``retry`` is an optional
    :class:`repro.resilience.retry.RetryPolicy`.  Without one, any
    task exception propagates (fail-fast, the historical behaviour).
    With one, failing attempts are retried with backoff and a task
    that exhausts its budget yields a ``status="failed"`` result --
    the sweep always returns one :class:`FieldResult` per task.
    ``fault`` optionally injects a deterministic
    :class:`repro.resilience.inject.WorkerFault` into every task (the
    CI fault matrix's hook); it requires ``retry``.

    ``transport`` selects how field payloads reach the workers:
    ``"pickle"`` ships only names (each worker regenerates its field),
    ``"shm"``/``"auto"`` materialize each field once in the parent and
    share it through the zero-copy :mod:`repro.parallel.shm` plane --
    profitable whenever a field serves more tasks than there are
    workers.  The outputs are bit-identical in every mode; shm
    silently degrades to pickle when unavailable.

    ``executor`` runs the sweep on a long-lived :class:`Executor`
    instead of a per-call pool: ``n_workers``/``transport`` are taken
    from the executor, field payloads go through its ``share`` cache
    (so a second sweep over the same dataset re-uses the segments), and
    nothing is torn down afterwards.

    ``cache`` is an optional :class:`repro.cache.CacheStore`: every
    task consults and feeds the shared blob cache (see
    :func:`run_field_task`), so a repeated sweep replays from disk.
    Hit results carry ``cache_hit=True`` but compare equal to fresh
    ones.
    """
    from repro.datasets.registry import get_dataset
    from repro.parallel.shm import ShmArena, ShmArrayRef, resolve_transport
    from repro.telemetry.registry import metrics as _metrics

    if fault is not None and retry is None:
        raise ParameterError(
            "fault injection requires a RetryPolicy (fail-fast sweeps "
            "would simply crash)"
        )
    ds = get_dataset(dataset, scale=scale)
    names = list(fields) if fields is not None else ds.field_names
    unknown = set(names) - set(ds.field_names)
    if unknown:
        raise ParameterError(f"unknown fields for {dataset}: {sorted(unknown)}")
    arena: Optional[ShmArena] = None
    refs: Dict[str, Optional[object]] = {}
    if executor is not None:
        n_workers = 0 if executor.inline else executor.n_workers
        threads = executor.kind == "thread"
        if threads or executor.arena is not None:
            for fname in names:
                payload = executor.share(
                    ("field", dataset, scale, fname),
                    lambda f=fname: ds.field(f),
                )
                # Threads share the address space and take the array
                # itself.  Across processes, a guard fallback means the
                # worker is better off regenerating the field than
                # receiving it by pickle.
                refs[fname] = (
                    payload
                    if threads or isinstance(payload, ShmArrayRef)
                    else None
                )
    elif resolve_transport(transport, n_workers):
        arena = ShmArena()
        for fname in names:
            ref = arena.share(ds.field(fname))
            # A guard fallback means the worker is better off
            # regenerating the field than receiving it by pickle.
            refs[fname] = ref if isinstance(ref, ShmArrayRef) else None
    tasks: List[Tuple] = [
        (dataset, fname, float(t), scale, refine, codec, collect_trace,
         profile_mem, refs.get(fname), cache)
        for t in targets
        for fname in names
    ]
    _metrics().counter("parallel.field_tasks_total").inc(len(tasks))
    external_pool = (
        executor.pool if executor is not None and not executor.inline else None
    )
    try:
        if retry is None:
            if n_workers <= 0:
                results = [run_field_task(*t) for t in tasks]
            elif external_pool is not None:
                futures = [
                    external_pool.submit(run_field_task, *t) for t in tasks
                ]
                results = [f.result() for f in futures]
            else:
                with ProcessPoolExecutor(max_workers=n_workers) as pool:
                    results = list(
                        pool.map(run_field_task, *zip(*tasks), chunksize=1)
                    )
        else:
            counters = _resilience_counters()
            if n_workers <= 0:
                results = _sweep_inline_with_retry(
                    tasks, retry, fault, counters
                )
            else:
                results = _sweep_pool_with_retry(
                    tasks, retry, fault, counters, n_workers,
                    external_pool=external_pool,
                )
    finally:
        if arena is not None:
            arena.close()
    trace = observe.current_trace()
    if trace.enabled:
        for r in results:
            if r.metrics:
                trace.merge(r.metrics["records"], prefix=(f"field:{r.field}",))
    return results
