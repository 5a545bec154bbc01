"""Job model and the bounded priority queue behind the service.

A **job** is one client-submitted unit of work (compress / sweep /
autotune, see :class:`JobSpec`) moving through the lifecycle::

    queued -> running -> done
                    \\-> failed      (exhausted its retry budget)
                    \\-> timeout     (exceeded its deadline)
         \\-> cancelled              (DELETE before/while running)
    rejected                         (never admitted: queue full)

The :class:`JobQueue` is the admission-control point: a bounded binary
heap ordered by ``(priority, submission sequence)`` -- lower priority
numbers run first, FIFO within a priority class.  ``offer`` refuses
work beyond the depth limit (the HTTP layer turns that into ``429
Too Many Requests`` with a ``Retry-After`` hint) instead of letting an
unbounded backlog grow until memory or every deadline dies -- the
admission-control posture of every serious serving system.

Cancellation is *lazy*: a cancelled queued job stays in the heap as a
tombstone and is skipped at pop time, so cancel is O(1) and the heap
invariant is never rebuilt.  Deadlines are enforced by the dispatcher
(a queued job past its deadline is popped straight into ``timeout``).

Everything here is plain synchronous data structure; the asyncio
dispatcher in :mod:`repro.service.app` drives it from the event loop
(single-threaded, so no locking is needed beyond asyncio's own
cooperative scheduling).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from repro.core.spec import DEFAULT_MAX_TRIALS, DEFAULT_TOL, CompressSpec
from repro.errors import ParameterError

__all__ = [
    "JOB_KINDS",
    "TERMINAL_STATES",
    "JobSpec",
    "Job",
    "JobQueue",
]

#: Work kinds a client may submit (one POST route each).
JOB_KINDS = ("compress", "sweep", "autotune")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "timeout", "cancelled")

#: Modes /v1/compress accepts as its target dimension.
COMPRESS_MODES = ("psnr", "ratio", "nrmse", "mse")


@dataclass
class JobSpec:
    """The validated, immutable description of one submitted job."""

    kind: str
    dataset: str
    field: str = ""
    fields: Tuple[str, ...] = ()
    targets: Tuple[float, ...] = ()
    mode: str = "psnr"
    target: float = 0.0
    codec: str = "sz"
    scale: Optional[float] = None
    refine: Optional[str] = None
    tol: float = DEFAULT_TOL
    max_trials: int = DEFAULT_MAX_TRIALS
    priority: int = 5
    deadline_s: Optional[float] = None
    keep_blob: bool = True
    traced: bool = False
    fault: Optional[Dict] = None
    #: Forwarding provenance stamped by a cluster coordinator (node,
    #: route key, failover attempt, dedupe key).  Pure metadata: it
    #: never changes what the job computes, travels into the ledger as
    #: ``extra.cluster``, and lets failed-over re-submissions be
    #: traced back to one logical job.
    cluster: Optional[Dict] = None

    @classmethod
    def from_payload(cls, kind: str, doc: Dict) -> "JobSpec":
        """Build a spec from a decoded request body, rejecting unknown
        kinds/modes and missing required fields with
        :class:`~repro.errors.ParameterError` (the HTTP layer renders
        those as 400s)."""
        if kind not in JOB_KINDS:
            raise ParameterError(f"unknown job kind {kind!r}")
        if not isinstance(doc, dict):
            raise ParameterError("request body must be a JSON object")
        dataset = str(doc.get("dataset") or "")
        if not dataset:
            raise ParameterError("job needs a 'dataset'")
        # The request knobs parse exactly as a compress payload does.
        req = CompressSpec.from_json(doc)
        spec = cls(
            kind=kind,
            dataset=dataset,
            field=str(doc.get("field") or ""),
            fields=tuple(str(f) for f in doc.get("fields") or ()),
            targets=tuple(float(t) for t in doc.get("targets") or ()),
            mode=req.mode,
            target=req.target,
            codec=req.codec,
            scale=(
                float(doc["scale"]) if doc.get("scale") is not None else None
            ),
            refine=req.refine,
            tol=req.tol,
            max_trials=req.max_trials,
            priority=int(doc.get("priority", 5)),
            deadline_s=(
                float(doc["deadline_s"])
                if doc.get("deadline_s") is not None
                else None
            ),
            keep_blob=bool(doc.get("keep_blob", True)),
            fault=(dict(doc["fault"]) if doc.get("fault") else None),
            cluster=(dict(doc["cluster"]) if doc.get("cluster") else None),
        )
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.kind == "compress":
            if not self.field:
                raise ParameterError("compress jobs need a 'field'")
            if self.mode not in COMPRESS_MODES:
                raise ParameterError(
                    f"unknown compress mode {self.mode!r}; expected one "
                    f"of {COMPRESS_MODES}"
                )
            if self.target <= 0:
                raise ParameterError("compress jobs need a positive 'target'")
        elif self.kind == "sweep":
            if not self.targets:
                raise ParameterError("sweep jobs need 'targets'")
        elif self.kind == "autotune":
            if not self.field:
                raise ParameterError("autotune jobs need a 'field'")
            if self.target <= 0:
                raise ParameterError("autotune jobs need a positive 'target'")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ParameterError("deadline_s must be positive")
        if self.priority < 0:
            raise ParameterError("priority must be >= 0")

    def batch_key(self) -> Optional[Tuple]:
        """Jobs sharing a key may ride one micro-batch dispatch: same
        work shape, so one pool fan-out runs them all.  Only single-
        field compress jobs batch; sweeps and autotunes are already
        fan-outs of their own.  ``None`` means never batched."""
        if self.kind != "compress":
            return None
        return (
            "compress", self.dataset, self.scale, self.codec, self.mode,
            self.refine, self.traced,
        )

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "dataset": self.dataset,
            "field": self.field,
            "fields": list(self.fields),
            "targets": list(self.targets),
            "mode": self.mode,
            "target": self.target,
            "codec": self.codec,
            "scale": self.scale,
            "refine": self.refine,
            "tol": self.tol,
            "max_trials": self.max_trials,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "keep_blob": self.keep_blob,
        }


class Job:
    """One submitted job's mutable runtime state (dispatcher-owned)."""

    __slots__ = (
        "id", "spec", "state", "submitted_at", "started_at", "finished_at",
        "deadline_at", "result", "blob", "error", "error_code", "attempts",
        "batched", "cancel_requested", "cache_key", "follower_of",
    )

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.state = "queued"
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.deadline_at = (
            self.submitted_at + spec.deadline_s
            if spec.deadline_s is not None
            else None
        )
        self.result: Optional[Dict] = None
        self.blob: Optional[bytes] = None
        self.error: Optional[str] = None
        self.error_code: Optional[str] = None
        self.attempts = 0
        self.batched = 1
        self.cancel_requested = False
        # Blob-cache bookkeeping (see repro.service.app): the primary
        # job for a cache key carries the key; a job coalesced onto an
        # identical in-flight one carries that primary's id instead and
        # is never enqueued itself.
        self.cache_key: Optional[str] = None
        self.follower_of: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_at is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline_at

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the deadline (``None`` = no deadline)."""
        if self.deadline_at is None:
            return None
        now = now if now is not None else time.monotonic()
        return max(0.0, self.deadline_at - now)

    def finish(self, state: str) -> None:
        self.state = state
        self.finished_at = time.monotonic()

    def as_dict(self, include_result: bool = True) -> Dict:
        """The status document ``GET /v1/jobs/<id>`` serves."""
        now = time.monotonic()
        doc: Dict = {
            "id": self.id,
            "kind": self.spec.kind,
            "state": self.state,
            "dataset": self.spec.dataset,
            "field": self.spec.field,
            "mode": self.spec.mode,
            "target": self.spec.target,
            "codec": self.spec.codec,
            "priority": self.spec.priority,
            "attempts": self.attempts,
            "batched": self.batched,
            "queued_s": round(
                (self.started_at or now) - self.submitted_at, 6
            ),
            "has_blob": self.blob is not None,
        }
        if self.follower_of is not None:
            doc["deduped_onto"] = self.follower_of
        if self.started_at is not None:
            doc["running_s"] = round(
                (self.finished_at or now) - self.started_at, 6
            )
        if self.error is not None:
            doc["error"] = self.error
            doc["error_code"] = self.error_code
        if include_result and self.result is not None:
            doc["result"] = self.result
        return doc


class JobQueue:
    """Bounded priority queue with lazy cancellation.

    ``offer`` is the only admission path and the only place the bound
    is enforced; ``pop`` skips tombstones (cancelled jobs) so the
    depth accounting stays exact.  Not thread-safe by design -- the
    asyncio dispatcher is the single driver.
    """

    def __init__(self, limit: int = 64):
        if limit < 1:
            raise ParameterError("queue limit must be >= 1")
        self.limit = int(limit)
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._depth = 0  # live (non-tombstone) entries

    def __len__(self) -> int:
        return self._depth

    @property
    def full(self) -> bool:
        return self._depth >= self.limit

    def offer(self, job: Job) -> bool:
        """Admit ``job`` unless the queue is at its depth limit;
        returns whether it was admitted."""
        if self._depth >= self.limit:
            return False
        heapq.heappush(
            self._heap, (job.spec.priority, next(self._seq), job)
        )
        self._depth += 1
        return True

    def pop(self) -> Optional[Job]:
        """The highest-priority live job, or ``None`` when empty.
        Tombstones (jobs cancelled while queued) are discarded here."""
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if job.state == "queued":
                self._depth -= 1
                return job
            # A tombstone was already discounted at cancel time.
        return None

    def pop_matching(self, batch_key: Tuple) -> Optional[Job]:
        """The best-priority queued job whose spec shares ``batch_key``
        (the micro-batcher's lookahead).  O(n) scan, but n is bounded
        by the queue limit and batching only triggers on small jobs."""
        best_i = -1
        for i, (_, _, job) in enumerate(self._heap):
            if job.state != "queued":
                continue
            if job.spec.batch_key() != batch_key:
                continue
            if best_i < 0 or self._heap[i][:2] < self._heap[best_i][:2]:
                best_i = i
        if best_i < 0:
            return None
        _, _, job = self._heap.pop(best_i)
        heapq.heapify(self._heap)
        self._depth -= 1
        return job

    def cancel_queued(self, job: Job) -> None:
        """Tombstone a queued job (the caller flips its state); the
        heap entry dies lazily at pop time."""
        self._depth = max(0, self._depth - 1)
