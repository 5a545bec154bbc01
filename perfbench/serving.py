"""Client-side pieces shared by the ``service`` and ``cluster_cached``
workloads: the job record, blob checks, and the metrics both derive
from served jobs."""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from calib import HostClock
from pipeline import Replay
from stats import gmean, mean, percentile, samples_beyond, share
from workloads import Outcome

__all__ = [
    "TERMINAL",
    "JOB_DEADLINE_S",
    "Job",
    "spec_key",
    "wait_jobs",
    "compare",
    "end_to_end",
    "worker_metrics",
    "overhead_share",
    "outcome",
]

TERMINAL = ("done", "failed", "timeout", "cancelled")
#: A job not terminal this long after its submit counts as failed.
JOB_DEADLINE_S = 60.0


def spec_key(payload: Dict) -> Tuple:
    return (payload["dataset"], payload["field"], float(payload["target"]),
            payload["codec"])


class Job:
    """One request as the client saw it."""

    def __init__(self, payload: Dict):
        self.payload = payload
        self.id: Optional[str] = None
        self.t_submit = time.perf_counter()
        self.submit_s = 0.0
        self.status_s: List[float] = []
        self.fetch_s = 0.0
        self.latency = 0.0
        self.t_done = 0.0
        self.doc: Dict = {}
        self.blob: Optional[bytes] = None
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.blob is not None

    @property
    def hot(self) -> bool:
        return self.payload.get("kind") == "hot"

    def fetched(self, blob: bytes, t_fetch: float) -> None:
        """Record the blob in hand: the end of the job's latency."""
        self.blob = blob
        self.t_done = time.perf_counter()
        self.fetch_s = self.t_done - t_fetch
        self.latency = self.t_done - self.t_submit
        if self.latency > JOB_DEADLINE_S:
            self.error = f"took {self.latency:.1f}s"


def wait_jobs(client, job_ids: List[str]) -> List[Dict]:
    """Poll until every job is terminal; returns their documents."""
    docs: Dict[str, Dict] = {}
    deadline = time.perf_counter() + JOB_DEADLINE_S
    while len(docs) < len(job_ids):
        if time.perf_counter() > deadline:
            raise RuntimeError("warm-up jobs did not finish")
        for jid in job_ids:
            if jid not in docs:
                doc = client.status(jid)
                if doc.get("state") in TERMINAL:
                    docs[jid] = doc
        time.sleep(0.02)
    return [docs[j] for j in job_ids]


def compare(jobs: List[Job], replay: Replay) -> int:
    """Fail every served blob that differs from the serial pipeline's
    bytes (already replayed); returns how many did."""
    wrong = 0
    for job in jobs:
        if job.ok and job.blob != replay.entries[spec_key(job.payload)]["blob"]:
            job.error = "blob differs from the serial pipeline's"
            job.blob = None
            wrong += 1
    return wrong


def end_to_end(jobs: List[Job], wall: float, replay: Replay) -> Dict[str, float]:
    done = [j for j in jobs if j.ok]
    if not done:
        raise RuntimeError(f"no job delivered a correct blob: {jobs[0].error}")
    entries = [replay.entries[spec_key(j.payload)] for j in done]
    decoded = [e for e in entries if "decompress_s" in e]
    lat = [j.latency for j in done]
    return {
        "compress_mbps": sum(e["raw_bytes"] for e in entries) / 1e6 / wall,
        "decompress_mbps": sum(e["raw_bytes"] for e in decoded) / 1e6
        / sum(e["decompress_s"] for e in decoded),
        "psnr_dev_db": mean(
            abs(j.doc["result"]["achieved_psnr"] - float(j.payload["target"]))
            for j in done
        ),
        "ratio_gmean": gmean(j.doc["result"]["ratio"] for j in done),
        "job_p50_s": percentile(lat, 50),
        "job_p90_s": percentile(lat, 90),
        "jobs_per_s": len(done) / wall,
        "ok_share": 1.0 - share(len(jobs) - len(done), len(jobs)),
    }


def worker_metrics(done: List[Job]) -> Dict[str, float]:
    """Member-side figures from the job documents, averaged over the
    jobs that ran in a worker (cache hits never reach one)."""
    ran = [j for j in done if "running_s" in j.doc]
    running = mean(j.doc["running_s"] for j in ran)
    task = mean(j.doc["result"]["seconds"] for j in ran)
    return {
        "service.running_s": running,
        "service.queued_s": mean(j.doc["queued_s"] for j in ran),
        "service.batch_mean": mean(j.doc.get("batched", 1) for j in ran),
        "service.jobs_deduped": float(sum(
            1 for j in done
            if "deduped_onto" in j.doc or j.doc["result"].get("deduped")
        )),
        "parallel.task_s": task,
        "parallel.dispatch_s": running - task,
    }


def overhead_share(plain: Iterable[Job], traced: Iterable[Job]) -> float:
    """(traced − untraced) ÷ untraced median job latency."""
    p50 = [percentile([j.latency for j in js if j.ok], 50) for js in (plain, traced)]
    return (p50[1] - p50[0]) / p50[0]


def outcome(jobs: List[Job], wrong: int, metrics: Dict[str, float],
            traced: bool, notes: List[str], clock: HostClock,
            scaled: Tuple[str, ...]) -> Outcome:
    failed = sum(1 for j in jobs if not j.ok)
    n_done = len(jobs) - failed
    if samples_beyond(n_done, 90) < 10:
        notes.append(f"warning: {n_done} timed jobs; p90 has <10 samples beyond it")
    if traced:
        metrics["error_share"] = share(failed, len(jobs))
    notes.extend(f"job {j.payload}: {j.error}" for j in jobs if j.error)
    return Outcome(
        metrics=metrics,
        attempted=len(jobs),
        failed=failed,
        correct=wrong == 0,
        slowness=clock.slowness(),
        scaled=scaled,
        notes=notes,
    )
