"""``service``: one ``fpzc serve`` process under a closed loop.

One generator thread keeps ``WINDOW`` compress jobs outstanding (twice
the pool size, so the queue is never empty): it submits, polls every
``POLL_S`` and fetches each finished blob.  The cache is off, so every
job runs admission, queue and batch window, pool dispatch, worker-side
field synthesis, compress, verify-decode and PSNR on its blocking path.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

import gen
from calib import CLOCK_SAMPLES, HostClock
from pipeline import Replay
from procs import Server, tree_hwm_mb
from serving import (
    JOB_DEADLINE_S,
    TERMINAL,
    Job,
    compare,
    end_to_end,
    outcome,
    overhead_share,
    spec_key,
    wait_jobs,
    worker_metrics,
)
from stats import mean, median
from workloads import SETUPS, TIMINGS, Outcome

__all__ = ["run_service", "WORKERS", "WINDOW", "POLL_S"]

WORKERS = 2
WINDOW = 2 * WORKERS
POLL_S = 0.025


def start(workdir: Path, tag: str, traced: bool):
    """Spawn, wait for readiness, warm every worker.  Returns
    ``(server, setup_s, ready_s, warm_s)``."""
    args = ["serve", "--pool", "process", "--workers", str(WORKERS),
            "--no-cache", "--no-ledger"]
    if traced:
        args += ["--trace-perfetto", str(workdir / f"{tag}.trace.json")]
    server = Server(args, workdir, tag)
    try:
        ready_s = server.wait_ready()
        client = server.client()
        # readyz answers before the spawn pool has a worker: one
        # concurrent job per worker pays each worker's start-up here.
        t0 = time.perf_counter()
        ids = [client.submit("compress", p) for p in gen.service_warm_specs(WORKERS)]
        docs = wait_jobs(client, ids)
        warm_s = time.perf_counter() - t0
        if any(d.get("state") != "done" for d in docs):
            raise RuntimeError(f"warm-up failed: {docs}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.t_spawn, ready_s, warm_s


def closed_loop(client, requests, seconds: float) -> Tuple[List[Job], float]:
    """Keep ``WINDOW`` jobs outstanding for ``seconds`` and to the end of
    the request block then under way (so every run serves the mix in its
    exact proportions), then drain.  Returns every job and the wall
    seconds to the last completion."""
    from repro.errors import ReproError

    jobs: List[Job] = []
    outstanding: List[Job] = []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while True:
        while len(outstanding) < WINDOW and (
            time.perf_counter() < t_end or len(jobs) % gen.SERVICE_BLOCK
        ):
            job = Job(next(requests))
            jobs.append(job)
            try:
                job.id = str(client.submit("compress", job.payload))
            except ReproError as exc:  # 429s and transport errors
                job.error = f"submit: {exc}"
                continue
            job.submit_s = time.perf_counter() - job.t_submit
            outstanding.append(job)
        if not outstanding:
            break
        time.sleep(POLL_S)
        for job in list(outstanding):
            t0 = time.perf_counter()
            try:
                doc = client.status(job.id)
                job.status_s.append(time.perf_counter() - t0)
                state = doc.get("state")
                if state in TERMINAL:
                    outstanding.remove(job)
                    job.doc = doc
                    if state == "done":
                        t1 = time.perf_counter()
                        job.fetched(client.fetch_blob(job.id), t1)
                    else:
                        job.error = f"state {state}: {doc.get('error')}"
                elif time.perf_counter() - job.t_submit > JOB_DEADLINE_S:
                    outstanding.remove(job)
                    job.error = f"still {state} after {JOB_DEADLINE_S:g}s"
            except ReproError as exc:
                if job in outstanding:
                    outstanding.remove(job)
                job.error = f"poll or fetch: {exc}"
    t_last = max([j.t_done for j in jobs] + [t_start])
    return jobs, t_last - t_start


def check(jobs: List[Job], replay: Replay) -> int:
    """Replay every distinct spec, weighted by how many jobs asked for
    it, and compare blobs; returns how many served blobs were wrong."""
    counts: Dict[Tuple, int] = {}
    for job in jobs:
        if job.ok:
            key = spec_key(job.payload)
            counts[key] = counts.get(key, 0) + 1
    for key, n in counts.items():
        replay.run(key, weight=n)
    return compare(jobs, replay)


def per_layer(jobs: List[Job], replay: Replay) -> Dict[str, float]:
    done = [j for j in jobs if j.ok]
    entries = [replay.entries[spec_key(j.payload)] for j in done]
    out = replay.stages.metrics()
    out.update(worker_metrics(done))
    out.update({
        "service.client_submit_s": mean(j.submit_s for j in done),
        "service.client_status_s": mean(s for j in done for s in j.status_s),
        "service.client_polls_per_job": mean(len(j.status_s) for j in done),
        "service.client_fetch_s": mean(j.fetch_s for j in done),
        "datasets.field_s": mean(e["field_s"] for e in entries),
        "sz.compress_s": mean(e["compress_s"] for e in entries),
        "sz.decompress_s": mean(e["decompress_s"] for e in entries),
        "metrics.psnr_s": mean(e["psnr_s"] for e in entries),
        "jobs_timed": float(len(done)),
    })
    return out


def _phase(seed, seconds, traced, workdir, tag, clock, setups=1):
    """Set up ``setups`` times (keeping the last), measure, stop.  The
    host clock is read whenever no server runs."""
    times = []
    for i in range(setups):
        server, setup_s, ready_s, warm_s = start(workdir, f"{tag}{i}", traced)
        times.append(setup_s)
        if i < setups - 1:
            server.stop()
            clock.sample(CLOCK_SAMPLES)
    try:
        jobs, wall = closed_loop(server.client(), gen.service_requests(seed), seconds)
        rss = tree_hwm_mb([server.proc.pid])
    finally:
        server.stop()
    clock.sample(CLOCK_SAMPLES)
    return jobs, wall, times, ready_s, warm_s, rss


def run_service(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    # The host clock is read only while no server runs.
    clock = HostClock()
    clock.sample(CLOCK_SAMPLES)
    notes: List[str] = []
    if not traced:
        jobs, wall, setups, _ready, _warm, rss = _phase(
            seed, seconds, False, workdir, "serve", clock, SETUPS
        )
        replay = Replay(traced=False, clock=clock)
        wrong = check(jobs, replay) + replay.wrong
        metrics = end_to_end(jobs, wall, replay)
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = rss
        return outcome(jobs, wrong, metrics, traced, notes, clock, TIMINGS)

    plain, *_ = _phase(seed, seconds / 2, False, workdir, "plain", clock)
    jobs, _wall, _setups, ready_s, warm_s, _rss = _phase(
        seed, seconds / 2, True, workdir, "traced", clock
    )
    replay = Replay(traced=True, clock=clock)
    wrong = check(plain + jobs, replay) + replay.wrong
    metrics = per_layer(jobs, replay)
    metrics.update({
        "service.ready_s": ready_s,
        "parallel.pool_warm_s": warm_s,
        "observe.overhead_share": overhead_share(plain, jobs),
    })
    trace_file = workdir / "traced0.trace.json"
    if trace_file.is_file():
        n_events = len(json.loads(trace_file.read_text())["traceEvents"])
        notes.append(f"traced server wrote {n_events} trace events")
    else:
        notes.append("warning: the traced server wrote no trace file")
    return outcome(plain + jobs, wrong, metrics, traced, notes, clock, TIMINGS)
