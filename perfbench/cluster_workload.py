"""``cluster_cached``: a coordinator over two members sharing a cache.

``fpzc cluster serve`` routes for two ``fpzc serve --workers 1 --cache``
members that share one fresh cache directory per set-up.  Two client
threads each send one synchronous request at a time (a coordinator POST
blocks until the job is terminal), fetch the blob through the
coordinator, and pause ``THINK_S`` before the next request.  80 % of requests read the hot set filled during set-up
(admission-time cache hits); 20 % write a fresh (field, target) pair on
the hot fields (miss, compress, ``CacheStore.put``).
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

import gen
from calib import CLOCK_SAMPLES, HostClock
from pipeline import Replay
from procs import Server, stop_all, tree_hwm_mb
from serving import (
    JOB_DEADLINE_S,
    Job,
    compare,
    end_to_end,
    outcome,
    overhead_share,
    spec_key,
    wait_jobs,
    worker_metrics,
)
from stats import mean, median, percentile, share
from workloads import SETUPS, Outcome

__all__ = ["run_cluster", "MEMBERS", "CLIENTS", "THINK_S", "FRESH_DECODED"]

MEMBERS = 2
CLIENTS = 2
#: Pause of each client between requests.  Two clients with no pause
#: keep both cores saturated, and hit latency then measured queueing
#: for the cores more than the hit path: its p50 moved by 80 % when the
#: host slowed by 17 %.
THINK_S = 0.02
#: Fresh blobs decoded in the replay (all are compared byte for byte).
FRESH_DECODED = 24
#: Decodes per decoded blob.  Its blobs are small, so one decode each
#: timed under a second in all and ``decompress_mbps`` spread 0.27 raw.
REPLAY_DECODES = 3
#: Only the replay's decode, timed in this process, is host-scaled.  The
#: clients pause, so the cores idle part of the time and host speed moves
#: the served figures far less than it moves the kernel: over eight
#: seeds scaling widened the spread of ``jobs_per_s`` from 0.024 to 0.112.
SCALED = ("decompress_mbps",)


class Cluster:
    def __init__(self, members: List[Server], coordinator: Server, cache_dir: Path):
        self.members = members
        self.coordinator = coordinator
        self.cache_dir = cache_dir

    def stop(self) -> None:
        # The coordinator first, so no request is routed to a draining member.
        self.coordinator.stop()
        stop_all(self.members)

    def peak_rss_mb(self) -> float:
        return tree_hwm_mb(
            [self.coordinator.proc.pid] + [m.proc.pid for m in self.members]
        )


def _post(client, payload: Dict) -> Dict:
    body = {k: v for k, v in payload.items() if k != "kind"}
    return client.submit_doc("compress", body)


def start(workdir: Path, tag: str, traced: bool):
    """Members, coordinator, one warm job per member, hot-set fill.
    Returns ``(cluster, setup_s, ready_s, warm_s, fill_s)``."""
    cache_dir = workdir / f"{tag}-cache"
    t0 = time.perf_counter()

    def trace_args(name: str) -> List[str]:
        return ["--trace-perfetto", str(workdir / f"{name}.trace.json")] if traced else []

    members = [
        Server(
            ["serve", "--workers", "1", "--cache", "--cache-dir", str(cache_dir),
             "--no-ledger"] + trace_args(f"{tag}-m{i}"),
            workdir, f"{tag}-m{i}",
        )
        for i in range(MEMBERS)
    ]
    started = list(members)
    try:
        ready_s = max(m.wait_ready() for m in members)
        # Each member's worker starts on its first job; those warm-up jobs
        # run while the coordinator starts.
        t1 = time.perf_counter()
        warm = [
            (m.client(), m.client().submit("compress", spec))
            for m, spec in zip(members, gen.cluster_warm_specs(MEMBERS))
        ]
        topology = workdir / f"{tag}-topology.json"
        topology.write_text(json.dumps({"peers": [m.url for m in members]}))
        coordinator = Server(
            ["cluster", "serve", "--topology", str(topology)] + trace_args(f"{tag}-co"),
            workdir, f"{tag}-co",
        )
        started.append(coordinator)
        for client, jid in warm:
            doc = wait_jobs(client, [jid])[0]
            if doc.get("state") != "done":
                raise RuntimeError(f"warm-up failed: {doc}")
        warm_s = time.perf_counter() - t1
        coordinator.wait_ready()

        t2 = time.perf_counter()
        client = coordinator.client()
        with ThreadPoolExecutor(CLIENTS) as pool:
            docs = list(pool.map(lambda p: _post(client, p), gen.hot_specs()))
        if any(d.get("state") != "done" for d in docs):
            raise RuntimeError("hot-set fill failed")
        fill_s = time.perf_counter() - t2
    except BaseException:
        stop_all(started[::-1])
        raise
    cluster = Cluster(members, coordinator, cache_dir)
    return cluster, time.perf_counter() - t0, ready_s, warm_s, fill_s


def drive(url: str, requests, seconds: float) -> Tuple[List[Job], float]:
    """``CLIENTS`` synchronous clients until ``seconds`` have elapsed and
    the request block under way is complete."""
    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    jobs: List[Job] = []
    t_start = time.perf_counter()
    t_end = t_start + seconds

    def client_loop() -> None:
        client = ServiceClient(url, timeout=2 * JOB_DEADLINE_S, retry_429=0)
        while True:
            with lock:
                # Stop at a block boundary: every run serves the exact mix.
                if time.perf_counter() >= t_end and not len(jobs) % gen.CLUSTER_BLOCK:
                    return
                job = Job(next(requests))
                jobs.append(job)
            try:
                job.doc = _post(client, job.payload)
                t1 = time.perf_counter()
                job.submit_s = t1 - job.t_submit
                if job.doc.get("state") == "done":
                    job.fetched(client.fetch_blob(str(job.doc["coordinator_id"])), t1)
                else:
                    job.error = f"state {job.doc.get('state')}: {job.doc.get('error')}"
            except ReproError as exc:
                job.error = str(exc)
            time.sleep(THINK_S)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t_last = max([j.t_done for j in jobs] + [t_start])
    return jobs, t_last - t_start


def check(jobs: List[Job], replay: Replay) -> int:
    """Replay every distinct spec and compare every served blob with the
    serial pipeline's bytes.  Hot blobs and the first ``FRESH_DECODED``
    fresh ones are also decoded; stage means count fresh jobs only,
    since hits never reach the codec."""
    kinds: Dict[Tuple, str] = {}
    for job in jobs:
        if job.ok:
            kinds.setdefault(spec_key(job.payload), job.payload["kind"])
    n_fresh = 0
    for key, kind in kinds.items():
        n_fresh += kind == "fresh"
        replay.run(
            key,
            decode=kind == "hot" or n_fresh <= FRESH_DECODED,
            weight=int(kind == "fresh"),
        )
    return compare(jobs, replay)


def cache_replay(cluster: Cluster, jobs: List[Job], replay: Replay,
                 workdir: Path) -> Tuple[Dict[str, float], int]:
    """Time the cache layer's public calls from here: digest and key
    for every hot pair, ``get`` of each on the run's own store, ``put``
    of the fresh blobs into a scratch store.  Also checks that every hot
    entry holds the serial pipeline's bytes."""
    from repro.cache import CacheStore, blob_key, data_digest

    digest_s, key_s, get_s, put_s = [], [], [], []
    wrong = 0
    store = CacheStore(root=str(cluster.cache_dir))
    for spec in gen.hot_specs():
        data, _ = replay.field(spec["dataset"], spec["field"])
        t0 = time.perf_counter()
        digest = data_digest(data)
        t1 = time.perf_counter()
        key = blob_key(digest, codec="sz", mode="psnr", target=spec["target"],
                       refine=None, entropy="huffman")
        t2 = time.perf_counter()
        entry = store.get(key)
        t3 = time.perf_counter()
        digest_s.append(t1 - t0)
        key_s.append(t2 - t1)
        get_s.append(t3 - t2)
        if entry is None or entry.payload != replay.entries[spec_key(spec)]["blob"]:
            wrong += 1
    scratch = CacheStore(root=str(workdir / "put-replay"))
    fresh = sorted({spec_key(j.payload) for j in jobs if j.ok and not j.hot})
    for i, key in enumerate(fresh):
        blob = replay.entries[key]["blob"]
        t0 = time.perf_counter()
        scratch.put(f"{i:064x}", blob, {"kind": "blob", "target": key[2]})
        put_s.append(time.perf_counter() - t0)
    return {
        "cache.digest_s": mean(digest_s),
        "cache.key_s": mean(key_s),
        "cache.get_s": mean(get_s),
        "cache.put_s": mean(put_s),
    }, wrong


def per_layer(jobs: List[Job], replay: Replay) -> Dict[str, float]:
    done = [j for j in jobs if j.ok]
    nodes: Dict[str, int] = {}
    for j in done:
        node = j.doc.get("cluster", {}).get("node", "?")
        nodes[node] = nodes.get(node, 0) + 1
    entries = [replay.entries[spec_key(j.payload)] for j in done if not j.hot]
    decoded = [e for e in entries if "decompress_s" in e]
    out = replay.stages.metrics()
    out.update(worker_metrics(done))
    out.update({
        "cluster.hit_p50_s": percentile([j.submit_s for j in done if j.hot], 50),
        "cluster.miss_p50_s": percentile([j.submit_s for j in done if not j.hot], 50),
        "cluster.fetch_s": mean(j.fetch_s for j in done),
        "cluster.route_overhead_s": mean(
            j.submit_s - j.doc.get("queued_s", 0.0) - j.doc.get("running_s", 0.0)
            for j in done
        ),
        "cluster.owner_share_max": max(nodes.values()) / len(done),
        "cluster.failovers": float(sum(
            j.doc.get("cluster", {}).get("failovers", 0) for j in done
        )),
        "cache.hit_ratio": share(
            sum(1 for j in done if j.doc["result"].get("cached")), len(done)
        ),
        "service.client_submit_s": mean(j.submit_s for j in done),
        "service.client_fetch_s": mean(j.fetch_s for j in done),
        "datasets.field_s": mean(e["field_s"] for e in entries),
        "sz.compress_s": mean(e["compress_s"] for e in entries),
        "sz.decompress_s": mean(e["decompress_s"] for e in decoded),
        "metrics.psnr_s": mean(e["psnr_s"] for e in decoded),
        "jobs_timed": float(len(done)),
    })
    return out


def _phase(seed, seconds, traced, workdir, tag, clock, setups=1):
    """Set up ``setups`` times (keeping the last), measure, stop.  The
    host clock is read whenever no server runs."""
    times = []
    for i in range(setups):
        cluster, setup_s, ready_s, warm_s, fill_s = start(workdir, f"{tag}{i}", traced)
        times.append(setup_s)
        if i < setups - 1:
            cluster.stop()
            clock.sample(CLOCK_SAMPLES)
    try:
        jobs, wall = drive(cluster.coordinator.url, gen.cluster_requests(seed), seconds)
        rss = cluster.peak_rss_mb()
    finally:
        cluster.stop()
    clock.sample(CLOCK_SAMPLES)
    return cluster, jobs, wall, times, (ready_s, warm_s, fill_s), rss


def run_cluster(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    # The host clock is read only while no server runs.
    clock = HostClock()
    clock.sample(CLOCK_SAMPLES)
    notes: List[str] = []
    if not traced:
        _cluster, jobs, wall, setups, _parts, rss = _phase(
            seed, seconds, False, workdir, "cl", clock, SETUPS
        )
        replay = Replay(traced=False, clock=clock, decodes=REPLAY_DECODES)
        wrong = check(jobs, replay) + replay.wrong
        metrics = end_to_end(jobs, wall, replay)
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = rss
        return outcome(jobs, wrong, metrics, traced, notes, clock, SCALED)

    _cluster, plain, *_ = _phase(seed, seconds / 2, False, workdir, "plain", clock)
    cluster, jobs, _wall, _setups, (ready_s, warm_s, fill_s), _rss = _phase(
        seed, seconds / 2, True, workdir, "traced", clock
    )
    replay = Replay(traced=True, clock=clock, decodes=REPLAY_DECODES)
    wrong = check(plain + jobs, replay) + replay.wrong
    metrics = per_layer(jobs, replay)
    cache_metrics, cache_wrong = cache_replay(cluster, jobs, replay, workdir)
    metrics.update(cache_metrics)
    metrics.update({
        "service.ready_s": ready_s,
        "parallel.pool_warm_s": warm_s,
        "cache.fill_s": fill_s,
        "observe.overhead_share": overhead_share(plain, jobs),
    })
    written = sorted(p.name for p in workdir.glob("traced0-*.trace.json"))
    notes.append(f"traced servers wrote {written}")
    return outcome(
        plain + jobs, wrong + cache_wrong, metrics, traced, notes, clock, SCALED
    )
