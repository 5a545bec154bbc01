#!/usr/bin/env python
"""Cluster smoke driver: two members, one coordinator, one kill.

Intended for CI (the ``cluster-smoke`` job) and local sanity::

    PYTHONPATH=src python scripts/cluster_smoke.py [workdir]

End-to-end exercise of the cluster tier as real subprocesses -- the
exact deployment shape, signals included:

1. Two ``fpzc serve`` members start against a shared blob cache and
   per-member ledgers; both ``/readyz`` endpoints must go 200 within
   the startup budget.
2. ``fpzc cluster serve --topology`` starts in front of them; its
   ``/readyz`` must report both members alive.
3. A compress job routed through the coordinator must finish
   ``done`` and its blob (proxied from the owning member) must be
   bit-identical to the serial pipeline's.
4. A scatter-gather sweep must return rows equal to a serial
   ``sweep_dataset`` run, with zero failed shards.
5. One member is SIGKILLed; a second sweep -- whose last task is
   provably owned by the victim, computed from the same
   consistent-hash ring the coordinator built -- must still complete
   with zero failed rows, the coordinator must mark the victim not
   alive, and ``fpzc_cluster_failovers_total`` must be nonzero.
6. ``/cluster/metrics`` must report the survivor merged and the
   victim skipped/unreachable, and the merged Prometheus scrape must
   carry both cluster and member (``fpzc_service_*``) families.
7. ``SIGTERM`` must drain the coordinator and the surviving member
   to exit code 0.

Exit code 0 when every stage holds; the first violated stage prints
and fails the script.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cache import data_digest  # noqa: E402
from repro.cluster.ring import HashRing  # noqa: E402
from repro.core.fixed_psnr import FixedPSNRCompressor  # noqa: E402
from repro.core.spec import CompressSpec  # noqa: E402
from repro.datasets.registry import get_dataset  # noqa: E402
from repro.errors import TransportError  # noqa: E402
from repro.parallel.executor import FieldResult, sweep_dataset  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402

BASE_PORT = int(os.environ.get("FPZC_CLUSTER_SMOKE_PORT", "18070"))
DATASET = "ATM"
TARGET = 60.0
VNODES = 64  # ClusterConfig default; must match the coordinator's ring


def check(label: str, ok: bool) -> None:
    print(f"{'ok' if ok else 'FAIL'}: {label}")
    if not ok:
        sys.exit(1)


def wait_ready(client: ServiceClient, budget_s: float = 30.0) -> bool:
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        try:
            if client.readyz():
                return True
        except (ServiceError, TransportError):
            pass
        time.sleep(0.1)
    return False


def spawn(args, env):
    return subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.cli.main import main; "
            "sys.exit(main(sys.argv[1:]))",
            *args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def route_key(field: str, target: float) -> str:
    """The coordinator's route key for a cacheable PSNR compress task:
    the blob fingerprint itself (cache-owner affinity)."""
    data = get_dataset(DATASET).field(field)
    spec = CompressSpec(mode="psnr", target=float(target))
    return spec.cache_key(data_digest(data))


def metric_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return -1.0


def drain(proc, sig=signal.SIGTERM, timeout=60):
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        rc = -9
    out = proc.stdout.read().decode(errors="replace") if proc.stdout else ""
    return rc, out


def run(workdir: str = ".") -> int:
    work = Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")

    member_ports = (BASE_PORT + 1, BASE_PORT + 2)
    peers = [f"http://127.0.0.1:{p}" for p in member_ports]
    cache_dir = work / "cache"

    members = {}
    for name, port in zip("ab", member_ports):
        members[f"http://127.0.0.1:{port}"] = spawn(
            [
                "serve", "--port", str(port), "--workers", "2",
                "--pool", "thread", "--grace", "30",
                "--ledger", str(work / f"member-{name}.jsonl"),
                "--cache", "--cache-dir", str(cache_dir),
            ],
            env,
        )

    topo = work / "topology.json"
    topo.write_text(json.dumps({
        "peers": peers,
        "probe_interval_s": 0.5,
        "max_retries": 2,
    }))
    coordinator = spawn(
        ["cluster", "serve", "--topology", str(topo),
         "--port", str(BASE_PORT)],
        env,
    )
    co = ServiceClient(f"http://127.0.0.1:{BASE_PORT}", timeout=300.0)
    survivors = dict(members)
    try:
        for url in peers:
            check(
                f"member {url} ready",
                wait_ready(ServiceClient(url, timeout=30.0)),
            )
        check("coordinator ready (both members alive)", wait_ready(co))

        # -- stage 3: routed compress, blob bit-identical ---------------
        doc = co._json("POST", "/v1/compress", {
            "dataset": DATASET, "field": "CLDHGH",
            "mode": "psnr", "target": TARGET, "codec": "sz",
        })
        check("routed compress done", doc.get("state") == "done")
        owner = doc.get("cluster", {}).get("node")
        check("result carries cluster provenance", owner in peers)
        cid = str(doc["coordinator_id"])
        blob = co.fetch_blob(cid)
        data = get_dataset(DATASET).field("CLDHGH")
        serial_blob = FixedPSNRCompressor(TARGET, codec="sz").compress(data)
        check("routed blob bit-identical to serial", blob == serial_blob)

        # -- stage 4: scatter-gather sweep == serial sweep --------------
        sweep1 = co._json("POST", "/v1/sweep", {
            "dataset": DATASET,
            "targets": [40.0, TARGET],
            "fields": ["CLDHGH", "CLDLOW"],
        })
        check(
            "sweep scattered with zero failed shards",
            sweep1["state"] == "done"
            and sweep1["n_tasks"] == 4
            and sweep1["n_failed"] == 0,
        )
        rows = [FieldResult.from_dict(r) for r in sweep1["rows"]]
        serial = sweep_dataset(
            DATASET, targets=[40.0, TARGET], fields=["CLDHGH", "CLDLOW"]
        )
        check("sweep rows bit-identical to serial", rows == serial)

        # -- stage 5: SIGKILL a member, sweep completes via failover ----
        targets2 = [45.0, 65.0]
        fields2 = ["CLDHGH", "CLDLOW", "CLDMED"]
        ring = HashRing(peers, vnodes=VNODES)
        # Victim = owner of the sweep's last task, so at least one
        # shard is forced through the failover path.
        victim_url = ring.owner(route_key(fields2[-1], targets2[-1]))
        victim = survivors.pop(victim_url)
        victim.kill()  # SIGKILL: no drain, no goodbye
        victim.wait(timeout=30)
        check("victim SIGKILLed", victim.poll() is not None)

        sweep2 = co._json("POST", "/v1/sweep", {
            "dataset": DATASET, "targets": targets2, "fields": fields2,
        })
        check(
            "post-kill sweep completed via failover",
            sweep2["state"] == "done"
            and sweep2["n_tasks"] == len(targets2) * len(fields2)
            and sweep2["n_failed"] == 0,
        )
        rows2 = [
            dataclasses.replace(FieldResult.from_dict(r), attempts=1)
            for r in sweep2["rows"]
        ]
        serial2 = sweep_dataset(DATASET, targets=targets2, fields=fields2)
        check("failover rows bit-identical to serial", rows2 == serial2)

        nodes = co._json("GET", "/cluster/nodes")
        check(
            "victim marked not alive",
            nodes["states"][victim_url]["status"] != "alive",
        )
        coord_metrics = co.metrics_text()
        check(
            "failover counter nonzero",
            metric_value(coord_metrics, "fpzc_cluster_failovers_total") >= 1,
        )
        check(
            "jobs-routed counter counts all shards",
            metric_value(coord_metrics, "fpzc_cluster_jobs_routed_total")
            >= 1 + 4 + len(targets2) * len(fields2),
        )

        # -- stage 6: merged metrics scrape -----------------------------
        merged = co._json("GET", "/cluster/metrics?format=json")
        states = merged["cluster"]["members"]
        survivor_url = next(iter(survivors))
        check(
            "survivor snapshot merged",
            states.get(survivor_url) == "merged",
        )
        check(
            "victim snapshot skipped or unreachable",
            states.get(victim_url) in ("skipped", "unreachable"),
        )
        status, _, data2 = co._request("GET", "/cluster/metrics")
        check("merged scrape answers 200", status == 200)
        text = data2.decode()
        check(
            "merged scrape carries cluster + member families",
            "fpzc_cluster_jobs_routed_total" in text
            and "fpzc_service_jobs_submitted_total" in text,
        )
    finally:
        rc_co, out_co = drain(coordinator)
        rc_members = {}
        for url, proc in survivors.items():
            rc_members[url], out = drain(proc)
            if out:
                print(f"--- member {url} output ---")
                print(out)
        if out_co:
            print("--- coordinator output ---")
            print(out_co)
    check("SIGTERM drains coordinator to exit 0", rc_co == 0)
    check(
        "SIGTERM drains surviving member to exit 0",
        all(rc == 0 for rc in rc_members.values()),
    )
    print("cluster smoke: all stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "."))
