"""End-to-end tests for the compression service.

Each test drives a real :class:`~repro.service.testing.ServiceThread`
-- actual sockets, the full asyncio dispatcher, a live executor --
with the blocking :class:`~repro.service.client.ServiceClient`, and
covers the contractual edge cases: admission control (429 +
``Retry-After``), per-job deadlines (``timeout`` + resilience
metrics), cancel-while-running, drain completing in-flight work, and
the differential guarantee that served blobs are bit-identical to the
serial CLI pipeline.
"""

import concurrent.futures
import re
import threading
import time

import numpy as np
import pytest

from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.datasets.registry import get_dataset
from repro.errors import ErrorCode
from repro.metrics.distortion import psnr
from repro.errors import TransportError
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import COMPRESS_MODES
from repro.service.testing import ServiceThread

DATASET = "ATM"
FIELD = "CLDHGH"
TARGET = 60.0

#: Conformance band for plain-sz ATM fields (paper Table 4 territory).
PSNR_BAND_DB = 5.0


def _metric(text: str, name: str) -> float:
    """Value of a counter/gauge in Prometheus exposition text."""
    match = re.search(rf"^{re.escape(name)} ([0-9.eE+-]+)$", text, re.M)
    assert match, f"{name} not found in /metrics"
    return float(match.group(1))


def _hang_payload(hang_s: float, **extra):
    doc = {
        "dataset": DATASET,
        "field": FIELD,
        "target": TARGET,
        "fault": {
            "kind": "hang",
            "fields": [FIELD],
            "hang_seconds": hang_s,
        },
    }
    doc.update(extra)
    return doc


def _wait_running(client, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.status(job_id)
        if doc["state"] != "queued":
            return doc
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never left the queue")


@pytest.fixture(scope="module")
def svc():
    with ServiceThread(no_ledger=True) as st:
        yield st


class TestHappyPath:
    def test_ops_endpoints(self, svc):
        client = svc.client()
        health = client.healthz()
        assert health["ok"] and not health["draining"]
        assert client.readyz()
        text = client.metrics_text()
        assert _metric(text, "fpzc_service_requests_total") > 0

    def test_compress_matches_serial_pipeline(self, svc):
        client = svc.client()
        job = client.submit_compress(DATASET, FIELD, target=TARGET)
        doc = client.wait(job)
        assert doc["state"] == "done"
        result = doc["result"]
        assert abs(result["achieved_psnr"] - TARGET) < PSNR_BAND_DB
        assert result["ratio"] > 1.0
        assert result["eb_rel"] > 0

        blob = client.fetch_blob(job)
        data = get_dataset(DATASET).field(FIELD)
        serial = FixedPSNRCompressor(TARGET, codec="sz").compress(data)
        assert blob == serial  # bit-identical to the CLI path
        recon = FixedPSNRCompressor.decompress(blob)
        assert psnr(data, recon) == pytest.approx(
            result["achieved_psnr"], abs=1e-6
        )

    def test_blob_base64_in_status(self, svc):
        import base64

        client = svc.client()
        job = client.submit_compress(DATASET, "CLDLOW", target=50.0)
        client.wait(job)
        doc = client._json("GET", f"/v1/jobs/{job}?blob=base64")
        blob = base64.b64decode(doc["blob_base64"])
        assert blob == client.fetch_blob(job)

    def test_keep_blob_false(self, svc):
        client = svc.client()
        job = client.submit(
            "compress",
            {
                "dataset": DATASET,
                "field": FIELD,
                "target": TARGET,
                "keep_blob": False,
            },
        )
        doc = client.wait(job)
        assert doc["state"] == "done" and doc["has_blob"] is False
        with pytest.raises(ServiceError) as exc:
            client.fetch_blob(job)
        assert exc.value.status == 404

    def test_sweep_job(self, svc):
        client = svc.client()
        job = client.submit(
            "sweep",
            {
                "dataset": DATASET,
                "fields": ["CLDHGH", "CLDLOW"],
                "targets": [50.0, 60.0],
            },
        )
        doc = client.wait(job, timeout=180)
        assert doc["state"] == "done"
        result = doc["result"]
        assert result["n_tasks"] == 4
        assert all(r["status"] == "ok" for r in result["results"])

    def test_autotune_job(self, svc):
        client = svc.client()
        job = client.submit(
            "autotune",
            {"dataset": DATASET, "field": FIELD, "target": TARGET},
        )
        doc = client.wait(job, timeout=180)
        assert doc["state"] == "done"
        assert abs(doc["result"]["achieved"] - TARGET) < PSNR_BAND_DB

    def test_error_paths(self, svc):
        client = svc.client()
        with pytest.raises(ServiceError) as exc:
            client.status("j999999")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client.submit("compress", {"dataset": DATASET})  # no field
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.submit("transmogrify", {"dataset": DATASET})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._json("PUT", "/v1/jobs/j000001")
        assert exc.value.status == 405
        with pytest.raises(ServiceError) as exc:
            client._json("GET", "/nope")
        assert exc.value.status == 404

    def test_fault_specs_rejected_by_default(self, svc):
        client = svc.client()
        with pytest.raises(ServiceError) as exc:
            client.submit("compress", _hang_payload(0.1))
        assert exc.value.status == 400

    def test_concurrent_clients_bit_identical(self, svc):
        """The ISSUE's differential test: >= 8 parallel clients, each
        blob bit-identical to the serial pipeline on the same field."""
        fields = ["CLDHGH", "CLDLOW", "CLDMED", "CLDTOT"]
        targets = [55.0, 60.0]
        work = [(f, t) for f in fields for t in targets]
        assert len(work) == 8

        ds = get_dataset(DATASET)
        serial = {
            (f, t): FixedPSNRCompressor(t, codec="sz").compress(ds.field(f))
            for f, t in work
        }

        def one(item):
            f, t = item
            client = svc.client(timeout=120)
            job = client.submit_compress(DATASET, f, target=t)
            doc = client.wait(job, timeout=120)
            assert doc["state"] == "done", doc
            return item, client.fetch_blob(job)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as tp:
            blobs = dict(tp.map(one, work))
        for item in work:
            assert blobs[item] == serial[item], f"blob drift for {item}"

        text = svc.client().metrics_text()
        assert _metric(text, "fpzc_service_jobs_completed_total") >= 8
        # Every dispatch observes the batch + queue-latency histograms.
        assert _metric(text, "fpzc_service_batch_size_count") > 0
        assert _metric(text, "fpzc_service_queue_seconds_count") > 0


def _cli_target(mode: str) -> float:
    """A representative target per compress mode on DATASET/FIELD."""
    if mode == "mse":
        vr = float(np.ptp(get_dataset(DATASET).field(FIELD)))
        return (vr * 1e-3) ** 2
    return {"psnr": TARGET, "nrmse": 1e-3, "ratio": 8.0}[mode]


class TestCliParity:
    """One request definition: for every mode the service accepts, the
    served blob is the one ``fpzc compress`` writes for the same field
    and target, and ``achieved`` is measured in the mode's own unit."""

    @pytest.mark.parametrize("mode", COMPRESS_MODES)
    def test_served_blob_equals_cli_blob(self, svc, mode, tmp_path):
        from repro.cli.main import main
        from repro.metrics.distortion import mse, nrmse

        data = get_dataset(DATASET).field(FIELD)
        np.save(tmp_path / "f.npy", data)
        target = _cli_target(mode)
        out = tmp_path / "f.fpz"
        assert main([
            "compress", str(tmp_path / "f.npy"), "-o", str(out),
            f"--{mode}", repr(target),
        ]) == 0
        client = svc.client()
        job = client.submit_compress(DATASET, FIELD, mode=mode, target=target)
        doc = client.wait(job, timeout=180)
        assert doc["state"] == "done"
        blob = client.fetch_blob(job)
        assert blob == out.read_bytes()
        recon = FixedPSNRCompressor.decompress(blob)
        measured = {
            "psnr": psnr, "nrmse": nrmse, "mse": mse,
            "ratio": lambda x, _: x.nbytes / len(blob),
        }[mode](data, recon)
        assert doc["result"]["achieved"] == pytest.approx(measured)
        assert doc["result"]["achieved_psnr"] == pytest.approx(
            psnr(data, recon)
        )


class TestAdmissionControl:
    def test_full_queue_answers_429_with_retry_after(self):
        with ServiceThread(
            n_workers=1,
            batch_max=1,
            queue_limit=2,
            allow_faults=True,
            no_ledger=True,
        ) as st:
            client = st.client()
            busy = client.submit("compress", _hang_payload(1.5))
            _wait_running(client, busy)  # the lone dispatcher is occupied
            fillers = [
                client.submit_compress(DATASET, FIELD, target=TARGET)
                for _ in range(2)
            ]
            # retry_429=0 restores fail-fast admission so the raw 429
            # contract (status + Retry-After hint) stays observable.
            failfast = ServiceClient(st.url, retry_429=0)
            with pytest.raises(ServiceError) as exc:
                failfast.submit_compress(DATASET, FIELD, target=TARGET)
            assert exc.value.status == 429
            assert exc.value.retry_after == pytest.approx(1.0)
            text = client.metrics_text()
            assert _metric(text, "fpzc_service_jobs_rejected_total") >= 1
            # The backlog still drains to completion afterwards.
            for job in [busy] + fillers:
                assert client.wait(job, timeout=60)["state"] == "done"


class TestDeadlines:
    def test_running_job_deadline_times_out(self):
        with ServiceThread(
            n_workers=1, batch_max=1, allow_faults=True, no_ledger=True
        ) as st:
            client = st.client()
            before = _metric(
                client.metrics_text(), "fpzc_service_jobs_timeout_total"
            )
            res_before = _metric(
                client.metrics_text(), "fpzc_resilience_task_timeouts_total"
            )
            job = client.submit(
                "compress", _hang_payload(2.0, deadline_s=0.4)
            )
            doc = client.wait(job, timeout=30)
            assert doc["state"] == "timeout"
            assert doc["error_code"] == ErrorCode.TASK_TIMEOUT
            text = client.metrics_text()
            assert (
                _metric(text, "fpzc_service_jobs_timeout_total")
                == before + 1
            )
            assert (
                _metric(text, "fpzc_resilience_task_timeouts_total")
                == res_before + 1
            )

    def test_queued_job_deadline_times_out(self):
        with ServiceThread(
            n_workers=1, batch_max=1, allow_faults=True, no_ledger=True
        ) as st:
            client = st.client()
            busy = client.submit("compress", _hang_payload(1.0))
            _wait_running(client, busy)
            stale = client.submit(
                "compress",
                {
                    "dataset": DATASET,
                    "field": FIELD,
                    "target": TARGET,
                    "deadline_s": 0.2,
                },
            )
            doc = client.wait(stale, timeout=30)
            assert doc["state"] == "timeout"
            assert "while queued" in doc["error"]


class TestCancellation:
    def test_cancel_while_running(self):
        with ServiceThread(
            n_workers=1, batch_max=1, allow_faults=True, no_ledger=True
        ) as st:
            client = st.client()
            job = client.submit("compress", _hang_payload(2.0))
            _wait_running(client, job)
            t0 = time.monotonic()
            client.cancel(job)
            doc = client.wait(job, timeout=10)
            assert doc["state"] == "cancelled"
            # Cancellation is cooperative but prompt: well before the
            # 2s the abandoned pool attempt would have needed.
            assert time.monotonic() - t0 < 1.5
            text = client.metrics_text()
            assert _metric(text, "fpzc_service_jobs_cancelled_total") >= 1

    def test_cancel_while_queued(self):
        with ServiceThread(
            n_workers=1, batch_max=1, allow_faults=True, no_ledger=True
        ) as st:
            client = st.client()
            busy = client.submit("compress", _hang_payload(1.0))
            _wait_running(client, busy)
            queued = client.submit_compress(DATASET, FIELD, target=TARGET)
            doc = client.cancel(queued)
            assert doc["state"] == "cancelled"
            assert client.status(queued)["state"] == "cancelled"


class TestRetries:
    def test_injected_crash_recovers_on_retry(self):
        with ServiceThread(
            allow_faults=True, no_ledger=True
        ) as st:
            client = st.client()
            job = client.submit(
                "compress",
                {
                    "dataset": DATASET,
                    "field": FIELD,
                    "target": TARGET,
                    "fault": {
                        "kind": "exception",
                        "fields": [FIELD],
                        "fail_attempts": 1,
                    },
                },
            )
            doc = client.wait(job, timeout=60)
            assert doc["state"] == "done"
            assert doc["attempts"] == 2

    def test_persistent_crash_exhausts_and_fails(self):
        with ServiceThread(
            allow_faults=True, no_ledger=True
        ) as st:
            client = st.client()
            job = client.submit(
                "compress",
                {
                    "dataset": DATASET,
                    "field": FIELD,
                    "target": TARGET,
                    "fault": {
                        "kind": "exception",
                        "fields": [FIELD],
                        "fail_attempts": 99,
                    },
                },
            )
            doc = client.wait(job, timeout=60)
            assert doc["state"] == "failed"
            assert doc["error_code"] == ErrorCode.TASK_FAILED
            assert "InjectedWorkerError" in doc["error"]


class TestDrain:
    def test_drain_completes_inflight_jobs(self):
        st = ServiceThread(no_ledger=True).start()
        try:
            client = st.client()
            jobs = [
                client.submit_compress(DATASET, f, target=TARGET)
                for f in ("CLDHGH", "CLDLOW", "CLDMED")
            ]
        finally:
            # Drain: queued + in-flight work must finish.  Generous
            # grace -- the contract under test is completion, not
            # latency, and the default 10 s can expire under the
            # full-suite load of a shared CI box.
            st.stop(grace=120.0)
        states = {jid: st.service.jobs[jid].state for jid in jobs}
        assert set(states.values()) == {"done"}, states

    def test_drain_waits_for_jobs_gathered_into_a_batch(self):
        """Regression: a dispatcher that popped jobs and is still inside
        its batch window holds them outside the queue.  Drain must count
        them as in flight instead of cancelling the dispatchers and
        stranding them as ``queued``."""
        st = ServiceThread(no_ledger=True, batch_window_s=0.5).start()
        try:
            client = st.client()
            jobs = [
                client.submit_compress(DATASET, f, target=TARGET)
                for f in ("CLDHGH", "CLDLOW", "CLDMED")
            ]
        finally:
            st.stop(grace=120.0)
        states = {jid: st.service.jobs[jid].state for jid in jobs}
        assert set(states.values()) == {"done"}, states

    def test_draining_service_refuses_submissions(self):
        st = ServiceThread(no_ledger=True).start()
        client = st.client()
        service, loop = st.service, st.loop

        seen = {}

        def probe():
            # Poll during the drain window: once draining, /readyz must
            # flip to 503 while /healthz stays 200.
            for _ in range(200):
                try:
                    if not client.readyz():
                        seen["readyz_503"] = True
                        seen["healthz"] = client.healthz()
                        return
                except (ServiceError, TransportError):
                    return  # socket already closed: too late, no signal
                time.sleep(0.002)

        thread = threading.Thread(target=probe)
        thread.start()
        import asyncio

        asyncio.run_coroutine_threadsafe(
            service.shutdown(grace=5.0), loop
        ).result(timeout=30)
        thread.join(timeout=10)
        st.stop()
        # Both observations are timing-dependent (the drain window may
        # close before the probe lands), but when seen they must agree.
        health = seen.get("healthz")
        if health is not None:
            assert health["draining"] is True


class TestLedgerIntegration:
    def test_service_runs_land_in_ledger_and_drift(self, tmp_path):
        from repro.cli.main import main
        from repro.telemetry.ledger import read_entries

        ledger = str(tmp_path / "ledger.jsonl")
        with ServiceThread(ledger=ledger) as st:
            client = st.client()
            for field in (FIELD, "CLDLOW"):
                job = client.submit_compress(DATASET, field, target=TARGET)
                assert client.wait(job)["state"] == "done"

        entries, skipped = read_entries(path=ledger)
        assert skipped == 0
        assert len(entries) == 2
        for entry in entries:
            assert entry.kind == "compress"
            assert entry.dataset == DATASET
            assert entry.target_psnr == TARGET
            assert abs(entry.achieved_psnr - TARGET) < PSNR_BAND_DB
            service_extra = entry.extra["service"]
            assert service_extra["job_id"].startswith("j")
            conf = entry.extra["conformance"]
            assert conf["predicted_psnr"] > 0
            assert conf["achieved_psnr"] == entry.achieved_psnr

        # The drift monitor charts service traffic with no special
        # casing -- same schema as CLI runs.
        assert main(["drift", "--ledger", ledger]) == 0
