"""Pool-side execution of service jobs.

These functions are what actually runs inside the service's worker
pool (process or thread, see
:class:`repro.parallel.executor.Executor`), so they are module-level
and operate on plain dict specs -- both requirements for pickling into
worker processes.  Each returns a plain dict result: status, achieved
values, the compressed blob (when requested) and, when tracing is on,
the picklable span records for the dispatcher to merge into the
service trace.

The compress path runs the **same kernel** as ``fpzc compress``:
both build a :class:`repro.core.spec.CompressSpec` and call its
``run`` (the closed-form Eq. 8 pipeline for psnr/nrmse/mse targets,
an autotune search for ratio targets), so for every mode a blob served
over HTTP is bit-identical to one written by ``fpzc compress`` for the
same field and target -- the differential contract the e2e tests
assert.

``fault`` specs (deterministic worker faults from
:mod:`repro.resilience.inject`) only take effect when the service was
started with ``allow_faults`` -- they exist so the edge-case tests can
provoke hangs, crashes and poisoned results on demand.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import repro.observe as observe

__all__ = [
    "compress_result",
    "run_compress_job",
    "run_sweep_job",
    "run_autotune_job",
]


def _spec_fault(spec: Dict):
    doc = spec.get("fault")
    if not doc:
        return None
    from repro.resilience.inject import WorkerFault

    return WorkerFault(
        kind=doc.get("kind", "exception"),
        fields=tuple(doc.get("fields") or ()),
        fail_attempts=int(doc.get("fail_attempts", 1)),
        hang_seconds=float(doc.get("hang_seconds", 5.0)),
    )


def _spec_cache(spec: Dict):
    """The shared :class:`repro.cache.CacheStore` named by the spec's
    ``cache`` document, or ``None`` when the service runs uncached."""
    doc = spec.get("cache")
    if not doc:
        return None
    from repro.cache import CacheStore

    return CacheStore(root=doc.get("dir"), max_bytes=doc.get("max_bytes"))


def _maybe_poisoned(spec: Dict) -> Optional[Dict]:
    """Apply a deterministic fault; ``None`` means proceed, a dict is
    a poisoned result to return verbatim (the dispatcher classifies
    it)."""
    fault = _spec_fault(spec)
    if fault is None:
        return None
    from repro.resilience.inject import apply_worker_fault

    poisoned = apply_worker_fault(
        fault, spec.get("field", ""), int(spec.get("attempt", 0))
    )
    if poisoned is not None:
        return {"status": "poisoned"}
    return None


def run_compress_job(spec: Dict) -> Dict:
    """One fixed-target compression: dataset field in, blob out.

    The payload becomes a :class:`repro.core.spec.CompressSpec` and runs
    its kernel.  The result dict always carries ``achieved_psnr``
    (measured on the reconstruction) so conformance tracking works for
    every mode, and ``achieved`` in the mode's own unit.  ``ratio``
    searches never touch the blob cache: their trajectory depends on
    what the store already holds.
    """
    poisoned = _maybe_poisoned(spec)
    if poisoned is not None:
        return poisoned
    from repro.core.spec import CompressSpec
    from repro.datasets.registry import get_dataset

    t0 = time.perf_counter()
    ds = get_dataset(spec["dataset"], scale=spec.get("scale"))
    data = ds.field(spec["field"])
    cspec = CompressSpec.from_json(spec)
    store = _spec_cache(spec) if cspec.mode != "ratio" else None
    labels = {"dataset": spec["dataset"], "field": spec["field"]}
    local = observe.Trace() if spec.get("traced") else None
    if local is not None:
        with observe.use_trace(local), local.span("service.task") as sp:
            out = cspec.run(data, store, labels=labels)
            sp.set("target", cspec.target)
    else:
        out = cspec.run(data, store, labels=labels)
    result = compress_result(
        cspec, out, int(data.nbytes), time.perf_counter() - t0
    )
    if spec.get("keep_blob", True):
        result["blob"] = out.blob
    if local is not None:
        result["records"] = [r.as_dict() for r in local.records]
    return result


def compress_result(cspec, out, raw_bytes: int, seconds: float) -> Dict:
    """The result document of a compress job, fresh or replayed from
    the cache (the blob travels separately)."""
    result = {
        "status": "ok",
        "mode": cspec.mode,
        "target": cspec.target,
        "eb_rel": out.eb_rel,
        "achieved": out.achieved,
        "achieved_psnr": out.achieved_psnr,
        "converged": out.converged,
        "raw_bytes": raw_bytes,
        "compressed_bytes": len(out.blob),
        "ratio": raw_bytes / len(out.blob),
        "seconds": seconds,
    }
    if out.cached:
        result["cached"] = True
    return result


def run_sweep_job(spec: Dict, executor=None) -> Dict:
    """A full fixed-PSNR sweep (every requested field x target).

    Runs in the service process (a worker thread of the event loop's
    default pool) and fans out over the service's long-lived
    :class:`~repro.parallel.executor.Executor` -- the per-call pool
    startup the executor satellite removed.
    """
    poisoned = _maybe_poisoned(spec)
    if poisoned is not None:
        return poisoned
    from repro.parallel.executor import sweep_dataset

    t0 = time.perf_counter()
    results = sweep_dataset(
        spec["dataset"],
        targets=[float(t) for t in spec["targets"]],
        fields=list(spec["fields"]) or None,
        scale=spec.get("scale"),
        refine=spec.get("refine"),
        codec=spec.get("codec", "sz"),
        executor=executor,
        cache=_spec_cache(spec),
    )
    rows = [r.as_dict() for r in results]
    for row in rows:
        row.pop("metrics", None)
    met = sum(1 for r in results if r.ok and r.met)
    return {
        "status": "ok",
        "n_tasks": len(results),
        "n_met": met,
        "results": rows,
        "seconds": time.perf_counter() - t0,
    }


def run_autotune_job(spec: Dict, executor=None) -> Dict:
    """One autotune search over a dataset field, with the probe fan on
    the service's executor."""
    poisoned = _maybe_poisoned(spec)
    if poisoned is not None:
        return poisoned
    from repro.autotune import autotune
    from repro.datasets.registry import get_dataset

    t0 = time.perf_counter()
    ds = get_dataset(spec["dataset"], scale=spec.get("scale"))
    data = ds.field(spec["field"])
    result = autotune(
        data,
        spec.get("mode", "psnr"),
        float(spec["target"]),
        codec=spec.get("codec", "sz"),
        tol=float(spec.get("tol", 0.05)),
        max_trials=int(spec.get("max_trials", 12)),
        executor=executor,
        keep_blob=bool(spec.get("keep_blob", True)),
    )
    out = result.as_dict()
    out.update(
        {
            "status": "ok",
            "raw_bytes": int(data.nbytes),
            "seconds": time.perf_counter() - t0,
        }
    )
    if spec.get("keep_blob", True) and result.blob is not None:
        out["blob"] = result.blob
        out["compressed_bytes"] = len(result.blob)
        out["ratio"] = data.nbytes / len(result.blob)
    return out
