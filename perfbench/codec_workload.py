"""``codec``: the paper's own measurement, single-threaded, in-process.

Fixed-PSNR compress then decompress over a fixed corpus of synthesized
fields (``gen.CODEC_CASES``), in whole passes, until the run's seconds
are spent.  The seed orders the cases of each pass.  No HTTP, pool, cache or field synthesis sits
in the timed region.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import gen
from calib import HostClock
from pipeline import StageTotals, bound_ok, roundtrip
from procs import tree_hwm_mb
from repro.datasets.registry import get_dataset
from repro.metrics.distortion import psnr
from stats import gmean, mean, median, percentile, share
from workloads import SETUPS, TIMINGS, Outcome

__all__ = ["run_codec", "synthesize"]


def synthesize() -> Tuple[Dict, Dict]:
    """The corpus fields and each one's synthesis seconds."""
    fields, seconds = {}, {}
    for key in gen.codec_fields():
        ds, name, scale = key
        t0 = time.perf_counter()
        fields[key] = get_dataset(ds, scale=scale).field(name)
        seconds[key] = time.perf_counter() - t0
    return fields, seconds


class _Pass:
    """Per-case samples of one or more corpus passes."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, float, float]] = []
        self.psnr: Dict[int, float] = {}
        self.ratio: Dict[int, float] = {}
        self.psnr_s: List[float] = []
        self.failed = 0  # raised, or reconstructed outside the bound
        self.wrong = 0   # reconstructed outside the bound
        self.errors: List[str] = []


def _run_case(fields, idx: int, out: _Pass, traced: bool, stages=None,
              clock=None) -> None:
    ds, name, scale, target, codec = gen.CODEC_CASES[idx]
    data = fields[(ds, name, scale)]
    try:
        blob, recon, c_s, d_s, traces = roundtrip(data, target, codec, traced)
    except Exception as exc:  # noqa: BLE001 -- counted and reported, not fatal
        out.failed += 1
        out.errors.append(f"case {gen.CODEC_CASES[idx]} raised {exc!r}")
        return
    out.samples.append((idx, c_s, d_s))
    t0 = time.perf_counter()
    out.psnr[idx] = float(psnr(data, recon))
    out.psnr_s.append(time.perf_counter() - t0)
    out.ratio[idx] = data.nbytes / len(blob)
    if not bound_ok(data, recon, blob, target, codec):
        out.failed += 1
        out.wrong += 1
        out.errors.append(f"case {gen.CODEC_CASES[idx]} exceeds its error bound")
    if stages is not None:
        stages.add(blob, traces)
    if clock is not None:
        clock.sample()


def _one_pass(fields, seed: int, pass_index: int, traced: bool, stages=None,
              clock=None) -> _Pass:
    out = _Pass()
    for idx in gen.codec_pass_order(seed, pass_index):
        _run_case(fields, idx, out, traced, stages, clock)
    return out


def _timed_passes(fields, seed: int, seconds: float, clock: HostClock) -> _Pass:
    """Whole corpus passes until ``seconds`` have elapsed; the host clock
    is sampled between cases, outside their timing."""
    out = _Pass()
    t_end = time.perf_counter() + seconds
    pass_index = 0
    while pass_index == 0 or time.perf_counter() < t_end:
        for idx in gen.codec_pass_order(seed, pass_index):
            _run_case(fields, idx, out, False, clock=clock)
        pass_index += 1
    return out


def _end_to_end(fields, run: _Pass, setup_s: float) -> Dict[str, float]:
    """Each case contributes the median of its samples."""
    if not run.samples:
        raise RuntimeError("every codec case raised")
    per_case: Dict[int, Tuple[List[float], List[float]]] = {}
    for idx, c_s, d_s in run.samples:
        c, d = per_case.setdefault(idx, ([], []))
        c.append(c_s)
        d.append(d_s)
    total_mb = sum(
        fields[gen.CODEC_CASES[idx][:3]].nbytes for idx in per_case
    ) / 1e6
    comp = [median(c) for c, _d in per_case.values()]
    decomp = [median(d) for _c, d in per_case.values()]
    trips = [c + d for c, d in zip(comp, decomp)]
    return {
        "setup_s": setup_s,
        "compress_mbps": total_mb / sum(comp),
        "decompress_mbps": total_mb / sum(decomp),
        "psnr_dev_db": mean(
            abs(run.psnr[i] - gen.CODEC_CASES[i][3]) for i in run.psnr
        ),
        "ratio_gmean": gmean(run.ratio.values()),
        "job_p50_s": percentile(trips, 50),
        "job_p90_s": percentile(trips, 90),
        "jobs_per_s": len(trips) / sum(trips),
        "ok_share": 1.0 - share(run.failed, len(run.samples) + run.failed),
        "peak_rss_mb": tree_hwm_mb([os.getpid()]),
    }


def run_codec(seed: int, seconds: float, traced: bool) -> Outcome:
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        fields, synth_s = synthesize()
        setups.append(time.perf_counter() - t0)
    setup_s = median(setups)

    clock = HostClock()
    if not traced:
        run = _timed_passes(fields, seed, seconds, clock)
        attempted = len(run.samples) + run.failed
        return Outcome(
            metrics=_end_to_end(fields, run, setup_s),
            attempted=attempted,
            failed=run.failed,
            correct=run.wrong == 0,
            slowness=clock.slowness(),
            scaled=TIMINGS,
            notes=run.errors,
        )

    plain = _one_pass(fields, seed, 0, traced=False, clock=clock)
    stages = StageTotals()
    traced_run = _one_pass(fields, seed, 1, traced=True, stages=stages, clock=clock)
    plain_s = sum(c + d for _i, c, d in plain.samples)
    traced_s = sum(c + d for _i, c, d in traced_run.samples)
    metrics = stages.metrics()
    n = len(traced_run.samples)
    attempted = n + len(plain.samples) + plain.failed + traced_run.failed
    failed = plain.failed + traced_run.failed
    metrics.update({
        "datasets.field_s": mean(synth_s.values()),
        "sz.compress_s": sum(c for _i, c, _d in traced_run.samples) / n,
        "sz.decompress_s": sum(d for _i, _c, d in traced_run.samples) / n,
        "metrics.psnr_s": mean(traced_run.psnr_s),
        "observe.overhead_share": (traced_s - plain_s) / plain_s,
        "error_share": share(failed, attempted),
        "jobs_timed": float(n),
    })
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        correct=plain.wrong + traced_run.wrong == 0,
        slowness=clock.slowness(),
        scaled=TIMINGS,
        notes=plain.errors + traced_run.errors,
    )
