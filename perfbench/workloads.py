"""Workload dispatch and the result every workload returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = ["Outcome", "SETUPS", "TIMINGS", "run"]

#: Set-up runs per benchmark run; ``setup_s`` is their median and the
#: last one is the system that gets measured.
SETUPS = 3

#: The end-to-end metrics that are timings (units s, MB/s and 1/s).
TIMINGS = (
    "setup_s", "compress_mbps", "decompress_mbps", "job_p50_s", "job_p90_s",
    "jobs_per_s",
)


@dataclass
class Outcome:
    """What one run found: its metrics and its operation counts.

    ``correct`` is false when an output was wrong (a blob that differs
    from the serial pipeline's bytes, or a reconstruction outside the
    error bound).  ``failed`` counts every operation that did not
    deliver: wrong outputs, non-``done`` states, refusals and jobs past
    their deadline.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    #: How many times slower the host ran the calibration kernel than
    #: the reference host (``calib.HostClock.slowness``).
    slowness: float
    #: End-to-end timings reported scaled by ``slowness`` (see run.py).
    scaled: Tuple[str, ...]
    notes: List[str] = field(default_factory=list)


def run(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    if name == "codec":
        from codec_workload import run_codec

        return run_codec(seed, seconds, traced)
    if name == "service":
        from service_workload import run_service

        return run_service(seed, seconds, traced, workdir)
    if name == "cluster_cached":
        from cluster_workload import run_cluster

        return run_cluster(seed, seconds, traced, workdir)
    raise ValueError(f"unknown workload {name!r}")
