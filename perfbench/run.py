"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload codec --seed 1 --seconds 15 --trace 0

``--workload`` is ``codec``, ``service`` or ``cluster_cached`` (see
``perfbench/WORKLOADS.md`` for why each exists and what it predicts).
With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric instead, measured in a separate, traced run.  The
end-to-end timings a workload names in ``Outcome.scaled`` are reported
scaled to the reference host speed measured by ``calib.HostClock`` in
the same run; the raw values and the scale go to standard error.  Outputs are checked
as the run goes; any failed check makes ``correct`` false and the exit
code 1.  The program is imported from ``src/`` of the
checkout this file sits in; without it the command exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: name -> (unit, better).  Mirrors BENCHMARK.json's end_to_end list.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "compress_mbps": ("MB/s", "higher"),
    "decompress_mbps": ("MB/s", "higher"),
    "psnr_dev_db": ("dB", "lower"),
    "ratio_gmean": ("ratio", "higher"),
    "job_p50_s": ("s", "lower"),
    "job_p90_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "ok_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better).  Mirrors BENCHMARK.json's per_layer list.
PER_LAYER = {
    "core.derive_bound_s": ("s", "lower"),
    "sz.quantize_s": ("s", "lower"),
    "sz.escape_s": ("s", "lower"),
    "encoding.huffman_build_s": ("s", "lower"),
    "encoding.huffman_encode_s": ("s", "lower"),
    "encoding.lossless_encode_s": ("s", "lower"),
    "io.pack_s": ("s", "lower"),
    "io.parse_s": ("s", "lower"),
    "encoding.lossless_decode_s": ("s", "lower"),
    "encoding.huffman_decode_s": ("s", "lower"),
    "sz.reconstruct_s": ("s", "lower"),
    "encoding.bits_per_symbol": ("bits", "lower"),
    "encoding.alphabet_size": ("count", "lower"),
    "encoding.max_code_len": ("bits", "lower"),
    "sz.hit_ratio": ("share", "higher"),
    "datasets.field_s": ("s", "lower"),
    "sz.compress_s": ("s", "lower"),
    "sz.decompress_s": ("s", "lower"),
    "metrics.psnr_s": ("s", "lower"),
    "service.client_submit_s": ("s", "lower"),
    "service.client_status_s": ("s", "lower"),
    "service.client_polls_per_job": ("count", "lower"),
    "service.client_fetch_s": ("s", "lower"),
    "service.running_s": ("s", "lower"),
    "service.queued_s": ("s", "lower"),
    "service.batch_mean": ("count", "higher"),
    "service.ready_s": ("s", "lower"),
    "service.jobs_deduped": ("count", "lower"),
    "parallel.task_s": ("s", "lower"),
    "parallel.dispatch_s": ("s", "lower"),
    "parallel.pool_warm_s": ("s", "lower"),
    "cluster.hit_p50_s": ("s", "lower"),
    "cluster.miss_p50_s": ("s", "lower"),
    "cluster.fetch_s": ("s", "lower"),
    "cluster.route_overhead_s": ("s", "lower"),
    "cluster.owner_share_max": ("share", "lower"),
    "cluster.failovers": ("count", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.hit_ratio": ("share", "higher"),
    "cache.digest_s": ("s", "lower"),
    "cache.key_s": ("s", "lower"),
    "cache.fill_s": ("s", "lower"),
    "observe.overhead_share": ("share", "lower"),
    "error_share": ("share", "lower"),
    "jobs_timed": ("count", "higher"),
    "host.slowness": ("ratio", "lower"),
}

WORKLOADS = ("codec", "service", "cluster_cached")


def host_scaled(value: float, unit: str, slowness: float) -> float:
    """A timing as the reference host would have read it: seconds shrink
    and rates grow by the run's measured slowness; other units pass."""
    if unit == "s":
        return float(value) / slowness
    if unit in ("MB/s", "1/s"):
        return float(value) * slowness
    return float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"error: imported the program from {repro.__file__}", file=sys.stderr)
        return 2

    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    except Exception:  # noqa: BLE001 -- report and fail without a result
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    table = PER_LAYER if args.trace else END_TO_END
    values = dict(outcome.metrics)
    if args.trace:
        values["host.slowness"] = outcome.slowness
    unknown = set(values) - set(table)
    if unknown:
        raise RuntimeError(f"unlisted metrics {sorted(unknown)}")
    if not args.trace:
        missing = set(table) - set(values)
        if missing:
            raise RuntimeError(f"missing end-to-end metrics {sorted(missing)}")
    metrics = {}
    for name, (unit, _better) in table.items():
        # A layer the workload does not cross reads 0.
        value = float(values.get(name, 0.0))
        if name in outcome.scaled:
            value = host_scaled(value, unit, outcome.slowness)
        metrics[name] = {"value": value, "unit": unit}
    for line in outcome.notes:
        print(line, file=sys.stderr)
    print(json.dumps({"slowness": outcome.slowness, "raw": values}), file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
