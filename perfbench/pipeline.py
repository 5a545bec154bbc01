"""Codec-side timing and checking shared by all three workloads.

Compress-side stages are read from the program's own ``repro.observe``
spans (switched on with ``observe.use_trace``).  Decompress-side stages
have no spans inside the program, so :func:`replay_decode` times them
from here, by running ``Container.from_bytes``, ``lossless_decompress``
and ``CanonicalHuffman.decode`` on the blob's own streams.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

import repro.observe as observe
from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.datasets.registry import get_dataset
from repro.encoding.huffman import CanonicalHuffman
from repro.encoding.lossless import lossless_decompress, method_name
from repro.io.container import CODEC_SZ, Container
from repro.metrics.distortion import psnr
from stats import median

__all__ = [
    "COMPRESS_STAGES",
    "DECODE_STAGES",
    "STAGE_METRICS",
    "roundtrip",
    "bound_ok",
    "replay_decode",
    "StageTotals",
    "Replay",
]

#: Program span name -> per-layer metric, compress side.
COMPRESS_STAGES = {
    "derive_bound": "core.derive_bound_s",
    "quantize": "sz.quantize_s",
    "escape": "sz.escape_s",
    "huffman.build": "encoding.huffman_build_s",
    "huffman.encode": "encoding.huffman_encode_s",
    "lossless": "encoding.lossless_encode_s",
    "pack": "io.pack_s",
}

#: Decompress side: three timed from here, one read from its span.
DECODE_STAGES = (
    "io.parse_s",
    "encoding.lossless_decode_s",
    "encoding.huffman_decode_s",
    "sz.reconstruct_s",
)

STAGE_METRICS = tuple(COMPRESS_STAGES.values()) + DECODE_STAGES

#: Relative slack for float arithmetic in the pointwise bound check (the
#: same slack the repository's round-trip property tests use).
_BOUND_SLACK = 1e-5


def roundtrip(data: np.ndarray, target: float, codec: str, traced: bool = False):
    """Fixed-PSNR compress then decompress one field.

    Returns ``(blob, recon, compress_s, decompress_s, traces)`` where
    ``traces`` is ``(compress_trace, decompress_trace)`` when ``traced``
    and ``None`` otherwise.
    """
    comp = FixedPSNRCompressor(target, codec=codec)
    if not traced:
        t0 = time.perf_counter()
        blob = comp.compress(data)
        t1 = time.perf_counter()
        recon = comp.decompress(blob)
        t2 = time.perf_counter()
        return blob, recon, t1 - t0, t2 - t1, None
    ct, dt = observe.Trace(), observe.Trace()
    with observe.use_trace(ct):
        t0 = time.perf_counter()
        blob = comp.compress(data)
        t1 = time.perf_counter()
    with observe.use_trace(dt):
        recon = comp.decompress(blob)
        t2 = time.perf_counter()
    return blob, recon, t1 - t0, t2 - t1, (ct, dt)


def bound_ok(data: np.ndarray, recon: np.ndarray, blob: bytes, target: float,
             codec: str) -> bool:
    """The paper's guarantee: ``max|x - x~| <= eb_abs`` (Eq. 8's bound
    on this field), plus the rounding of the final cast to the storage
    dtype.  The block-DCT codec bounds only the l2 error; its documented
    pointwise worst case is ``eb_abs * m**(d/2)`` for block size ``m``."""
    x = data.astype(np.float64)
    err = float(np.max(np.abs(x - recon.astype(np.float64))))
    eb_abs = FixedPSNRCompressor(target, codec=codec).expected_absolute_bound(data)
    if codec == "transform":
        m = int(Container.from_bytes(blob).meta["block_size"])
        eb_abs *= m ** (data.ndim / 2.0)
    ulp = float(np.finfo(data.dtype).eps) * float(np.max(np.abs(x)))
    return err <= eb_abs * (1 + _BOUND_SLACK) + ulp + 1e-12


def replay_decode(blob: bytes) -> Optional[Dict[str, float]]:
    """Time the decode sub-steps of an SZ/Huffman container from outside
    the program.  ``None`` for containers of other codecs or coders."""
    t0 = time.perf_counter()
    container = Container.from_bytes(blob)
    t1 = time.perf_counter()
    meta = container.meta
    if (
        container.codec != CODEC_SZ
        or int(meta.get("entropy", 0)) != 0
        or "constant" in meta
        or "total_bits" not in meta
    ):
        return None
    lossless = method_name(int(meta["lossless"]))
    table = lossless_decompress(container.stream("table"), lossless)
    payload = lossless_decompress(container.stream("payload"), lossless)
    t2 = time.perf_counter()
    code = CanonicalHuffman.from_table_bytes(table)
    n = int(np.prod([int(s) for s in meta["shape"]]))
    q = code.decode(payload, n, int(meta["total_bits"]))
    t3 = time.perf_counter()
    if q.size != n:
        raise RuntimeError("replayed Huffman decode returned a wrong count")
    return {
        "io.parse_s": t1 - t0,
        "encoding.lossless_decode_s": t2 - t1,
        "encoding.huffman_decode_s": t3 - t2,
        "max_code_len": float(code.max_length),
    }


class StageTotals:
    """Accumulates per-job stage seconds and entropy-stage counts over
    traced round trips; :meth:`metrics` reports means per job."""

    def __init__(self) -> None:
        self.jobs = 0
        self.seconds = {name: 0.0 for name in STAGE_METRICS}
        self.total_bits = 0.0
        self.n_symbols = 0.0
        self.alphabet: List[float] = []
        self.hit_ratio: List[float] = []
        self.max_code_len = 0.0

    def add(self, blob: bytes, traces, weight: int = 1) -> None:
        """Fold one traced round trip (and its decode replay) in,
        counted ``weight`` times."""
        ct, dt = traces
        self.jobs += weight
        for rec in ct.records:
            metric = COMPRESS_STAGES.get(rec.path[-1])
            if metric is not None:
                self.seconds[metric] += weight * rec.duration_s
            if rec.path[-1] == "huffman.encode":
                self.total_bits += weight * rec.counters.get("total_bits", 0)
                self.n_symbols += weight * rec.counters.get("n_symbols", 0)
            elif rec.path[-1] == "huffman.build":
                self.alphabet.append(rec.gauges.get("alphabet_size", 0.0))
            elif rec.path[-1] == "escape":
                self.hit_ratio.append(rec.gauges.get("hit_ratio", 0.0))
        for rec in dt.records:
            if rec.path[-1] == "sz.reconstruct":
                self.seconds["sz.reconstruct_s"] += weight * rec.duration_s
        decode = replay_decode(blob)
        if decode is not None:
            for name in DECODE_STAGES[:3]:
                self.seconds[name] += weight * decode[name]
            self.max_code_len = max(self.max_code_len, decode["max_code_len"])

    def metrics(self) -> Dict[str, float]:
        n = max(1, self.jobs)
        out = {name: s / n for name, s in self.seconds.items()}
        out["encoding.bits_per_symbol"] = (
            self.total_bits / self.n_symbols if self.n_symbols else 0.0
        )
        out["encoding.alphabet_size"] = (
            median(self.alphabet) if self.alphabet else 0.0
        )
        out["encoding.max_code_len"] = self.max_code_len
        out["sz.hit_ratio"] = (
            sum(self.hit_ratio) / len(self.hit_ratio) if self.hit_ratio else 0.0
        )
        return out


class Replay:
    """Serial re-run of each distinct job spec a server answered.

    It yields the reference blob every served blob must equal byte for
    byte, the bound check on its reconstruction, and the split of the
    worker's task (field synthesis, compress, verify-decode, PSNR) timed
    in-process.  Fields are synthesized once per (dataset, field).
    """

    def __init__(self, traced: bool, clock=None, decodes: int = 1) -> None:
        self.stages = StageTotals() if traced else None
        self.clock = clock
        #: Decodes per decoded spec; ``decompress_s`` is their median.
        self.decodes = decodes
        self._fields: Dict = {}
        self.entries: Dict = {}
        self.wrong = 0

    def field(self, dataset: str, name: str):
        key = (dataset, name)
        if key not in self._fields:
            t0 = time.perf_counter()
            data = get_dataset(dataset).field(name)
            self._fields[key] = (data, time.perf_counter() - t0)
        return self._fields[key]

    def run(self, spec, decode: bool = True, weight: int = 1) -> None:
        """Replay ``spec = (dataset, field, target, codec)``, counted
        ``weight`` times in the stage means.  Without ``decode`` only the
        reference blob is made."""
        dataset, name, target, codec = spec
        data, field_s = self.field(dataset, name)
        entry: Dict = {"field_s": field_s, "raw_bytes": data.nbytes}
        if decode:
            traced = self.stages is not None
            blob, recon, c_s, d_s, traces = roundtrip(data, target, codec, traced)
            t0 = time.perf_counter()
            psnr(data, recon)
            entry["psnr_s"] = time.perf_counter() - t0
            decode_s = [d_s]
            for _ in range(self.decodes - 1):
                t0 = time.perf_counter()
                FixedPSNRCompressor.decompress(blob)
                decode_s.append(time.perf_counter() - t0)
            entry["decompress_s"] = median(decode_s)
            if not bound_ok(data, recon, blob, target, codec):
                self.wrong += 1
            if traced and weight:
                self.stages.add(blob, traces, weight)
        else:
            t0 = time.perf_counter()
            blob = FixedPSNRCompressor(target, codec=codec).compress(data)
            c_s = time.perf_counter() - t0
        entry["blob"] = blob
        entry["compress_s"] = c_s
        self.entries[spec] = entry
        if decode and self.clock is not None:
            self.clock.sample()
