"""Transform-based lossy compressor (orthonormal block DCT).

Pipeline: centre the data, split into ``m^d`` blocks, orthonormal
DCT-II, uniform midpoint quantization of the coefficients (bin size
``delta = 2*eb``), escape of out-of-radius codes, Huffman + GZIP --
i.e. exactly the second/third stages of the SZ pipeline applied to
transform coefficients instead of prediction errors.

Error semantics differ from SZ, and deliberately so: an orthogonal
transform preserves the *l2 norm* of the quantization error (Theorem
2), so the **MSE** of the output is the coefficient-domain MSE; the
pointwise maximum error is only bounded by ``eb * m**(d/2)`` in the
worst case.  That is the correct setting for fixed-PSNR control, which
is an l2 (not l-infinity) target.
"""

from __future__ import annotations

import numpy as np

import repro.observe as observe
from repro.encoding.lossless import method_id, method_name
from repro.errors import (
    CompressionError,
    FormatError,
    ParameterError,
)
from repro.io.container import (
    CODEC_TRANSFORM,
    Container,
    pack_exact_float,
    unpack_exact_float,
)
from repro.sz.compressor import (
    DEFAULT_RADIUS,
    check_bound,
    decode_codes,
    encode_codes,
    open_container,
    split_escapes,
    validate_input,
)
from repro.transform.blocking import merge_blocks, padded_shape, split_blocks
from repro.transform.dct import block_inverse, block_transform, dct_matrix

__all__ = ["TransformCompressor"]

#: Keep quantized coefficients in exact-int range (cf. MAX_LATTICE_COORD).
_MAX_COEFF_CODE = 2**52


class TransformCompressor:
    """Block-DCT codec with uniform coefficient quantization.

    Parameters
    ----------
    error_bound:
        Half the coefficient quantization bin: ``delta = 2*error_bound``.
        With ``mode="rel"`` it is relative to the data's value range.
        By Eq. 6 the resulting PSNR is
        ``20*log10(vr/delta) + 10*log10(12)`` -- identical to SZ's, so
        Eq. 8 applies unchanged (Theorem 3).
    mode:
        ``"abs"`` or ``"rel"`` (value-range-based).
    block_size:
        Transform block edge length ``m`` (default 8 for 1-D/2-D, use 4
        for 3-D data to keep blocks small).
    transform:
        ``"dct"`` (orthonormal DCT-II, ZFP-flavoured; default) or
        ``"haar"`` (multi-level Haar DWT, SSEM-flavoured; needs a
        power-of-two block size).  Both are orthonormal, so Theorem 2
        applies identically.
    """

    #: transform ids stored in the container
    TRANSFORMS = {"dct": 0, "haar": 1}

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        block_size: int = 8,
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
        transform: str = "dct",
    ) -> None:
        check_bound(error_bound, mode)
        if block_size < 2:
            raise ParameterError("block size must be >= 2")
        if quantization_radius < 1:
            raise ParameterError("quantization radius must be >= 1")
        self.error_bound = float(error_bound)
        self.mode = mode
        self.block_size = int(block_size)
        self.lossless = lossless
        self.lossless_id = method_id(lossless)
        self.lossless_level = int(lossless_level)
        self.radius = int(quantization_radius)
        if transform not in self.TRANSFORMS:
            raise ParameterError(
                f"unknown transform {transform!r}; "
                f"choose from {sorted(self.TRANSFORMS)}"
            )
        if transform == "haar" and (block_size & (block_size - 1)) != 0:
            raise ParameterError("the Haar transform needs a power-of-two block")
        self.transform = transform
        self.target_psnr = None

    @staticmethod
    def _matrix(transform_id: int, m: int) -> np.ndarray:
        if transform_id == 1:
            from repro.transform.wavelet import haar_matrix

            return haar_matrix(m)
        return dct_matrix(m)

    def _pack(self, meta, streams) -> bytes:
        """Serialize the container with byte accounting when traced."""
        from repro.telemetry.registry import metrics as _metrics

        blob = observe.traced_pack(Container(CODEC_TRANSFORM, meta, streams))
        _metrics().counter("pipeline.compressed_bytes_total").inc(len(blob))
        return blob

    def compress(self, data) -> bytes:
        """Compress ``data``; returns a serialized container."""
        trace = observe.current_trace()
        with trace.span("transform.compress") as root:
            arr = validate_input(data)
            if trace.enabled:
                root.count("n_points", int(arr.size))
                root.count("raw_bytes", int(arr.nbytes))
            x = arr.astype(np.float64, copy=False)
            lo, hi = float(x.min()), float(x.max())
            vr = hi - lo
            meta = {
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "mode": self.mode,
                "bound": self.error_bound,
                "block_size": self.block_size,
                "lossless": self.lossless_id,
                "radius": self.radius,
                "value_range": vr,
            }
            if self.target_psnr is not None:
                meta["target_psnr"] = float(self.target_psnr)
            if vr == 0.0:
                meta["constant"] = pack_exact_float(lo)
                return self._pack(meta, [])

            eb_abs = self.error_bound * vr if self.mode == "rel" else self.error_bound
            delta = 2.0 * eb_abs
            center = 0.5 * (lo + hi)
            meta["eb_abs"] = pack_exact_float(eb_abs)
            meta["center"] = pack_exact_float(center)

            meta["transform"] = self.TRANSFORMS[self.transform]
            T = self._matrix(self.TRANSFORMS[self.transform], self.block_size)
            with trace.span("dct") as sp:
                blocks = split_blocks(x - center, self.block_size)
                coeffs = block_transform(blocks, T)
                if trace.enabled:
                    sp.count("n_blocks", int(blocks.shape[0]))
                    sp.set("block_size", self.block_size)
            with trace.span("quantize") as sp:
                codes_f = np.rint(coeffs / delta)
                if np.abs(codes_f).max() > _MAX_COEFF_CODE:
                    raise CompressionError(
                        "error bound too small: coefficient codes exceed exact range"
                    )
                q = codes_f.astype(np.int64).ravel()
                if trace.enabled:
                    sp.count("n_points", int(q.size))
                    sp.set("bin_size", delta)

            streams = []
            with trace.span("escape") as sp:
                q = split_escapes(
                    q, self.radius, meta, streams, self.lossless, self.lossless_level
                )
                n_escapes = meta["n_escapes"]
                from repro.telemetry.registry import (
                    RATIO_BUCKETS,
                    metrics as _metrics,
                )

                _metrics().histogram(
                    "transform.quantization.hit_ratio", RATIO_BUCKETS
                ).observe(1.0 - n_escapes / q.size)
                if trace.enabled:
                    sp.count("n_outliers", n_escapes)
                    sp.set("hit_ratio", 1.0 - n_escapes / q.size)

            with trace.span("entropy") as sp:
                encode_codes(q, meta, streams, self.lossless, self.lossless_level)
                meta["n_codes"] = int(q.size)
                if trace.enabled:
                    sp.count("n_symbols", int(q.size))
                    sp.count("total_bits", int(meta["total_bits"]))
            return self._pack(meta, streams)

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        container, dtype, shape = open_container(
            blob, CODEC_TRANSFORM, "transform"
        )
        meta = container.meta

        if "constant" in meta:
            return np.full(shape, unpack_exact_float(meta["constant"]), dtype=dtype)

        try:
            eb_abs = unpack_exact_float(meta["eb_abs"])
            center = unpack_exact_float(meta["center"])
            m = int(meta["block_size"])
            lossless = method_name(int(meta["lossless"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad container metadata: {exc}") from exc

        delta = 2.0 * eb_abs
        q = decode_codes(container, lossless, int(np.prod(padded_shape(shape, m))))
        d = len(shape)
        transform_id = int(meta.get("transform", 0))
        T = TransformCompressor._matrix(transform_id, m)
        coeffs = (q.astype(np.float64) * delta).reshape((-1,) + (m,) * d)
        blocks = block_inverse(coeffs, T)
        return (merge_blocks(blocks, m, shape) + center).astype(dtype)
