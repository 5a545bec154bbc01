"""Hybrid per-block predictor selection (the SZ 2 design).

SZ 2's central improvement over the paper's SZ 1.4 is *adaptive
prediction*: the field is tiled into blocks and each block picks the
predictor that will cost fewer bits -- Lorenzo where the field is
smooth at the stencil scale, a fitted hyperplane where it is dominated
by local trends.  This codec implements that scheme on top of the same
lattice quantization / Huffman / GZIP stages:

* a global lattice (anchor = first value, ``delta = 2*eb``) carries
  the Lorenzo blocks, whose codes are the block-local Lorenzo
  differences of the lattice coordinates (block corners fall back to
  raw coordinates and ride the escape channel);
* regression blocks quantize the residual against a float32 hyperplane
  fit (coefficients stored only for the blocks that chose regression);
* the per-block choice minimises an estimated code length
  ``sum(log2(2|q|+1))`` plus the 32*(d+1)-bit coefficient overhead for
  regression;
* one selector bitmap, one combined code stream.

Both paths quantize uniformly with the same ``delta``, so Theorem 3
holds and the fixed-PSNR derivation drives this codec unchanged.
Everything is vectorized across blocks -- there is no per-block Python
loop on the hot path.
"""

from __future__ import annotations

import numpy as np

import repro.observe as observe

from repro.encoding.lossless import (
    lossless_compress,
    lossless_decompress,
    method_id,
    method_name,
)
from repro.errors import (
    CompressionError,
    DecompressionError,
    FormatError,
    ParameterError,
)
from repro.io.container import (
    CODEC_HYBRID,
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
from repro.sz.quantizer import MAX_LATTICE_COORD
from repro.sz.regression import design_matrix, fit_block_planes
from repro.transform.blocking import merge_blocks, padded_shape, split_blocks

__all__ = ["HybridCompressor"]


def _block_lorenzo_diff(blocks: np.ndarray) -> np.ndarray:
    """Block-local Lorenzo difference along every non-block axis."""
    q = blocks
    for axis in range(1, blocks.ndim):
        q = np.diff(q, axis=axis, prepend=0)
    return q


def _block_lorenzo_rec(q: np.ndarray) -> np.ndarray:
    out = q.astype(np.int64, copy=True)
    for axis in range(1, out.ndim):
        np.cumsum(out, axis=axis, out=out)
    return out


def _estimated_bits(q: np.ndarray) -> np.ndarray:
    """Per-block estimated code length: sum(log2(2|q|+1)) over the
    block (the Elias-gamma-style proxy SZ 2 uses for selection)."""
    mag = np.abs(q.astype(np.float64))
    bits = np.log2(2.0 * mag + 1.0)
    return bits.reshape(q.shape[0], -1).sum(axis=1)


class HybridCompressor:
    """Error-bounded codec with per-block Lorenzo/regression selection.

    Parameters mirror :class:`repro.sz.SZCompressor`; ``block_size``
    sets the tile edge (SZ 2 uses 6 for 3-D, 8 is a good 2-D default).
    """

    def __init__(
        self,
        error_bound: float = 1e-4,
        mode: str = "abs",
        block_size: int = 8,
        lossless: str = "zlib",
        lossless_level: int = 6,
        quantization_radius: int = DEFAULT_RADIUS,
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
        self.target_psnr = None

    def compress(self, data) -> bytes:
        """Compress ``data``; returns a serialized container."""
        arr = validate_input(data)
        x = arr.astype(np.float64, copy=False)
        vr = float(x.max() - x.min())
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
            meta["constant"] = pack_exact_float(float(x.flat[0]))
            return observe.traced_pack(Container(CODEC_HYBRID, meta, []))

        eb_abs = self.error_bound * vr if self.mode == "rel" else self.error_bound
        delta = 2.0 * eb_abs
        anchor = float(x.flat[0])
        meta["eb_abs"] = pack_exact_float(eb_abs)
        meta["anchor"] = pack_exact_float(anchor)

        d = x.ndim
        m = self.block_size
        blocks_f = split_blocks(x, m)
        n_blocks = blocks_f.shape[0]

        # Lorenzo path: global lattice coordinates, block-local stencil.
        k = np.rint((blocks_f - anchor) / delta)
        if np.abs(k).max() > MAX_LATTICE_COORD:
            raise CompressionError("error bound too small for exact lattice")
        k = k.astype(np.int64)
        q_lor = _block_lorenzo_diff(k)

        # Regression path: float32 hyperplane residuals.
        coeffs = fit_block_planes(blocks_f, m)
        A, _ = design_matrix(m, d)
        pred = (coeffs.astype(np.float64) @ A.T).reshape(blocks_f.shape)
        resid = np.rint((blocks_f - pred) / delta)
        if np.abs(resid).max() > MAX_LATTICE_COORD:
            raise CompressionError("error bound too small for exact residuals")
        q_reg = resid.astype(np.int64)

        # Selection: estimated code bits + regression coefficient cost.
        coeff_bits = 32.0 * (d + 1)
        cost_lor = _estimated_bits(q_lor)
        cost_reg = _estimated_bits(q_reg) + coeff_bits
        use_reg = cost_reg < cost_lor
        meta["n_blocks"] = int(n_blocks)
        meta["n_regression"] = int(use_reg.sum())

        q = np.where(use_reg.reshape((-1,) + (1,) * d), q_reg, q_lor).ravel()

        streams = [
            (
                "selector",
                lossless_compress(
                    np.packbits(use_reg).tobytes(),
                    self.lossless,
                    self.lossless_level,
                ),
            )
        ]
        if use_reg.any():
            streams.append(
                (
                    "coeffs",
                    lossless_compress(
                        coeffs[use_reg].tobytes(),
                        self.lossless,
                        self.lossless_level,
                    ),
                )
            )

        q = split_escapes(
            q, self.radius, meta, streams, self.lossless, self.lossless_level
        )
        encode_codes(q, meta, streams, self.lossless, self.lossless_level)
        meta["n_codes"] = int(q.size)
        return observe.traced_pack(Container(CODEC_HYBRID, meta, streams))

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        container, dtype, shape = open_container(blob, CODEC_HYBRID, "hybrid")
        meta = container.meta

        if "constant" in meta:
            return np.full(shape, unpack_exact_float(meta["constant"]), dtype=dtype)

        try:
            eb_abs = unpack_exact_float(meta["eb_abs"])
            anchor = unpack_exact_float(meta["anchor"])
            m = int(meta["block_size"])
            lossless = method_name(int(meta["lossless"]))
            n_blocks = int(meta["n_blocks"])
            n_regression = int(meta["n_regression"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad container metadata: {exc}") from exc

        d = len(shape)
        delta = 2.0 * eb_abs
        n_codes = int(np.prod(padded_shape(shape, m)))
        if n_blocks * m**d != n_codes:
            raise DecompressionError("block count does not match the array")

        sel_blob = lossless_decompress(container.stream("selector"), lossless)
        bits = np.unpackbits(np.frombuffer(sel_blob, dtype=np.uint8))
        if bits.size < n_blocks:
            raise DecompressionError("selector bitmap too short")
        use_reg = bits[:n_blocks].astype(bool)
        if int(use_reg.sum()) != n_regression:
            raise DecompressionError("selector/regression count mismatch")

        q = decode_codes(container, lossless, n_codes).reshape((n_blocks,) + (m,) * d)
        recon = np.empty(q.shape, dtype=np.float64)

        # Lorenzo blocks: cumsum back to lattice coordinates.
        lor = ~use_reg
        if lor.any():
            k = _block_lorenzo_rec(q[lor])
            recon[lor] = anchor + delta * k.astype(np.float64)

        if use_reg.any():
            coeff_blob = lossless_decompress(container.stream("coeffs"), lossless)
            if len(coeff_blob) != 4 * n_regression * (d + 1):
                raise DecompressionError("coefficient stream length mismatch")
            coeffs = np.frombuffer(coeff_blob, dtype=np.float32).reshape(
                n_regression, d + 1
            )
            A, _ = design_matrix(m, d)
            pred = (coeffs.astype(np.float64) @ A.T).reshape(
                (n_regression,) + (m,) * d
            )
            recon[use_reg] = pred + delta * q[use_reg].astype(np.float64)

        return merge_blocks(recon, m, shape).astype(dtype)
