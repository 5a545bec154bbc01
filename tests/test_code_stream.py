"""The shared code-stream stage: escape -> entropy -> lossless, and back.

Every quantizing codec hands its integer codes to
``repro.sz.compressor.split_escapes``/``encode_codes`` and gets them
back from ``decode_codes``.  These tests drive the escape path of every
codec and check that metadata which is CRC-valid but inconsistent with
the codec's geometry is rejected with a typed error instead of a crash
or a silently wrong array.
"""

from functools import partial

import numpy as np
import pytest

from repro.errors import DecompressionError, FormatError
from repro.io.container import Container
from repro.sz.compressor import SZCompressor, decompress
from repro.sz.hybrid import HybridCompressor
from repro.sz.legacy import Sz11Compressor
from repro.sz.regression import RegressionCompressor
from repro.sz.temporal import decompress_series
from repro.transform.compressor import TransformCompressor
from tests.golden_settings import (
    ESCAPE_BOUND,
    ESCAPE_CASES,
    rough_field,
    series_frames,
)


@pytest.mark.parametrize("name", sorted(ESCAPE_CASES))
def test_escape_path_round_trip(name):
    x = rough_field()
    blobs = ESCAPE_CASES[name](x)
    for blob in blobs:
        assert Container.from_bytes(blob).meta["n_escapes"] > 0
    if name == "temporal":
        originals = series_frames(x)
        recons = list(decompress_series(blobs))
    else:
        originals = [x]
        recons = [decompress(blob) for blob in blobs]
    # Transform codes are coefficients: the pointwise error is bounded
    # only by the orthonormal worst case eb * m**(d/2) (m = 8, d = 2).
    bound = ESCAPE_BOUND * (8.0 if name == "transform" else 1.0)
    for original, recon in zip(originals, recons):
        assert recon.shape == original.shape
        assert np.abs(recon - original).max() <= bound * (1 + 1e-9)


def _smooth():
    r = np.random.default_rng(11)
    return np.cumsum(np.cumsum(r.normal(size=(40, 50)), axis=0), axis=1)


def _tamper(blob: bytes, key: str, value) -> bytes:
    container = Container.from_bytes(blob)
    meta = dict(container.meta)
    meta[key] = value(meta[key])
    return Container(container.codec, meta, container.streams).to_bytes()


def _minus_one(v):
    return v - 1


def _half_rows(shape):
    return [shape[0] // 2] + shape[1:]


def _zero(v):
    return 0


@pytest.mark.parametrize(
    "codec,key,change",
    [
        (HybridCompressor, "n_codes", _minus_one),
        (RegressionCompressor, "n_codes", _minus_one),
        (TransformCompressor, "n_codes", _minus_one),
        (HybridCompressor, "n_blocks", _minus_one),
        (SZCompressor, "shape", _half_rows),
        (Sz11Compressor, "shape", _half_rows),
        (partial(SZCompressor, quantization_radius=2), "n_escapes", _zero),
        (RegressionCompressor, "lossless", _zero),
    ],
    ids=[
        "hybrid-n_codes",
        "regression-n_codes",
        "transform-n_codes",
        "hybrid-n_blocks",
        "sz-shape",
        "legacy-shape",
        "sz-n_escapes",
        "regression-lossless",
    ],
)
def test_inconsistent_metadata_is_rejected(codec, key, change):
    blob = codec(1e-3).compress(_smooth())
    with pytest.raises((DecompressionError, FormatError)):
        decompress(_tamper(blob, key, change))
