"""Encoder settings whose output bytes the format-stability tests pin.

One table serves both ``scripts/regen_golden.py`` (which writes the
``tests/golden/*.fpz`` fixtures from :data:`FIXTURES`) and
``tests/test_format_stability.py`` (which re-encodes every fixture and
compares bytes), so the two cannot drift apart.

:data:`PINNED` covers encoder configurations that have no fixture file:
their output is pinned by SHA-256 instead.  :data:`ESCAPE_CASES` drives
every quantizing codec with a quantization radius small enough that
most codes of :func:`rough_field` take the escape path.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.parallel.chunking import compress_chunked
from repro.sz.compressor import SZCompressor
from repro.sz.hybrid import HybridCompressor
from repro.sz.interp import InterpolationCompressor
from repro.sz.legacy import Sz11Compressor
from repro.sz.regression import RegressionCompressor
from repro.sz.temporal import compress_series
from repro.transform.compressor import TransformCompressor
from repro.transform.embedded import EmbeddedTransformCompressor

#: Quantization radius of the escape-path cases.
ESCAPE_RADIUS = 2
#: Absolute bound of the escape-path cases (codes of ``rough_field``
#: are then ~100 bins wide, far outside ``ESCAPE_RADIUS``).
ESCAPE_BOUND = 1e-2


def make_field() -> np.ndarray:
    """The golden field: seeded, smooth, strictly positive, float32.

    A double cumulative sum of seeded Gaussian noise -- smooth enough
    that every predictor family has something to predict, and offset
    away from zero so the pointwise-relative codec never divides by
    tiny values.
    """
    rng = np.random.default_rng(20180925)  # CLUSTER 2018 camera-ready-ish
    noise = rng.normal(size=(24, 32))
    field = np.cumsum(np.cumsum(noise, axis=0), axis=1)
    # Normalize to [1, 2]: smooth, nonzero (pw_rel-safe), value range 1
    # so absolute and relative bounds coincide numerically.
    lo, hi = field.min(), field.max()
    field = 1.0 + (field - lo) / (hi - lo)
    return field.astype(np.float32)


def rough_field() -> np.ndarray:
    """A seeded 40x50 white-noise field (worst case for prediction)."""
    return np.random.default_rng(1996).normal(size=(40, 50))


def series_frames(field: np.ndarray) -> List[np.ndarray]:
    """Three snapshots drifting linearly away from ``field``."""
    step = np.random.default_rng(3).normal(scale=0.01, size=field.shape)
    return [field + i * step.astype(field.dtype) for i in range(3)]


def _series(field: np.ndarray, **options) -> List[bytes]:
    """A three-frame temporal stream: keyframe, order 1, order 2."""
    return compress_series(series_frames(field), temporal_order=2, **options)


#: name -> encoder of the golden field; one ``tests/golden/<name>.fpz`` each.
FIXTURES: Dict[str, Callable[[np.ndarray], bytes]] = {
    "sz_abs": lambda f: SZCompressor(1e-3, mode="abs").compress(f),
    "sz_rel_rans": lambda f: SZCompressor(
        1e-4, mode="rel", entropy="rans"
    ).compress(f),
    "sz_pw_rel": lambda f: SZCompressor(1e-2, mode="pw_rel").compress(f),
    "regression": lambda f: RegressionCompressor(1e-3, mode="abs").compress(f),
    "hybrid": lambda f: HybridCompressor(1e-3, mode="abs").compress(f),
    "interp": lambda f: InterpolationCompressor(1e-3, mode="abs").compress(f),
    "legacy": lambda f: Sz11Compressor(1e-3, mode="abs").compress(f),
    "chunked": lambda f: compress_chunked(f, 1e-3, mode="abs", n_chunks=3),
    "transform": lambda f: TransformCompressor(1e-4, mode="rel").compress(f),
    "embedded": lambda f: EmbeddedTransformCompressor(
        mode="fixed_psnr", rate=70.0
    ).compress(f),
}


def _radius(cls, **options):
    return lambda f: [
        cls(ESCAPE_BOUND, quantization_radius=ESCAPE_RADIUS, **options).compress(f)
    ]


#: name -> encoder of ``rough_field`` returning the container(s) written.
ESCAPE_CASES: Dict[str, Callable[[np.ndarray], List[bytes]]] = {
    "sz_huffman": _radius(SZCompressor),
    "sz_rans": _radius(SZCompressor, entropy="rans"),
    "sz_rans_rle": _radius(SZCompressor, entropy="rans_rle"),
    "transform": _radius(TransformCompressor),
    "regression": _radius(RegressionCompressor),
    "hybrid": _radius(HybridCompressor),
    "interp": _radius(InterpolationCompressor),
    "legacy": _radius(Sz11Compressor),
    "temporal": lambda f: _series(
        f, error_bound=ESCAPE_BOUND, quantization_radius=ESCAPE_RADIUS
    ),
}


def _with_fill(field: np.ndarray) -> np.ndarray:
    out = field.copy()
    out[::5, ::7] = -9999.0
    return out


#: name -> containers of a configuration without a fixture file.
PINNED: Dict[str, Callable[[], List[bytes]]] = {
    "sz_rans_rle": lambda: [
        SZCompressor(1e-3, entropy="rans_rle").compress(make_field())
    ],
    "sz_fill": lambda: [
        SZCompressor(1e-3, fill_value=-9999.0).compress(_with_fill(make_field()))
    ],
    "temporal": lambda: _series(make_field(), error_bound=1e-3),
    **{
        f"escape_{name}": (lambda encode=encode: encode(rough_field()))
        for name, encode in ESCAPE_CASES.items()
    },
}
