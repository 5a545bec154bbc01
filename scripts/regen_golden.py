#!/usr/bin/env python
"""Regenerate the golden format-stability fixtures in ``tests/golden/``.

The fixtures pin the on-disk container format: one ``.fpz`` per
codec/mode, all produced from the same seeded field, all at container
VERSION 1.  Run this script **only** when the format version is bumped
deliberately -- regenerating to paper over a failing
``tests/test_format_stability.py`` defeats the tests' purpose.

Usage::

    PYTHONPATH=src python scripts/regen_golden.py

The field and the codec settings live in ``tests/golden_settings.py``,
which ``tests/test_format_stability.py`` imports too: the test re-encodes
every fixture with the same table and compares bytes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for tests.golden_settings

from repro.metrics.distortion import psnr  # noqa: E402
from repro.sz.compressor import decompress  # noqa: E402
from tests.golden_settings import FIXTURES, make_field  # noqa: E402

GOLDEN = REPO / "tests" / "golden"


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    field = make_field()
    np.save(GOLDEN / "field.npy", field)

    for name, encode in FIXTURES.items():
        blob = encode(field)
        (GOLDEN / f"{name}.fpz").write_bytes(blob)
        recon = decompress(blob)  # every fixture must round-trip
        print(
            f"{name:<12} {len(blob):>6} bytes  "
            f"PSNR {psnr(field, recon):7.2f} dB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
