"""Format stability: containers written by earlier builds must keep
decoding.

``tests/golden/`` holds one container per codec/mode, produced at
format version 1, together with the original field.  If any of these
tests fails after a change, the on-disk format broke -- either fix the
regression or bump the container VERSION and keep a legacy reader.
The encoder settings live in ``tests/golden_settings.py``, shared with
``scripts/regen_golden.py``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.metrics.distortion import max_abs_error, psnr
from repro.sz.compressor import decompress
from tests.golden_settings import FIXTURES, PINNED

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def original():
    return np.load(GOLDEN / "field.npy")


def _blob(name: str) -> bytes:
    return (GOLDEN / f"{name}.fpz").read_bytes()


class TestGoldenContainers:
    def test_fixtures_exist(self):
        names = {p.stem for p in GOLDEN.glob("*.fpz")}
        assert names >= {
            "sz_abs",
            "sz_rel_rans",
            "sz_pw_rel",
            "regression",
            "hybrid",
            "transform",
            "embedded",
            "chunked",
        }

    def test_sz_abs(self, original):
        recon = decompress(_blob("sz_abs"))
        assert recon.shape == original.shape
        assert max_abs_error(
            original.astype(np.float64), recon.astype(np.float64)
        ) <= 1e-3 * (1 + 1e-5) + 1e-6

    def test_sz_rel_rans(self, original):
        recon = decompress(_blob("sz_rel_rans"))
        vr = float(original.max() - original.min())
        assert max_abs_error(
            original.astype(np.float64), recon.astype(np.float64)
        ) <= 1e-4 * vr * (1 + 1e-5) + 1e-6

    def test_sz_pw_rel(self, original):
        recon = decompress(_blob("sz_pw_rel")).astype(np.float64)
        x = original.astype(np.float64)
        nz = x != 0
        rel = np.abs(recon[nz] - x[nz]) / np.abs(x[nz])
        assert rel.max() <= 1e-2 * (1 + 1e-4) + 1e-6

    @pytest.mark.parametrize(
        "name", ["regression", "hybrid", "chunked", "legacy", "interp"]
    )
    def test_bounded_codecs(self, original, name):
        recon = decompress(_blob(name))
        assert max_abs_error(
            original.astype(np.float64), recon.astype(np.float64)
        ) <= 1e-3 * (1 + 1e-5) + 1e-6

    def test_transform(self, original):
        assert psnr(original, decompress(_blob("transform"))) > 70.0

    def test_embedded(self, original):
        assert psnr(original, decompress(_blob("embedded"))) > 55.0

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_bitwise_reproducibility(self, original, name):
        """Today's encoders still produce byte-identical output for
        every golden setting (catches accidental format drift and
        nondeterminism)."""
        assert FIXTURES[name](original) == _blob(name)


#: SHA-256 of the concatenated containers each ``PINNED`` configuration
#: writes, recorded when the configurations were added.
PIN_SHA256 = {
    "sz_rans_rle": "b06b7b36ab17a683a65e2737eeecb4106dc4c2037957f5db47b877bdf1cf5070",
    "sz_fill": "2cbb4404e400f002ffcf89afda9eca6f7000a25698d8c52442ece943ccd41cd0",
    "temporal": "a039126411dcb05ebbb786be528df20a5b483b4ccdfe28acc037495c856490a7",
    "escape_sz_huffman": "0ea39d8c20964ba1b249b43df4be97d332b394fb707c80b9d64a9fba6cc50fec",
    "escape_sz_rans": "5c417f5a9aadda7b5b2837afcb6294f276c1c16b07c3a37c7f9e402fb5f09cee",
    "escape_sz_rans_rle": "40543bc86f340b920f9350fee5a4039ebc7d3be7d372422e586a129ef008c844",
    "escape_transform": "4e38aeb10a86931461027aff0f5f034ad2777bcf099d4df30737b5833f2208c9",
    "escape_regression": "eb436cc663e512acbd2c5f521454acf68358b9f183d1be7dd8288ce5830d68f7",
    "escape_hybrid": "605725cbadb01ca02abfced6364e133ebfde52e6668e8ce40b5e8d3dce9668ea",
    "escape_interp": "927a5db970dc56cde07960ad489629b5666dd12692876dca55984f1931f9d2c4",
    "escape_legacy": "d89045ed9705fa4679cdc294f19eced7963252d44a82d9db64706418c772a811",
    "escape_temporal": "1286dea957a90e13417d2ee98782ed76383ab9cd5bf9055fda0086388ecf9f85",
}


class TestPinnedConfigurations:
    def test_every_configuration_has_a_pin(self):
        assert set(PIN_SHA256) == set(PINNED)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_bytes(self, name):
        """Configurations without a fixture file keep their exact
        bytes."""
        digest = hashlib.sha256(b"".join(PINNED[name]())).hexdigest()
        assert digest == PIN_SHA256[name]
