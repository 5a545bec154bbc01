"""Fixed-NRMSE and fixed-MSE modes.

The paper's abstract promises control of "the overall data distortion
(such as MSE and PSNR)"; these are the direct corollaries of Eq. 8
expressed in the other two l2 units.  Both reduce to a PSNR target via
the conversions of Eqs. 4-5 and reuse the fixed-PSNR machinery.
"""

from __future__ import annotations

import numpy as np

from repro.core.fixed_psnr import compress_fixed_psnr
from repro.core.psnr_model import mse_to_psnr, nrmse_to_psnr
from repro.errors import ParameterError
from repro.metrics.distortion import value_range

__all__ = [
    "compress_fixed_nrmse",
    "compress_fixed_mse",
    "nrmse_target_psnr",
    "mse_target_psnr",
]


def nrmse_target_psnr(target_nrmse: float) -> float:
    """The PSNR target equivalent to ``target_nrmse`` (Eq. 5)."""
    if not np.isfinite(target_nrmse) or target_nrmse <= 0:
        raise ParameterError("target NRMSE must be positive and finite")
    return nrmse_to_psnr(target_nrmse)


def mse_target_psnr(data, target_mse: float) -> float:
    """The PSNR target equivalent to ``target_mse`` on ``data``.

    MSE is range-dependent, so the data's value range enters the
    conversion (Eq. 4).
    """
    if not np.isfinite(target_mse) or target_mse <= 0:
        raise ParameterError("target MSE must be positive and finite")
    vr = value_range(data)
    if vr == 0:
        raise ParameterError("fixed-MSE mode undefined for a constant field")
    return mse_to_psnr(target_mse, vr)


def compress_fixed_nrmse(data, target_nrmse: float, **options) -> bytes:
    """Compress so the decompressed NRMSE lands at ``target_nrmse``."""
    return compress_fixed_psnr(data, nrmse_target_psnr(target_nrmse), **options)


def compress_fixed_mse(data, target_mse: float, **options) -> bytes:
    """Compress so the decompressed MSE lands at ``target_mse``."""
    return compress_fixed_psnr(data, mse_target_psnr(data, target_mse), **options)
