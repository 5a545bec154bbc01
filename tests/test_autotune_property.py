"""Property-based tests for the autotune subsystem.

Three invariants hold for *every* input, not just the fixed arrays:

* **monotone convergence**: for any monotone power-law objective whose
  target is reachable inside the search interval, the search converges
  within tolerance inside the default 12-trial budget;
* **cache transparency**: a cache hit never changes a converged
  result -- a search over a pre-warmed cache returns bit-identical
  (eb_rel, achieved, converged) to the cold search;
* **degenerate input**: a constant (zero-range) field raises
  :class:`ParameterError` immediately instead of looping.

When the ``hypothesis`` package is available the inputs are drawn by
its search strategies; otherwise a seeded parameter sweep covers the
same space deterministically.
"""

import math

import numpy as np
import pytest

from repro.autotune import TrialCache, autotune
from repro.autotune.objective import Trial
from repro.autotune.search import relative_error, search
from repro.cache import data_digest
from repro.errors import ParameterError

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False


def make_trial(eb, value):
    return Trial(
        eb_rel=float(eb),
        value=float(value),
        ratio=1.0,
        bit_rate=1.0,
        psnr=0.0,
        nrmse=0.0,
        max_abs_error=0.0,
        raw_bytes=0,
        compressed_bytes=0,
    )


def power_law_evaluate(scale, exponent):
    """``value = scale * eb**exponent`` -- monotone for exponent != 0."""

    def evaluate(eb):
        return make_trial(eb, scale * eb**exponent)

    return evaluate


def reachable_target(scale, exponent, lo=1e-12, hi=0.5):
    """A target comfortably inside the attainable value range."""
    a, b = scale * lo**exponent, scale * hi**exponent
    lo_v, hi_v = min(a, b), max(a, b)
    # Geometric midpoint keeps it far from both edges.
    return math.sqrt(lo_v * hi_v)


# -- invariant 1: monotone power laws converge --------------------------

if HAVE_HYPOTHESIS:

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        exponent=st.floats(min_value=0.05, max_value=2.0),
        sign=st.sampled_from([1.0, -1.0]),
        tol=st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_power_law_converges(scale, exponent, sign, tol):
        exponent = sign * exponent
        target = reachable_target(scale, exponent)
        res = search(
            power_law_evaluate(scale, exponent),
            target,
            increasing=exponent > 0,
            tol=tol,
        )
        assert res.converged, res.report()
        assert relative_error(res.achieved, target) <= tol
        assert res.n_trials <= 12

else:  # pragma: no cover - hypothesis always present in CI

    @pytest.mark.parametrize("seed", range(30))
    def test_monotone_power_law_converges(seed):
        r = np.random.default_rng(seed)
        scale = 10.0 ** r.uniform(-3, 3)
        exponent = r.uniform(0.05, 2.0) * r.choice([1.0, -1.0])
        tol = r.uniform(0.01, 0.2)
        target = reachable_target(scale, exponent)
        res = search(
            power_law_evaluate(scale, exponent),
            target,
            increasing=exponent > 0,
            tol=tol,
        )
        assert res.converged, res.report()
        assert relative_error(res.achieved, target) <= tol
        assert res.n_trials <= 12


# -- invariant 2: cache hits never change a converged result ------------


def _random_field(seed, n):
    r = np.random.default_rng(seed)
    x = np.cumsum(np.cumsum(r.normal(size=(n, n)), axis=0), axis=1)
    return x.astype(np.float32)


def assert_cache_transparent(seed, n, target):
    field = _random_field(seed, n)
    cache = TrialCache()
    cold = autotune(field, "ratio", target, cache=cache, keep_blob=False)
    warm = autotune(field, "ratio", target, cache=cache, keep_blob=False)
    assert cache.hits > 0, "second search should hit the cache"
    assert warm.converged == cold.converged
    assert warm.eb_rel == cold.eb_rel
    assert warm.achieved == cold.achieved
    assert warm.stop_reason == cold.stop_reason
    assert [t.eb_rel for t in warm.trial_history] == [
        t.eb_rel for t in cold.trial_history
    ]


if HAVE_HYPOTHESIS:

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=24, max_value=48),
        target=st.floats(min_value=4.0, max_value=30.0),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cache_hits_preserve_converged_result(seed, n, target):
        assert_cache_transparent(seed, n, target)

else:  # pragma: no cover

    @pytest.mark.parametrize("seed", range(4))
    def test_cache_hits_preserve_converged_result(seed):
        r = np.random.default_rng(seed + 1000)
        assert_cache_transparent(
            seed, int(r.integers(24, 48)), float(r.uniform(4.0, 30.0))
        )


# -- invariant 3: constant fields fail fast -----------------------------


def assert_constant_field_raises(value, shape):
    field = np.full(shape, value, dtype=np.float64)
    with pytest.raises(ParameterError, match="constant field"):
        autotune(field, "ratio", 10.0)


if HAVE_HYPOTHESIS:

    @given(
        value=st.floats(
            min_value=-1e30, max_value=1e30, allow_nan=False
        ),
        side=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_constant_field_raises_parameter_error(value, side):
        assert_constant_field_raises(value, (side, side))

else:  # pragma: no cover

    @pytest.mark.parametrize("value", [0.0, 1.0, -3.5, 1e20])
    def test_constant_field_raises_parameter_error(value):
        assert_constant_field_raises(value, (16, 16))


# -- supporting invariant: the trial memo's data digest is content-stable

if HAVE_HYPOTHESIS:

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_stable_and_content_sensitive(seed, n):
        r = np.random.default_rng(seed)
        a = r.normal(size=n)
        assert data_digest(a) == data_digest(a.copy())
        b = a.copy()
        b[0] = b[0] + 1.0 if np.isfinite(b[0]) else 0.0
        if not np.array_equal(a, b):
            assert data_digest(a) != data_digest(b)

else:  # pragma: no cover

    @pytest.mark.parametrize("seed", range(10))
    def test_fingerprint_stable_and_content_sensitive(seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=int(r.integers(1, 64)))
        assert data_digest(a) == data_digest(a.copy())
        b = a.copy()
        b[0] += 1.0
        assert data_digest(a) != data_digest(b)
