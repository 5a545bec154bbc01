"""Trial memoization and warm starts for the autotune search.

Two cost-avoidance layers:

``TrialCache``
    In-process memoization keyed by *data digest
    (:func:`repro.cache.data_digest`) x codec x exact bound x container
    format version*.  The search revisits bounds
    freely (parallel pre-probes, subsample-then-confirm, repeated
    searches over the same field), so hits are common; a hit returns
    the recorded :class:`Trial` marked ``cached=True`` and must never
    change a search's converged result (property-tested).  Handed a
    :class:`repro.cache.CacheStore`, memory misses fall through to the
    shared on-disk store, so trials persist across invocations --
    FRaZ's amortization across whole runs, not just within one search.

``warm_start``
    An initial-bound guess mined from the run ledger
    (:mod:`repro.telemetry.ledger`):

    1. prior ``autotune`` records for the same codec and objective are
       log-log interpolated to the new target (compression ratio is
       near power-law in the bound, so two prior points predict well);
    2. failing that, sibling ``compress``/``sweep`` records carrying an
       achieved PSNR are converted to the bound that produced them via
       Eq. 8 (``repro.core.fixed_psnr.psnr_to_relative_bound``) and
       paired with their recorded ratio -- the paper's closed form is
       exactly the bridge from a *measured* sibling run to a bound
       guess for this one.

    A good warm start typically saves 2-4 of the 12-trial budget.

``warm_start_from_store``
    The same two-pass mining applied to the shared cache store's
    metadata instead of the ledger: prior trial entries for the same
    (data digest, codec, objective) are interpolated directly, and
    sibling blob entries contribute their achieved PSNR via Eq. 8.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


__all__ = [
    "TrialCache",
    "warm_start",
    "warm_start_from_store",
]


class TrialCache:
    """Memoized trials keyed by (data digest, codec, objective, bound,
    container format version).

    The bound enters the key exactly (``float.hex``), so only a probe
    at the *identical* bound hits -- no tolerance matching, which keeps
    cached searches bit-identical to uncached ones.  The container
    format version is part of the key because a trial's measurements
    (compressed bytes, ratio) describe blobs in *that* format -- after
    a format bump, replaying them would report sizes no current run
    can produce.

    ``store`` (a :class:`repro.cache.CacheStore`) adds a persistent
    second level: memory misses consult the disk store, and fresh
    trials are written through (without blobs -- the driver recompresses
    once when the converged trial kept no payload).  ``store_hits``
    counts the hits the disk level served.
    """

    def __init__(self, store=None) -> None:
        self._store: Dict[Tuple[str, str, str, str, int], object] = {}
        self.store = store
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def _key(fp: str, codec: str, objective: str, eb_rel: float):
        from repro.io import container

        return (
            fp, codec, objective, float(eb_rel).hex(),
            int(container.VERSION),
        )

    def get(self, fp: str, codec: str, objective: str, eb_rel: float):
        """The cached trial (marked ``cached=True``) or None."""
        trial = self._store.get(self._key(fp, codec, objective, eb_rel))
        if trial is None and self.store is not None:
            trial = self._disk_get(fp, codec, objective, eb_rel)
        if trial is None:
            self.misses += 1
            return None
        self.hits += 1
        return trial.replace(cached=True)

    def put(self, fp: str, codec: str, objective: str, trial) -> None:
        """Record a freshly evaluated trial."""
        self._store[self._key(fp, codec, objective, trial.eb_rel)] = trial
        if self.store is not None:
            self._disk_put(fp, codec, objective, trial)

    # -- persistent second level ---------------------------------------

    def _disk_get(self, fp: str, codec: str, objective: str, eb_rel: float):
        from repro.autotune.objective import Trial
        from repro.cache.store import trial_key

        key = trial_key(fp, codec=codec, objective=objective, eb_rel=eb_rel)
        entry = self.store.get(key)
        if entry is None:
            return None
        doc = entry.meta.get("trial")
        if not isinstance(doc, dict):
            return None
        try:
            trial = Trial(
                eb_rel=float(doc["eb_rel"]),
                value=float(doc["value"]),
                ratio=float(doc["ratio"]),
                bit_rate=float(doc["bit_rate"]),
                psnr=float(doc["psnr"]),
                nrmse=float(doc["nrmse"]),
                max_abs_error=float(doc["max_abs_error"]),
                raw_bytes=int(doc["raw_bytes"]),
                compressed_bytes=int(doc["compressed_bytes"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
        self.store_hits += 1
        # Promote to the memory level so repeat probes skip the disk.
        self._store[self._key(fp, codec, objective, eb_rel)] = trial
        return trial

    def _disk_put(self, fp: str, codec: str, objective: str, trial) -> None:
        from repro.cache.store import trial_key

        doc = trial.as_dict()
        doc.pop("cached", None)
        key = trial_key(
            fp, codec=codec, objective=objective, eb_rel=trial.eb_rel
        )
        self.store.put(
            key,
            b"",
            {
                "kind": "trial",
                "digest": fp,
                "codec": codec,
                "objective": objective,
                "trial": doc,
            },
        )

    def wrap(self, evaluate, fp: str, codec: str, objective: str):
        """A cache-through version of ``evaluate(eb_rel) -> Trial``."""

        def cached_evaluate(eb_rel: float):
            hit = self.get(fp, codec, objective, eb_rel)
            if hit is not None:
                return hit
            trial = evaluate(eb_rel)
            self.put(fp, codec, objective, trial)
            return trial

        return cached_evaluate


# -- ledger mining ------------------------------------------------------


def _interp_points(
    points: Sequence[Tuple[float, float]], target: float
) -> Optional[float]:
    """Log-log interpolate/extrapolate ``(eb, value)`` points to the eb
    whose value would be ``target``; None when the points cannot say."""
    pts = [
        (float(e), float(v))
        for e, v in points
        if e > 0 and v > 0 and math.isfinite(e) and math.isfinite(v)
    ]
    if not pts or target <= 0:
        return None
    if len(pts) == 1:
        return pts[0][0]
    xs = [math.log(e) for e, _ in pts]
    ys = [math.log(v) for _, v in pts]
    n = len(pts)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0 or sxy == 0:
        return pts[0][0]
    slope = sxy / sxx
    return math.exp(mx + (math.log(target) - my) / slope)


def warm_start(
    objective,
    entries: Sequence,
    dataset: str = "",
) -> Optional[float]:
    """Mine ledger ``entries`` for an initial bound for ``objective``.

    Prefers prior autotune records matching the objective and codec
    (the ledger's ``extra`` carries their converged ``eb_rel`` and
    achieved value); falls back to sibling compress/sweep records via
    Eq. 8.  ``dataset``, when given, restricts the sibling pass to runs
    of the same data set.  Returns None when the ledger has nothing
    usable -- the caller then uses ``objective.default_guess``.
    """
    auto_points: List[Tuple[float, float]] = []
    sibling_points: List[Tuple[float, float]] = []
    for e in entries:
        codec = getattr(e, "codec", "")
        if codec and codec != objective.codec:
            continue
        if getattr(e, "kind", "") == "autotune":
            extra = getattr(e, "extra", {}) or {}
            if extra.get("objective") != objective.name:
                continue
            eb = extra.get("eb_rel")
            achieved = getattr(e, "achieved", None)
            if eb and achieved:
                auto_points.append((float(eb), float(achieved)))
            continue
        if objective.name not in ("ratio", "bitrate"):
            continue
        if dataset and getattr(e, "dataset", "") != dataset:
            continue
        psnr = getattr(e, "achieved_psnr", None)
        ratio = getattr(e, "ratio", None)
        if not psnr or not ratio or not math.isfinite(psnr):
            continue
        # Eq. 8: the bound that produced this sibling's measured PSNR.
        from repro.core.fixed_psnr import (
            MAX_TARGET_PSNR,
            MIN_TARGET_PSNR,
            psnr_to_relative_bound,
        )

        if not (MIN_TARGET_PSNR < psnr < MAX_TARGET_PSNR):
            continue
        eb = psnr_to_relative_bound(psnr)
        value = (
            float(ratio)
            if objective.name == "ratio"
            else 8.0 * 4.0 / float(ratio)  # bits/value assuming float32
        )
        sibling_points.append((eb, value))
    guess = _interp_points(auto_points, objective.target)
    if guess is None:
        guess = _interp_points(sibling_points, objective.target)
    return guess


def _eq8_sibling_point(
    objective, achieved_psnr, ratio
) -> Optional[Tuple[float, float]]:
    """One (eb, value) point from a sibling run's achieved PSNR via
    Eq. 8, or None when the record cannot contribute."""
    if objective.name not in ("ratio", "bitrate"):
        return None
    try:
        psnr = float(achieved_psnr)
        ratio = float(ratio)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(psnr) and ratio > 0):
        return None
    from repro.core.fixed_psnr import (
        MAX_TARGET_PSNR,
        MIN_TARGET_PSNR,
        psnr_to_relative_bound,
    )

    if not (MIN_TARGET_PSNR < psnr < MAX_TARGET_PSNR):
        return None
    eb = psnr_to_relative_bound(psnr)
    value = (
        ratio if objective.name == "ratio"
        else 8.0 * 4.0 / ratio  # bits/value assuming float32
    )
    return (eb, value)


def warm_start_from_store(
    objective, store, fp: str = ""
) -> Optional[float]:
    """Mine the shared cache store's metadata for an initial bound.

    The persistent sibling of :func:`warm_start`: prior **trial**
    entries for the same codec and objective (same field when ``fp``
    is given) are log-log interpolated to the new target, and failing
    that, **blob** entries carrying an achieved PSNR contribute Eq.-8
    points exactly like ledger siblings.  Returns None when the store
    holds nothing usable.

    One refinement over the ledger pass: when a prior trial measured a
    value *near* the target (within ~25%), its **exact** bound is
    returned instead of a regression estimate.  Seeding at an exact
    prior bound turns a repeated search's first probe into a store hit
    -- an identical invocation replays entirely from cache and
    converges to the identical bound, which is what makes warm-cache
    autotune output bit-reproducible.
    """
    if store is None:
        return None
    auto_points: List[Tuple[float, float]] = []
    sibling_points: List[Tuple[float, float]] = []
    for _key, meta in store.iter_meta():
        kind = meta.get("kind")
        if kind == "trial":
            if meta.get("codec") != objective.codec:
                continue
            if meta.get("objective") != objective.name:
                continue
            if fp and meta.get("digest") != fp:
                continue
            doc = meta.get("trial") or {}
            eb, value = doc.get("eb_rel"), doc.get("value")
            if eb and value:
                auto_points.append((float(eb), float(value)))
        elif kind == "blob":
            if meta.get("codec") != objective.codec:
                continue
            metrics = meta.get("metrics") or {}
            point = _eq8_sibling_point(
                objective,
                metrics.get("achieved_psnr"),
                metrics.get("ratio"),
            )
            if point is not None:
                sibling_points.append(point)
    target = float(objective.target)
    if target > 0:
        near = [
            (abs(math.log(v / target)), eb)
            for eb, v in auto_points
            if eb > 0 and v > 0 and math.isfinite(v)
        ]
        if near:
            err, eb = min(near)
            if err <= math.log(1.25):
                return eb
    guess = _interp_points(auto_points, objective.target)
    if guess is None:
        guess = _interp_points(sibling_points, objective.target)
    return guess
