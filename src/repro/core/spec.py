"""One compress request: what it asks for, which bytes it names, how it runs.

A :class:`CompressSpec` is the single definition of a compression
request.  ``fpzc compress``, the sweep executor, the service (admission
and worker), the cluster router and the bench parse their own input
into one; none of them dispatches codecs, builds cache keys or
measures reconstructions itself.  This follows SZ3's composing config
object (arXiv:2111.02925): one object names the stages, one kernel
runs them.

The kernel, :meth:`CompressSpec.run`, is the paper's pipeline: a target
goes through the closed forms (Eq. 8, with Eqs. 4-5 for NRMSE/MSE) to
a bound, the codec compresses at that bound, and the blob is decoded
once to measure the reconstruction.  Given a
:class:`repro.cache.CacheStore`, the run is replayed from and recorded
under :meth:`CompressSpec.cache_key`, so every entry point shares the
same entries.
"""

from __future__ import annotations

import functools
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple, Optional

from repro.errors import ParameterError

__all__ = [
    "BOUND_MODES",
    "DEFAULT_ENTROPY",
    "DEFAULT_MAX_TRIALS",
    "DEFAULT_TOL",
    "MODES",
    "CompressSpec",
    "FieldStats",
    "Outcome",
    "field_stats",
]

#: Modes whose value is an error bound rather than a target.
BOUND_MODES = ("abs", "rel", "pw_rel")
#: Every mode; ``rate`` is bits per value for the embedded codec.
MODES = ("psnr", "nrmse", "mse", "ratio", "rate") + BOUND_MODES
#: Modes whose outcome is measured on the reconstruction.
MEASURED_MODES = ("psnr", "nrmse", "mse", "ratio")

DEFAULT_ENTROPY = "huffman"
DEFAULT_TOL = 0.05
DEFAULT_MAX_TRIALS = 12

#: ``fpzc compress`` argument -> mode (argparse sets exactly one).
_ARG_MODES = {
    "psnr": "psnr", "nrmse": "nrmse", "mse": "mse", "ratio": "ratio",
    "bit_rate": "rate", "pw_rel_bound": "pw_rel", "abs_bound": "abs",
    "rel_bound": "rel",
}


@dataclass(frozen=True)
class Outcome:
    """What one :meth:`CompressSpec.run` produced.

    ``achieved`` is measured in the mode's own unit (PSNR, NRMSE, MSE
    or compression ratio); it and ``achieved_psnr`` are ``None`` for
    unmeasured modes.  ``cached`` marks a replay from the store, ``key``
    is the store key used (``None`` without a store) and ``report`` the
    autotune summary of a fresh ``ratio`` search.
    """

    blob: bytes
    eb_rel: Optional[float] = None
    achieved_psnr: Optional[float] = None
    achieved: Optional[float] = None
    converged: bool = True
    cached: bool = False
    key: Optional[str] = None
    report: str = ""


@dataclass(frozen=True)
class CompressSpec:
    """One compression request.

    ``target`` is the requested value in ``mode``'s unit (dB, NRMSE,
    MSE, ratio, bits per value) or, for ``abs``/``rel``/``pw_rel``, the
    error bound itself.  ``refine`` is ``None`` or ``"histogram"``;
    ``entropy`` picks the sz codec's entropy stage; ``chunks`` > 0
    compresses independent slabs; ``tol`` and ``max_trials`` bound the
    ``ratio`` search.  Construction never validates, so any payload has
    a key; :meth:`run` rejects what no codec implements.
    """

    mode: str = "psnr"
    target: float = 0.0
    codec: str = "sz"
    refine: Optional[str] = None
    entropy: str = DEFAULT_ENTROPY
    chunks: int = 0
    tol: float = DEFAULT_TOL
    max_trials: int = DEFAULT_MAX_TRIALS

    @classmethod
    def from_args(cls, args) -> "CompressSpec":
        """The spec for parsed ``fpzc compress`` arguments."""
        mode, value = next(
            (mode, getattr(args, attr))
            for attr, mode in _ARG_MODES.items()
            if getattr(args, attr, None) is not None
        )
        return cls(
            mode=mode,
            target=float(value),
            codec=args.codec,
            refine="histogram" if args.refine else None,
            entropy=args.entropy,
            chunks=int(args.chunks or 0),
            tol=float(args.tol),
        )

    @classmethod
    def from_json(cls, doc: Dict) -> "CompressSpec":
        """The spec for a service or cluster compress payload; the one
        parse rule :meth:`repro.service.jobs.JobSpec.from_payload` uses
        too."""
        return cls(
            mode=str(doc.get("mode") or "psnr"),
            target=float(doc.get("target") or 0.0),
            codec=str(doc.get("codec") or "sz"),
            refine=str(doc["refine"]) if doc.get("refine") else None,
            tol=float(doc.get("tol") or DEFAULT_TOL),
            max_trials=int(doc.get("max_trials") or DEFAULT_MAX_TRIALS),
        )

    @property
    def measured(self) -> bool:
        """Whether :meth:`run` decodes the blob and measures it."""
        return self.mode in MEASURED_MODES and self.codec != "embedded"

    def cache_key(self, digest: str) -> str:
        """The blob-cache key of this request on data whose
        :func:`repro.cache.data_digest` is ``digest``.

        Every knob that can change the output bytes is in the key.  The
        search knobs enter only for ``ratio``, and ``max_trials`` only
        off its default, so keys written before it was a knob still
        match.
        """
        from repro.cache import blob_key

        bound = self.mode in BOUND_MODES
        search = self.mode == "ratio"
        return blob_key(
            digest,
            codec=self.codec,
            mode=self.mode,
            target=None if bound else float(self.target),
            bound=float(self.target) if bound else None,
            refine=self.refine,
            entropy=self.entropy,
            chunks=self.chunks or None,
            tol=float(self.tol) if search else None,
            max_trials=(
                int(self.max_trials)
                if search and self.max_trials != DEFAULT_MAX_TRIALS
                else None
            ),
        )

    def run(
        self,
        data,
        store=None,
        *,
        labels: Optional[Dict] = None,
        trace=None,
        profile_mem: bool = False,
        chunk_workers: int = 0,
        transport: str = "auto",
    ) -> Outcome:
        """Compress ``data``, decode once and measure, through ``store``.

        With a store, a usable entry under :meth:`cache_key` is replayed
        without touching a codec, and a fresh outcome is written through
        with its measurements (``labels``, e.g. dataset and field, go
        into the entry's metadata).  Without a store no digest is
        computed.  ``trace`` records the compress step only, under
        :func:`repro.telemetry.memory.profile_memory` with
        ``profile_mem``.  ``chunk_workers``/``transport`` place a
        chunked run's slabs; they never change its bytes.
        """
        self._check()
        digest = key = None
        if store is not None:
            from repro.cache import data_digest

            digest = data_digest(data)
            key = self.cache_key(digest)
            entry = store.get(key)
            hit = None if entry is None else self.replay(entry)
            if hit is not None:
                return replace(hit, key=key)
        with ExitStack() as stack:
            if trace is not None:
                import repro.observe as observe

                stack.enter_context(observe.use_trace(trace))
                if profile_mem:
                    from repro.telemetry.memory import profile_memory

                    stack.enter_context(profile_memory())
            blob, eb_rel, search = self._compress(
                data, digest, store, chunk_workers, transport
            )
        out = Outcome(blob=blob, eb_rel=eb_rel, key=key)
        if search is not None:
            out = replace(
                out, converged=bool(search.converged), report=search.report()
            )
        if self.measured:
            from repro.metrics import distortion
            from repro.sz.compressor import decompress

            recon = decompress(blob)
            psnr = achieved = float(distortion.psnr(data, recon))
            if self.mode == "nrmse":
                achieved = float(distortion.nrmse(data, recon))
            elif self.mode == "mse":
                achieved = float(distortion.mse(data, recon))
            elif self.mode == "ratio":
                achieved = data.nbytes / len(blob)
            out = replace(out, achieved_psnr=psnr, achieved=achieved)
        if store is not None:
            store.put(key, blob, {
                "kind": "blob",
                **(labels or {}),
                "codec": self.codec,
                "mode": self.mode,
                "target": float(self.target),
                "metrics": {
                    "achieved_psnr": out.achieved_psnr,
                    "achieved": out.achieved,
                    "converged": out.converged,
                    "ratio": data.nbytes / len(blob),
                    "bit_rate": 8.0 * len(blob) / data.size,
                    "eb_rel": eb_rel,
                    "raw_bytes": int(data.nbytes),
                    "compressed_bytes": len(blob),
                },
            })
        return out

    def replay(self, entry) -> Optional[Outcome]:
        """The outcome a cache entry recorded, or ``None`` when its
        metadata lacks what this mode reports (the caller recompresses:
        a malformed entry must never poison a result).  Entries written
        before the bound was recorded replay with ``eb_rel=None``."""
        m = entry.meta.get("metrics") or {}
        eb_rel = m.get("eb_rel")
        if not self.measured:
            return Outcome(entry.payload, eb_rel, cached=True)
        try:
            psnr = float(m["achieved_psnr"])
            if self.mode == "psnr":
                achieved = float(m.get("achieved") or psnr)
            else:
                achieved = float(m["achieved"])
            return Outcome(
                entry.payload, None if eb_rel is None else float(eb_rel),
                psnr, achieved, converged=bool(m.get("converged", True)),
                cached=True,
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _check(self) -> None:
        if self.mode not in MODES:
            raise ParameterError(
                f"unknown compress mode {self.mode!r}; expected one of "
                f"{', '.join(MODES)}"
            )
        if self.chunks and self.codec != "sz":
            raise ParameterError("chunks requires codec sz")
        if self.chunks and self.mode not in ("psnr", "abs", "rel"):
            raise ParameterError("chunks supports psnr, abs and rel modes only")
        if self.codec == "embedded" and self.mode not in ("psnr", "rate"):
            raise ParameterError(
                f"mode {self.mode!r} is not supported by codec embedded "
                "(it takes psnr or rate targets)"
            )
        if self.mode == "rate" and self.codec != "embedded":
            raise ParameterError("rate mode requires codec embedded")
        if self.mode == "pw_rel" and self.codec != "sz":
            raise ParameterError("pw_rel mode requires codec sz")

    def _compress(self, data, digest, store, chunk_workers, transport):
        """``(blob, eb_rel, search_result)`` of one fresh run."""
        # The default entropy stage is every codec's own default; only
        # a non-default choice is passed (search reports stay free of it).
        opts = (
            {"entropy": self.entropy}
            if self.codec == "sz" and self.entropy != DEFAULT_ENTROPY
            else {}
        )
        if self.mode == "ratio":
            from repro.autotune import autotune

            result = autotune(
                data, "ratio", self.target, codec=self.codec, tol=self.tol,
                max_trials=self.max_trials, keep_blob=True, store=store,
                digest=digest, **opts,
            )
            return result.blob, float(result.eb_rel), result
        if self.codec == "embedded":
            from repro.transform.embedded import EmbeddedTransformCompressor

            emb = "fixed_psnr" if self.mode == "psnr" else "fixed_rate"
            comp = EmbeddedTransformCompressor(mode=emb, rate=self.target)
            return comp.compress(data), None, None
        if self.mode in BOUND_MODES:
            bound, mode = float(self.target), self.mode
        else:
            from repro.core.fixed_psnr import FixedPSNRCompressor
            from repro.core.modes import mse_target_psnr, nrmse_target_psnr

            if self.mode == "nrmse":
                psnr = nrmse_target_psnr(self.target)
            elif self.mode == "mse":
                psnr = mse_target_psnr(data, self.target)
            else:
                psnr = float(self.target)
            comp = FixedPSNRCompressor(
                psnr, refine=self.refine, codec=self.codec, **opts
            )
            bound, mode = float(comp.derive_bound(data)), "rel"
            if not self.chunks:
                return comp.compress(data), bound, None
        eb_rel = bound if mode == "rel" else None
        if self.chunks:
            from repro.parallel.chunking import compress_chunked

            blob = compress_chunked(
                data, bound, mode=mode, n_chunks=self.chunks,
                n_workers=chunk_workers, transport=transport,
                entropy=self.entropy,
            )
            return blob, eb_rel, None
        from repro.core.codecs import make_compressor

        comp = make_compressor(self.codec, bound, mode=mode, **opts)
        return comp.compress(data), eb_rel, None


class FieldStats(NamedTuple):
    """A registry field's content digest and sizes."""

    digest: str
    nbytes: int
    size: int


@functools.lru_cache(maxsize=1024)
def field_stats(
    dataset: str, field: str, scale: Optional[float] = None
) -> Optional[FieldStats]:
    """Synthesize and hash a registry field once per process (the
    registry is deterministic): the digest service admission and
    cluster routing key on.  ``None`` for fields the registry cannot
    produce (those jobs fail through the normal worker path)."""
    from repro.cache import data_digest
    from repro.datasets.registry import get_dataset

    try:
        data = get_dataset(dataset, scale=scale).field(field)
    except Exception:  # noqa: BLE001 -- unknown dataset/field
        return None
    return FieldStats(data_digest(data), int(data.nbytes), int(data.size))
