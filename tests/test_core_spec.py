"""Unit and property tests for :mod:`repro.core.spec`.

The contracts pinned here:

* one key rule: the CLI arguments, the service payload and the cluster
  router name the same bytes with the same key, for every compress mode;
* the key is the literal :func:`repro.cache.blob_key` call the older
  entry points (and the benchmark's cache replay) make, so on-disk
  caches keep hitting;
* the kernel hashes nothing without a store, hashes each array once
  with one, decodes each fresh blob exactly once and never on a hit;
* a malformed cache entry is recompressed, never served.
"""

import pytest

import repro.cache
import repro.sz.compressor
from repro.cache import CacheStore, blob_key, data_digest
from repro.cli.main import build_parser
from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.core.modes import compress_fixed_mse, compress_fixed_nrmse
from repro.core.spec import CompressSpec, field_stats
from repro.datasets.registry import get_dataset
from repro.errors import ParameterError
from repro.service.jobs import COMPRESS_MODES

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

DATASET = "ATM"
FIELD = "CLDHGH"

#: CLI flag for each service compress mode.
FLAGS = {"psnr": "--psnr", "nrmse": "--nrmse", "mse": "--mse",
         "ratio": "--ratio"}


def cli_spec(mode, target, codec="sz", refine=False, tol=None):
    argv = ["compress", "in.npy", "-o", "out.fpz", FLAGS[mode], repr(target),
            "--codec", codec]
    if refine:
        argv.append("--refine")
    if tol is not None:
        argv += ["--tol", repr(tol)]
    return CompressSpec.from_args(build_parser().parse_args(argv))


def payload(mode, target, codec="sz", refine=False, tol=None):
    doc = {"dataset": DATASET, "field": FIELD, "mode": mode,
           "target": target, "codec": codec}
    if refine:
        doc["refine"] = "histogram"
    if tol is not None:
        doc["tol"] = tol
    return doc


@pytest.fixture(scope="module")
def router():
    from repro.cluster.membership import Membership
    from repro.cluster.ring import HashRing
    from repro.cluster.router import ClusterRouter

    nodes = ("http://n1:8077", "http://n2:8077")
    return ClusterRouter(
        HashRing(nodes, vnodes=8),
        Membership(nodes, probe=lambda url: True),
        client_factory=lambda url: None,
    )


@pytest.fixture(scope="module")
def digest():
    return field_stats(DATASET, FIELD).digest


class TestKeyAgreement:
    @pytest.mark.parametrize("mode", COMPRESS_MODES)
    def test_cli_service_and_router_agree(self, mode, router, digest):
        target = {"psnr": 60.0, "nrmse": 1e-3, "mse": 1e-4,
                  "ratio": 8.0}[mode]
        key = cli_spec(mode, target).cache_key(digest)
        assert CompressSpec.from_json(payload(mode, target)).cache_key(
            digest
        ) == key
        assert router.route_key("compress", payload(mode, target)) == key

    if HAVE_HYPOTHESIS:

        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(
            mode=st.sampled_from(COMPRESS_MODES),
            target=st.floats(min_value=1e-6, max_value=200.0),
            codec=st.sampled_from(("sz", "transform", "interp")),
            refine=st.booleans(),
            tol=st.one_of(st.none(), st.floats(0.01, 0.5)),
        )
        def test_keys_agree_for_any_request(
            self, router, digest, mode, target, codec, refine, tol
        ):
            key = cli_spec(mode, target, codec, refine, tol).cache_key(
                digest
            )
            doc = payload(mode, target, codec, refine, tol)
            assert CompressSpec.from_json(doc).cache_key(digest) == key
            assert router.route_key("compress", doc) == key

    def test_service_admission_key_matches(self, tmp_path, digest):
        from repro.service.app import CompressionService, ServiceConfig
        from repro.service.jobs import JobSpec

        svc = CompressionService(ServiceConfig(
            kind="inline", n_workers=0, cache_dir=str(tmp_path),
            no_ledger=True,
        ))
        try:
            for mode, target in (("psnr", 60.0), ("nrmse", 1e-3),
                                 ("mse", 1e-4)):
                spec = JobSpec.from_payload(
                    "compress", payload(mode, target)
                )
                assert svc._cache_key(spec) == cli_spec(
                    mode, target
                ).cache_key(digest)
            # Ratio searches are routed by key but never admission-cached.
            ratio = JobSpec.from_payload("compress", payload("ratio", 8.0))
            assert svc._cache_key(ratio) is None
        finally:
            svc.executor.close()


class TestKeyPins:
    """The literal :func:`blob_key` calls earlier entry points made;
    the hash values of existing cache entries depend on them."""

    D = "ab" * 32

    def test_psnr_matches_benchmark_and_smoke_literal(self):
        t = 60.0
        assert CompressSpec(mode="psnr", target=t).cache_key(
            self.D
        ) == blob_key(self.D, codec="sz", mode="psnr", target=t,
                      refine=None, entropy="huffman")

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--nrmse", "0.001", "--refine"],
             dict(mode="nrmse", target=0.001, refine="histogram")),
            (["--mse", "0.5"], dict(mode="mse", target=0.5)),
            (["--ratio", "8", "--tol", "0.1"],
             dict(mode="ratio", target=8.0, tol=0.1)),
            (["--bit-rate", "4", "--codec", "embedded"],
             dict(mode="rate", target=4.0, codec="embedded")),
            (["--pw-rel", "0.01"], dict(mode="pw_rel", bound=0.01)),
            (["--abs", "0.5", "--chunks", "3", "--entropy", "rans"],
             dict(mode="abs", bound=0.5, chunks=3, entropy="rans")),
            (["--rel", "1e-4", "--codec", "hybrid"],
             dict(mode="rel", bound=1e-4, codec="hybrid")),
        ],
    )
    def test_cli_keys_unchanged(self, argv, expected):
        args = build_parser().parse_args(
            ["compress", "in.npy", "-o", "o.fpz"] + argv
        )
        kw = dict(codec="sz", entropy="huffman")
        kw.update(expected)
        assert CompressSpec.from_args(args).cache_key(self.D) == blob_key(
            self.D, **kw
        )

    def test_non_default_search_budget_is_keyed(self):
        def key(**kw):
            return CompressSpec(**kw).cache_key(self.D)

        assert key(mode="ratio", target=8.0, max_trials=20) != key(
            mode="ratio", target=8.0
        )
        # ...but only for searches: a psnr key ignores search knobs.
        assert key(target=60.0, tol=0.3, max_trials=3) == key(target=60.0)


class TestKernel:
    def test_closed_form_modes_match_the_paper_functions(self, smooth2d):
        out = CompressSpec(mode="nrmse", target=1e-3).run(smooth2d)
        assert out.blob == compress_fixed_nrmse(smooth2d, 1e-3)
        assert out.achieved == pytest.approx(1e-3, rel=0.5)
        out = CompressSpec(mode="mse", target=1e-4).run(smooth2d)
        assert out.blob == compress_fixed_mse(smooth2d, 1e-4)
        out = CompressSpec(target=70.0).run(smooth2d)
        assert out.blob == FixedPSNRCompressor(70.0).compress(smooth2d)
        assert out.achieved == out.achieved_psnr

    def test_entropy_choice_reaches_the_codec(self, smooth2d):
        rans = CompressSpec(target=70.0, entropy="rans").run(smooth2d)
        assert rans.blob == FixedPSNRCompressor(
            70.0, entropy="rans"
        ).compress(smooth2d)
        assert rans.blob != CompressSpec(target=70.0).run(smooth2d).blob

    def test_no_store_computes_no_digest(self, monkeypatch, smooth2d):
        calls = []
        monkeypatch.setattr(
            repro.cache, "data_digest", lambda a: calls.append(a) or "x"
        )
        CompressSpec(target=70.0).run(smooth2d)
        assert calls == []

    def test_store_hashes_once_and_decodes_once(
        self, monkeypatch, tmp_path, smooth2d
    ):
        hashed, decoded = [], []
        real_digest = repro.cache.data_digest
        real_decode = repro.sz.compressor.decompress
        monkeypatch.setattr(
            repro.cache, "data_digest",
            lambda a: hashed.append(1) or real_digest(a),
        )
        monkeypatch.setattr(
            repro.sz.compressor, "decompress",
            lambda b, **kw: decoded.append(1) or real_decode(b, **kw),
        )
        store = CacheStore(root=str(tmp_path))
        spec = CompressSpec(target=70.0)
        cold = spec.run(smooth2d, store)
        assert (len(hashed), len(decoded)) == (1, 1)
        warm = spec.run(smooth2d, store)
        assert (len(hashed), len(decoded)) == (2, 1)
        assert warm.cached and not cold.cached
        assert warm.blob == cold.blob and warm.key == cold.key
        assert warm.achieved_psnr == cold.achieved_psnr
        assert warm.eb_rel == cold.eb_rel

    def test_ratio_search_reuses_the_digest(
        self, monkeypatch, tmp_path, smooth2d
    ):
        import repro.autotune.driver as driver

        hashed = []
        real = repro.cache.data_digest

        def counting(a):
            hashed.append(a.shape)
            return real(a)

        monkeypatch.setattr(repro.cache, "data_digest", counting)
        monkeypatch.setattr(driver, "data_digest", counting)
        out = CompressSpec(mode="ratio", target=8.0).run(
            smooth2d, CacheStore(root=str(tmp_path))
        )
        assert hashed == [smooth2d.shape]
        assert out.achieved == pytest.approx(8.0, rel=0.1)

    def test_malformed_entry_is_recompressed(self, tmp_path, smooth2d):
        store = CacheStore(root=str(tmp_path))
        spec = CompressSpec(target=70.0)
        key = spec.cache_key(data_digest(smooth2d))
        store.put(key, b"garbage", {"kind": "blob", "metrics": {}})
        out = spec.run(smooth2d, store)
        assert not out.cached
        assert out.blob == FixedPSNRCompressor(70.0).compress(smooth2d)

    def test_entry_without_bound_still_hits(self, tmp_path, smooth2d):
        """Blob entries that older ``fpzc compress`` runs wrote carry no
        ``eb_rel``; they keep serving the CLI, while a sweep (which
        reports the bound) recompresses instead of reporting none."""
        from repro.parallel.executor import run_field_task

        data = get_dataset(DATASET).field(FIELD)
        store = CacheStore(root=str(tmp_path))
        spec = CompressSpec(target=60.0)
        blob = FixedPSNRCompressor(60.0).compress(data)
        store.put(spec.cache_key(data_digest(data)), blob, {
            "kind": "blob", "mode": "psnr", "target": 60.0,
            "metrics": {"achieved_psnr": 61.0, "achieved": 61.0},
        })
        hit = spec.run(data, store)
        assert hit.cached and hit.blob == blob and hit.eb_rel is None
        row = run_field_task(DATASET, FIELD, 60.0, cache=store)
        assert not row.cache_hit
        assert row == run_field_task(DATASET, FIELD, 60.0)

    def test_unmeasured_modes_skip_the_decode(self, smooth2d):
        out = CompressSpec(mode="abs", target=0.01).run(smooth2d)
        assert out.achieved_psnr is None and out.eb_rel is None
        out = CompressSpec(mode="rel", target=1e-3).run(smooth2d)
        assert out.eb_rel == 1e-3

    @pytest.mark.parametrize(
        "spec",
        [
            CompressSpec(mode="bogus", target=1.0),
            CompressSpec(mode="nrmse", target=1e-3, codec="embedded"),
            CompressSpec(mode="rate", target=4.0),
            CompressSpec(mode="pw_rel", target=0.01, codec="transform"),
            CompressSpec(mode="mse", target=1e-3, chunks=2),
            CompressSpec(mode="abs", target=1e-3, codec="hybrid", chunks=2),
        ],
    )
    def test_unsupported_requests_raise(self, spec, smooth2d):
        with pytest.raises(ParameterError):
            spec.run(smooth2d)


def test_field_stats_memoizes_and_tolerates_unknown_fields():
    a = field_stats(DATASET, FIELD)
    assert a is field_stats(DATASET, FIELD)
    data = get_dataset(DATASET).field(FIELD)
    assert a.digest == data_digest(data)
    assert (a.nbytes, a.size) == (data.nbytes, data.size)
    assert field_stats(DATASET, "no_such_field") is None
