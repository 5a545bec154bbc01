"""The seeded generators: reproducible, seed-dependent, right mix."""

from collections import Counter
from itertools import islice

import pytest

import gen


def take(stream, n):
    return list(islice(stream, n))


@pytest.mark.parametrize("make", [gen.service_requests, gen.cluster_requests])
def test_same_seed_same_requests(make):
    assert take(make(7), 300) == take(make(7), 300)


@pytest.mark.parametrize("make", [gen.service_requests, gen.cluster_requests])
def test_other_seed_other_requests(make):
    assert take(make(7), 300) != take(make(8), 300)


def test_service_mix_proportions():
    reqs = take(gen.service_requests(3), 10 * gen.SERVICE_BLOCK)
    by_dataset = Counter(r["dataset"] for r in reqs)
    assert by_dataset["ATM"] == 0.7 * len(reqs)
    assert by_dataset["Hurricane"] == 0.2 * len(reqs)
    assert by_dataset["NYX"] == 0.1 * len(reqs)
    by_target = Counter(r["target"] for r in reqs)
    assert set(by_target) == set(gen.SERVICE_TARGETS)
    assert len(set(by_target.values())) == 1
    assert all(r["codec"] == "sz" for r in reqs)


def test_service_every_block_holds_the_mix():
    reqs = take(gen.service_requests(5), 3 * gen.SERVICE_BLOCK)
    blocks = [
        reqs[i:i + gen.SERVICE_BLOCK]
        for i in range(0, len(reqs), gen.SERVICE_BLOCK)
    ]
    counts = [Counter(r["dataset"] for r in b) for b in blocks]
    assert all(c == counts[0] for c in counts)


def test_cluster_mix_proportions():
    reqs = take(gen.cluster_requests(3), 20 * gen.CLUSTER_BLOCK)
    kinds = Counter(r["kind"] for r in reqs)
    assert kinds["hot"] == 0.8 * len(reqs)
    assert kinds["fresh"] == 0.2 * len(reqs)
    hot = {(s["field"], s["target"]) for s in gen.hot_specs()}
    assert {(r["field"], r["target"]) for r in reqs if r["kind"] == "hot"} == hot


def test_cluster_fresh_pairs_always_miss():
    reqs = take(gen.cluster_requests(11), 40 * gen.CLUSTER_BLOCK)
    fresh = [r for r in reqs if r["kind"] == "fresh"]
    targets = [r["target"] for r in fresh]
    assert len(set(targets)) == len(targets)
    lo, hi = gen.FRESH_RANGE
    assert all(lo <= t <= hi for t in targets)
    reserved = set(gen.HOT_TARGETS) | {
        s["target"] for s in gen.cluster_warm_specs(2)
    }
    assert not reserved & set(targets)
    assert {r["field"] for r in fresh} == set(gen.HOT_FIELDS)


def test_codec_order_follows_the_seed():
    assert gen.codec_pass_order(1, 0) == gen.codec_pass_order(1, 0)
    assert gen.codec_pass_order(1, 0) != gen.codec_pass_order(2, 0)
    assert sorted(gen.codec_pass_order(4, 2)) == list(range(len(gen.CODEC_CASES)))


def test_codec_corpus_shape():
    cases = gen.CODEC_CASES
    assert len(cases) == 24
    assert Counter(c[4] for c in cases)["sz"] == 20
    assert {c[3] for c in cases if c[2] is None and c[4] == "sz"} == {40.0, 80.0, 100.0}
    assert [c[:3] for c in cases if c[2] == 0.5] == [
        ("ATM", "CLDHGH", 0.5), ("Hurricane", "TC", 0.5)
    ]
