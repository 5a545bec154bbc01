"""Seeded input generators for the three workloads.

Every generator takes the run's seed and nothing else, so the same seed
gives the same inputs.  For ``codec`` the seed orders the cases of each
pass; the fields themselves are the registry's deterministic fields.
The request mixes are stratified: each block of requests holds the
mix's exact proportions and the seed only shuffles the order inside a
block (and, for ``cluster_cached``, draws the fresh targets).  That
keeps the per-run composition, and so the figures that depend on it,
steady across seeds.

Pure standard library: the program under test is not imported here.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

__all__ = [
    "CodecCase",
    "CODEC_CASES",
    "codec_fields",
    "codec_pass_order",
    "SERVICE_TARGETS",
    "SERVICE_BLOCK",
    "service_requests",
    "service_warm_specs",
    "HOT_FIELDS",
    "HOT_TARGETS",
    "FRESH_RANGE",
    "CLUSTER_BLOCK",
    "hot_specs",
    "cluster_requests",
    "cluster_warm_specs",
]

# -- codec -------------------------------------------------------------

#: (dataset, field, scale, target dB, codec); scale None = registry default.
CodecCase = Tuple[str, str, object, float, str]

_CODEC_FIELDS = (
    ("ATM", "CLDHGH"),
    ("ATM", "FLDS"),
    ("Hurricane", "TC"),
    ("Hurricane", "QVAPOR"),
    ("NYX", "temperature"),
    ("NYX", "baryon_density"),
)

CODEC_CASES: Tuple[CodecCase, ...] = tuple(
    [
        (ds, f, None, float(t), "sz")
        for ds, f in _CODEC_FIELDS
        for t in (40, 80, 100)
    ]
    + [
        # Larger than the 4 MiB L2: 6.5 MB and 12.5 MB float32 fields.
        ("ATM", "CLDHGH", 0.5, 60.0, "sz"),
        ("Hurricane", "TC", 0.5, 60.0, "sz"),
    ]
    + [
        ("NYX", "temperature", None, 60.0, codec)
        for codec in ("hybrid", "interp", "transform", "regression")
    ]
)


def codec_fields() -> List[Tuple[str, str, object]]:
    """Distinct (dataset, field, scale) triples of the corpus, in order."""
    out: List[Tuple[str, str, object]] = []
    for ds, f, scale, _t, _c in CODEC_CASES:
        if (ds, f, scale) not in out:
            out.append((ds, f, scale))
    return out


def codec_pass_order(seed: int, pass_index: int) -> List[int]:
    """The order in which pass ``pass_index`` visits the corpus cases."""
    order = list(range(len(CODEC_CASES)))
    random.Random(f"codec-pass:{seed}:{pass_index}").shuffle(order)
    return order


# -- service -----------------------------------------------------------

SERVICE_TARGETS = (40.0, 60.0, 80.0, 100.0)
_SERVICE_ATM = ("CLDHGH", "CLDLOW", "CLDMED", "FLDS", "FLNS", "RELHUM", "SOLIN")
_SERVICE_HURRICANE = ("TC", "QVAPOR")
_SERVICE_NYX = ("temperature", "baryon_density")


def _service_block() -> List[Dict]:
    """One stratified block: per target 7 ATM, 2 Hurricane, 1 NYX job,
    so 70 % / 20 % / 10 % of every 40 requests."""
    block: List[Dict] = []
    for i, target in enumerate(SERVICE_TARGETS):
        picks = (
            [("ATM", f) for f in _SERVICE_ATM]
            + [("Hurricane", f) for f in _SERVICE_HURRICANE]
            + [("NYX", _SERVICE_NYX[i % len(_SERVICE_NYX)])]
        )
        for ds, f in picks:
            block.append(
                {"dataset": ds, "field": f, "target": target, "codec": "sz"}
            )
    return block


SERVICE_BLOCK = len(_service_block())


def service_requests(seed: int) -> Iterator[Dict]:
    """Endless seeded stream of compress payloads for ``service``."""
    rng = random.Random(f"service:{seed}")
    while True:
        block = _service_block()
        rng.shuffle(block)
        yield from block


def service_warm_specs(n_workers: int) -> List[Dict]:
    """``n_workers`` concurrent warm-up jobs: mid-sized fields at a
    target outside the mix, so each worker is busy long enough for the
    next one to take its own job."""
    fields = [("Hurricane", "TC"), ("Hurricane", "QVAPOR")]
    return [
        {
            "dataset": fields[i % len(fields)][0],
            "field": fields[i % len(fields)][1],
            "target": 45.0,
            "codec": "sz",
        }
        for i in range(n_workers)
    ]


# -- cluster_cached ----------------------------------------------------

#: ATM flux fields of like cost (about 30 ms of worker task at the fresh
#: targets).  Most misses then finish before the coordinator's member
#: poll at 50 ms, so the p90, which falls on the middle miss, does not
#: jump between 50 ms poll steps from run to run.
HOT_FIELDS = ("FLDS", "FLNTC", "FLUT", "FSDS", "FSDSC", "SOLIN")
HOT_TARGETS = (60.0, 80.0)
#: Fresh targets are drawn here: disjoint from the hot targets and from
#: the warm-up targets, so every fresh request misses the cache.
FRESH_RANGE = (40.0, 44.0)


def hot_specs() -> List[Dict]:
    """The hot set filled during setup (12 ATM field/target pairs)."""
    return [
        {"dataset": "ATM", "field": f, "target": t, "codec": "sz"}
        for f in HOT_FIELDS
        for t in HOT_TARGETS
    ]


def _cluster_block(rng: random.Random, used: set) -> List[Dict]:
    """24 hot reads (each hot pair twice) + 6 fresh writes = 80 / 20 %."""
    block = [dict(s, kind="hot") for s in hot_specs() for _ in range(2)]
    for f in HOT_FIELDS:
        while True:
            target = round(rng.uniform(*FRESH_RANGE), 3)
            if target not in used:
                used.add(target)
                break
        block.append(
            {
                "dataset": "ATM",
                "field": f,
                "target": target,
                "codec": "sz",
                "kind": "fresh",
            }
        )
    rng.shuffle(block)
    return block


CLUSTER_BLOCK = 2 * len(HOT_FIELDS) * len(HOT_TARGETS) + len(HOT_FIELDS)


def cluster_requests(seed: int) -> Iterator[Dict]:
    """Endless seeded stream for ``cluster_cached``; every fresh
    (field, target) pair is unique within the stream."""
    rng = random.Random(f"cluster:{seed}")
    used: set = set()
    while True:
        yield from _cluster_block(rng, used)


def cluster_warm_specs(n_members: int) -> List[Dict]:
    """One warm-up job per member, each with its own target (outside
    the hot and fresh targets) so neither is answered from the shared
    cache and every member's worker actually starts."""
    return [
        {"dataset": "ATM", "field": "FLDS", "target": 50.0 + i, "codec": "sz"}
        for i in range(n_members)
    ]
