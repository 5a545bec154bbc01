"""BENCHMARK.json and run.py name the same metrics with the same units."""

import json
from pathlib import Path

import run

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_end_to_end_table_matches():
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
    } == run.END_TO_END


def test_per_layer_table_matches():
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == run.PER_LAYER


def test_workloads_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
