"""Harness smoke test: every workload at the tiny sizes, plain and traced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spec import END_TO_END, PER_LAYER, SIZES, WORKLOADS, checks  # noqa: E402


def test_benchmark_json_matches_spec():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_emits_every_metric_and_passes(workload, trace):
    out = run.bench(workload, seed=7, seconds=0, trace=trace, profile="tiny")
    expected = PER_LAYER if trace else END_TO_END
    assert ({name: m["unit"] for name, m in out["metrics"].items()}
            == {name: unit for name, unit, _better in expected})
    runs = 2 if trace else 1
    assert out["attempted"] == runs * len(checks(workload, "tiny"))
    assert out["failed"] == 0 and out["correct"] is True


def test_nonzero_cli_exit_fails_every_check(monkeypatch):
    # nmax above the CLI's cap of 26 is a usage error (exit 2)
    monkeypatch.setitem(SIZES["tiny"], "loop", {**SIZES["tiny"]["loop"], "nmax": 30})
    out = run.bench("loop", seed=1, seconds=0, trace=False, profile="tiny")
    assert out["attempted"] == len(checks("loop", "tiny"))
    assert out["failed"] == out["attempted"] and out["correct"] is False
