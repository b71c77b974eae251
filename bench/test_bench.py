"""Self-test of the benchmark (takes a few minutes):

    python3 -m pytest bench/test_bench.py

* two traced runs of one seed give identical counts, on every workload;
* ``trace.unattributed_ratio`` stays at or below 0.10 on every workload;
* every metric BENCHMARK.json names is emitted with its unit, and no other;
* a deliberately wrong reference lattice trips the correctness gate, on the
  library path and on the command-line path;
* a timed call that raises trips it too;
* no known failure is timed, the seed never changes which draws are timed,
  and every known failure is probed;
* a known failure that fails for another reason trips the gate.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s" and not name.startswith("trace.")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    first, second = run_bench(workload, 1), run_bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["metrics"]["trace.unattributed_ratio"]["value"] <= 0.10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run_bench(workload, 0)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"]
                             for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def bench_module():
    sys.path.insert(0, str(BENCH))
    import run
    return run


@pytest.mark.parametrize("workload", ["towers", "full_disc"])
def test_wrong_reference_trips_the_gate(bench_module, workload):
    refs = bench_module.load_refs(workload)
    bad = copy.deepcopy(refs)
    row = bad["lattices"]["example1"]["hnf"][0]
    row[-1] = str(int(row[-1]) + 1)
    for table, correct in ((refs, True), (bad, False)):
        cases = [c for c in bench_module.build_cases(workload, 0, table)
                 if c.name == "example1"]
        tally = bench_module.Tally()
        bench_module.run_pass(cases, tally)
        assert (tally.attempted, tally.correct) == (1, correct)


def raise_value_error():
    raise ValueError("injected failure")


def test_raising_call_trips_the_gate(bench_module):
    cases = [c for c in bench_module.build_cases(
        "towers", 0, bench_module.load_refs("towers")) if c.name == "example1"]
    cases[0].call = raise_value_error
    tally = bench_module.Tally()
    bench_module.run_pass(cases, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_known_failures_are_not_timed(bench_module, workload):
    refs = bench_module.load_refs(workload)
    timed = {seed: [c.name for c in bench_module.build_cases(workload, seed,
                                                             refs)]
             for seed in (0, 1)}
    assert timed[0] and not set(timed[0]) & set(refs["failures"])
    # the seed picks a draw or its reflection, never whether it is timed
    assert ([n.rstrip("r") for n in timed[0]]
            == [n.rstrip("r") for n in timed[1]])
    probed = [c.name for c in bench_module.defect_cases(workload, refs)]
    assert sorted(probed) == sorted(refs["failures"])


def test_known_failure_that_changes_trips_the_gate(bench_module):
    refs = bench_module.load_refs("verify")
    case, = bench_module.defect_cases("verify", refs)
    tally = bench_module.Tally()
    assert bench_module.probe_defects([case], refs["failures"], tally) == 1
    assert (tally.attempted, tally.failed, tally.correct) == (0, 0, True)
    case.call = raise_value_error
    assert bench_module.probe_defects([case], refs["failures"], tally) == 0
    assert tally.correct is False
