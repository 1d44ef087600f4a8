"""Tests of the host-cost benchmark itself, at the ``tiny`` size.

Run from the repository root::

    python3 -m pytest hostbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("paper_figs", "scenario_corpus", "metro_city", "fanout_1m")
CACHE = os.path.join(ROOT, ".insane-cache")
CACHE_EXISTED = os.path.exists(CACHE)

sys.path.insert(0, BENCH)
import run  # noqa: E402  (the benchmark driver, imported for check())


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args):
    return subprocess.run(
        [sys.executable, RUN, "--size", "tiny", "--seconds", "0"]
        + list(args),
        cwd=ROOT, capture_output=True, text=True, timeout=170)


def _results(proc):
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


@pytest.fixture(scope="module")
def untraced():
    return _results(_run("--all", "--trace", "0"))


@pytest.fixture(scope="module")
def traced():
    return _results(_run("--all", "--trace", "1"))


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"]
             for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_untraced_emits_every_end_to_end_metric(untraced):
    assert len(untraced) == len(WORKLOADS)
    for result in untraced:
        _assert_metrics(result, _spec()["end_to_end"])
        for metric in result["metrics"].values():
            assert metric["value"] > 0


def test_traced_emits_every_per_layer_metric(traced):
    assert len(traced) == len(WORKLOADS)
    for result in traced:
        _assert_metrics(result, _spec()["per_layer"])


def test_traced_digests_equal_untraced(traced):
    for workload in WORKLOADS:
        path = os.path.join(BENCH, "out",
                            "%s-seed0-tiny-trace1.json" % workload)
        with open(path) as handle:
            reps = json.load(handle)["repetitions"]
        plain = [[c["digest"] for c in rep["cells"]]
                 for rep in reps["untraced"]]
        for rep in reps["traced"]:
            assert [c["digest"] for c in rep["cells"]] == plain[0]
            assert all(c["digest"] for c in rep["cells"])


def test_layers_are_attributed(traced):
    by_name = dict(zip(WORKLOADS, traced))
    paper = by_name["paper_figs"]["metrics"]
    assert paper["core.session.self_s"]["value"] > 0
    assert paper["simnet.events"]["value"] > 0
    assert by_name["metro_city"]["metrics"]["core.session.calls"][
        "value"] == 0
    assert by_name["metro_city"]["metrics"]["dist.events_ratio"][
        "value"] > 0
    assert by_name["fanout_1m"]["metrics"]["fluid.self_s"]["value"] > 0
    assert by_name["scenario_corpus"]["metrics"]["scenario.compile_s"][
        "value"] > 0


def _untraced_reps(workload):
    path = os.path.join(BENCH, "out", "%s-seed0-tiny-trace0.json" % workload)
    with open(path) as handle:
        return json.load(handle)["repetitions"]["untraced"]


def _pins():
    with open(os.path.join(BENCH, "pins.json")) as handle:
        return json.load(handle)


def test_wrong_pinned_digest_counts_as_failure(untraced):
    plain = _untraced_reps("paper_figs")
    stamp, entry = next((key, value) for key, value in _pins().items()
                        if value["workload"] == "paper_figs"
                        and value["size"] == "tiny")
    assert run.check("paper_figs", 0, "tiny", plain, [],
                     {stamp: entry})[2] == 0
    entry["cells"]["fig8a"] = "0" * 64
    _, attempted, failed, problems = run.check(
        "paper_figs", 0, "tiny", plain, [], {stamp: entry})
    assert failed == len(plain) and attempted == 3 * len(plain)
    assert all("pinned" in problem for problem in problems)


def test_one_divergent_repetition_costs_one_cell(untraced):
    plain = copy.deepcopy(_untraced_reps("metro_city"))
    assert len(plain) >= 3
    plain[0]["cells"][1]["digest"] = "0" * 64
    _, attempted, failed, problems = run.check(
        "metro_city", 0, "tiny", plain, [], {})
    assert (attempted, failed) == (2 * len(plain), 1)
    assert "common" in problems[0]


def test_no_result_cache_left_behind(untraced):
    assert os.path.exists(CACHE) == CACHE_EXISTED


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "paper_figs",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
