"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

A short run of each workload must emit every metric BENCHMARK.json
names, with its unit; a planted wrong reference must raise
``wrong_outputs``; and the traced run's exact counts, and every
run's attempted and failed operations, must repeat between two runs
of one seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import common, run as bench

WORKLOADS = bench.WORKLOADS
RUN = os.path.join(common.ROOT, "perfbench", "run.py")

#: Per-layer metrics that are counts of deterministic work.
EXACT = ("opt.il_statements", "analysis.flowgraph_builds",
         "analysis.usedef_builds", "analysis.liveness_builds",
         "dependence.graph_builds", "frontend.tokens",
         "frontend.il_statements", "inline.sites_inlined",
         "vectorize.loops_examined", "vectorize.loops_vectorized",
         "titan.steps", "titan.vector_instructions",
         "titan.cycles_geomean", "service.catalog_hit_ratio",
         "service.artifact_hit_ratio", "service.evictions",
         "service.coalesced", "service.rejects", "trace.ops")


def _run(workload, trace, seed=3, cwd=common.ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload, trace, seed=3):
    done = _run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = _result(workload, trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {entry["name"]: entry["unit"]
                for entry in bench.spec()[section]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_reference_raises_wrong_outputs(workload,
                                                      monkeypatch):
    module = __import__(f"perfbench.{workload}", fromlist=["run"])
    real = common.References.ask

    def wrong(self, request):
        answer = real(self, request)
        if "kernels" in request:
            return {"value": {name: ["planted", value] for name, value
                              in answer["value"].items()}}
        return dict(answer, value=["planted", answer["value"]])

    monkeypatch.setattr(common.References, "ask", wrong)
    # cli_oneshot consults the reference only on --run invocations,
    # so it gets one whole round of the file/mode pairs.
    ops = 8 if workload == "cli_oneshot" else 2
    outcome = module.run(5, common.Budget(seconds=1, ops=ops))
    assert outcome.wrong


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs(workload):
    first = _result(workload, 1)["metrics"]
    second = _result(workload, 1)["metrics"]
    for name in EXACT:
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_attempted_and_failed_repeat_across_runs(workload):
    first, second = (_result(workload, 0, seed=505) for _ in range(2))
    assert (first["attempted"], first["failed"]) == \
        (second["attempted"], second["failed"])


def test_spec_names_what_benchmark_json_names():
    with open(os.path.join(common.ROOT, "perfbench", "spec.json")) as f:
        companion = json.load(f)
    bench_spec = bench.spec()
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in bench_spec[section]]
        assert list(companion[section]) == names, section
    assert list(companion["baseline"]["end_to_end"]) == list(WORKLOADS)


def test_fails_without_the_compiler_sources(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(common.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("compile_corpus", 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
