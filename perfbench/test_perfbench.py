"""Tests of the benchmark itself.  Run with: python -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, span_metrics, traced  # noqa: E402

SMALL_MODELS = (workloads.CIRCLE, workloads.TORUS2, workloads.HEIS_CIRCLE)
# Pass digests of the exact invariants, pinned at the commit that added the
# benchmark: any seed for SMALL_MODELS; the first 12 presentations of seed 3,
# pass 0.
SMALL_MODELS_DIGEST = "5e97f4ea0a0fb8182dd83f0fa598c0cc03c8c2c554ecb0901b76c1cd6d9c2fff"
PRESENTATIONS_DIGEST = "9062eced11045a77cbd038c06c835ffad9359d31878d13938cded6233188ba74"
COUNTS = (
    "groebner.finite_length_calls",
    "groebner.syzygies_calls",
    "resolutions.resolve_calls",
    "resolutions.betti_total",
    "linalg.rank_calls",
    "linalg.rref_calls",
    "linalg.cells",
    "linalg.nonzero_cells",
    "diagrams.pure_terms",
)


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def one_pass(lib, workload, k, trace, limit=None):
    items = workload.prepare(lib, workload.inputs(k))[:limit]
    if not trace:
        return workload.run_pass(lib, items, lambda: None), None
    tracer = Tracer()
    with traced(tracer):
        result = workload.run_pass(lib, items, tracer.begin_op)
    return result, span_metrics(tracer.spans, tracer.counts, 1.0)


@pytest.mark.parametrize("name", sorted(workloads.SHIPPED))
def test_unscaled_models_are_the_shipped_files(name):
    model = workloads.SHIPPED[name]
    shipped = (ROOT / "tests" / "data" / f"{name}.sul").read_text()
    assert model.text((1,) * len(model.twists)) == shipped


def test_inputs_are_seeded_and_fresh():
    a = workloads.ModelsWorkload("small", SMALL_MODELS, seed=5)
    b = workloads.ModelsWorkload("small", SMALL_MODELS, seed=5)
    passes = [a.inputs(k) for k in range(4)]
    assert passes == [b.inputs(k) for k in range(4)]
    texts = [t for batch in passes for t in batch]
    assert len(set(texts)) == len(texts)
    assert passes != [workloads.ModelsWorkload("small", SMALL_MODELS, seed=6).inputs(k) for k in range(4)]


def test_models_digest_is_fixed_and_trace_neutral(lib):
    digests = set()
    for seed in (1, 2):
        workload = workloads.ModelsWorkload("small", SMALL_MODELS, seed)
        plain, _ = one_pass(lib, workload, 0, trace=False)
        traced_result, _ = one_pass(lib, workload, 1, trace=True)
        assert plain.failed == traced_result.failed == 0
        digests |= {plain.digest, traced_result.digest}
    assert digests == {SMALL_MODELS_DIGEST}


def test_presentations_counts_repeat_and_trace_is_neutral(lib):
    def fresh():
        return workloads.PresentationsWorkload(seed=3)

    plain, _ = one_pass(lib, fresh(), 0, trace=False, limit=12)
    first, counts1 = one_pass(lib, fresh(), 0, trace=True, limit=12)
    second, counts2 = one_pass(lib, fresh(), 0, trace=True, limit=12)
    assert plain.failed == first.failed == second.failed == 0
    assert plain.attempted == 13
    assert plain.digest == first.digest == second.digest == PRESENTATIONS_DIGEST
    assert {c: counts1[c] for c in COUNTS} == {c: counts2[c] for c in COUNTS}
    assert counts1["resolutions.resolve_calls"] >= 12
    assert counts1["linalg.cells"] >= counts1["linalg.nonzero_cells"] > 0


def test_tracing_restores_every_binding(lib):
    before = {(m, k): v for m in vars(lib).values() for k, v in vars(m).items()}
    with traced(Tracer()):
        assert lib.cli.parse_extension is not before[(lib.cli, "parse_extension")]
        assert lib.hirschbrown.syzygies_of_columns is lib.groebner.syzygies_of_columns
    after = {(m, k): v for m in vars(lib).values() for k, v in vars(m).items()}
    assert after == before
    assert "recompose" in vars(lib.diagrams.BSDecomposition)


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presentations", "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_presentation_inputs_do_not_call_the_library(lib, monkeypatch):
    expected = workloads.PresentationsWorkload(seed=9).inputs(1)

    def refuse(*args, **kwargs):
        raise AssertionError("input generation called the library")

    for module in (lib.groebner, lib.resolutions, lib.hirschbrown):
        for name in ("finite_length_and_hilbert", "syzygies_of_columns", "minimal_free_resolution"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    batch = workloads.PresentationsWorkload(seed=9).inputs(1)
    assert batch == expected
    assert len(batch) == workloads.PresentationsWorkload.PASS_SIZE


def test_presentation_inputs_are_fresh():
    workload = workloads.PresentationsWorkload(seed=2)
    texts = [text for k in range(12) for text, _ in workload.inputs(k)]
    assert len(set(texts)) == len(texts)
