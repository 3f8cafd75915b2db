"""Tests of the benchmark's own checks, tracer and metric lists.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import importlib.util
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from svbench import checks, harness, tracing, workloads  # noqa: E402
from svkit import backend, metrics, scorenorm  # noqa: E402
from svkit.trials import load_scores, save_scores  # noqa: E402

TINY = workloads.PldaScore(dim=16, train_speakers=12, train_sessions=3, eval_speakers=4,
                           eval_utts=3, rank=4, em_iters=2)
SEED = 3


@pytest.fixture
def inputs(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    shape = TINY.generate(in_dir, SEED)
    return in_dir, shape


def _measure(workload, in_dir, shape, tmp_path, trace=False, **kwargs):
    return harness.measure(workload, in_dir, tmp_path / "runs", shape, SEED,
                           seconds=0.0, trace=trace, **kwargs)


def test_clean_run_has_no_failures(inputs, tmp_path):
    in_dir, shape = inputs
    result = _measure(TINY, in_dir, shape, tmp_path)
    assert result["failures"] == []
    assert result["attempted"] > 4 * len(TINY.steps(in_dir, tmp_path))
    assert len(result["walls"]) == 3 and all(w > 0 for w in result["walls"])
    assert len(result["cpus"]) == 3 and all(c > 0 for c in result["cpus"])


def test_wrong_recorded_eval_line_is_a_failure(inputs, tmp_path):
    in_dir, shape = inputs
    result = _measure(TINY, in_dir, shape, tmp_path,
                      expected_metrics="EER=0.000%  minDCF(p=0.05)=0.0000")
    assert result["failures"] == ["eval.recorded_metrics"]


def test_setup_repeats_are_timed_and_compared(inputs, tmp_path):
    in_dir, shape = inputs
    answers = {1: (0.5, 0.6, True), 2: (0.25, 0.3, False)}
    result = _measure(TINY, in_dir, shape, tmp_path, setups=3,
                      setup_again=lambda k: answers[k])  # k = 3 raises KeyError
    assert result["setup_times"] == [0.5, 0.25]
    assert result["setup_walls"] == [0.6, 0.3]
    assert result["failures"] == ["setup.identical_inputs.2", "setup.3"]


def test_reference_eer_and_min_dcf_agree_with_svkit():
    rng = np.random.default_rng(7)
    for _ in range(20):
        tar = np.round(rng.normal(2.0, 1.0, rng.integers(2, 60)), 1)  # rounding makes ties
        non = np.round(rng.normal(0.0, 1.0, rng.integers(2, 300)), 1)
        eer, dcf = checks.reference_eer_min_dcf(tar, non, 0.05)
        assert eer == pytest.approx(metrics.eer_from_tar_non(tar, non), abs=1e-9)
        assert dcf == pytest.approx(metrics.min_dcf_from_tar_non(tar, non), abs=1e-9)


@dataclass(frozen=True)
class PerturbedScore(workloads.PldaScore):
    """The tiny workload with one sampled raw score nudged after the chain."""

    def steps(self, in_dir, out):
        def perturb():
            path = out / "raw.scores"
            scores = load_scores(path)
            k = int(workloads.checks.sample_trials(len(scores), SEED, workloads.CHECK_SAMPLE)[0])
            values = scores.scores.copy()
            values[k] += 1e-6 * max(abs(values[k]), 1.0)
            save_scores(path, scores.with_scores(values))
            return 0
        return [*super().steps(in_dir, out), workloads.Step("perturb", call=perturb)]


def test_perturbed_score_is_a_failure(inputs, tmp_path):
    in_dir, shape = inputs
    bad = PerturbedScore(**asdict(TINY))
    result = _measure(bad, in_dir, shape, tmp_path)
    assert "plda.raw_vs_score_pair" in result["failures"]


@dataclass(frozen=True)
class MissingInput(workloads.PldaScore):
    """The tiny workload scoring against a trial list that does not exist."""

    def steps(self, in_dir, out):
        steps = super().steps(in_dir, out)
        argv = tuple(str(a).replace("trials.txt", "missing.txt") for a in steps[1].argv)
        return [steps[0], workloads.Step("score", argv), *steps[2:]]


def test_failing_step_is_a_failure(inputs, tmp_path):
    in_dir, shape = inputs
    bad = MissingInput(**asdict(TINY))
    result = _measure(bad, in_dir, shape, tmp_path)
    assert result["failures"] == ["step.score"]
    assert result["attempted"] == 2


def test_traced_run_reports_layers_and_restores_bindings(inputs, tmp_path):
    in_dir, shape = inputs
    originals = (backend.score_pair, scorenorm.score_pair, scorenorm.cohort_scores)
    result = _measure(TINY, in_dir, shape, tmp_path, trace=True)
    assert (backend.score_pair, scorenorm.score_pair, scorenorm.cohort_scores) == originals
    assert result["failures"] == []
    layers = result["layers"]
    assert set(layers) == {name for name, _ in tracing.PER_LAYER}
    n_utts = shape["eval_utterances"]
    assert layers["scorenorm.cohort_scores.calls"] == 2 * n_utts
    assert layers["scorenorm.cohort_vectors_per_utt"] == 2.0
    assert layers["scorenorm.adapt_snorm.calls"] == shape["trials"]
    # score: one pair per trial; snorm: one per cohort row, twice per utterance
    assert layers["backend.score_pair.calls"] == shape["trials"] + 2 * n_utts * shape["cohort"]
    assert layers["calibration.train_logreg.calls"] == 3
    assert layers["cli.snorm.s"] >= layers["cli.snorm.self_s"] > 0


def test_tracer_patches_names_bound_by_import():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scorenorm.score_pair is backend.score_pair
        assert scorenorm.score_pair.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(scorenorm.score_pair, "__wrapped__")


def test_benchmark_json_matches_reported_metrics():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
