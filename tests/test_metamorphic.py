"""Metamorphic tests of the command chain: ``score``, ``snorm`` (with its cohort
score cache), ``calibrate`` and ``eval`` run through ``cli.main`` on a small
seeded corpus, once over a PLDA and once over a cosine backend, and again on
inputs that must give the same results:

- the trial list in another order;
- the evaluation store with unrelated utterances added and its records in
  another order;
- every evaluation id renamed consistently;
- every trial with its enroll and test sides swapped.

Each relation is one the chain guarantees by construction: scores find their
embeddings and cohort rows by utterance id, and the backends score a pair
symmetrically. A fault that gathers a row by position instead breaks one of
them.
"""

import numpy as np
import pytest

from svkit import cli, synthdata, tensorio
from svkit.trials import TrialList, load_scores, save_trials

# 12 training speakers and 6 evaluation speakers of one generative model
SPEC = synthdata.SynthSpec(seed=7, dim=16, num_speakers=18, utts_per_speaker=4)
TRAIN_SPEAKERS = 12
CONFIG = "plda_rank_speaker = 4\nplda_rank_channel = 4\nem_iters = 3\nsnorm_top_x = 5\n"
OUTPUTS = ("raw.scores", "snorm.scores", "cohort.svf", "cal.scores", "metrics.txt")
# calibration sums over the trials in their order, so a new order moves its
# scores by rounding: by at most 3e-16 of the largest calibrated score over
# five orders of this corpus, with either backend
CAL_RTOL = 1e-12


class Chain:
    """One trained backend, the evaluation inputs the chain runs on and its outputs on them."""

    def __init__(self, root, kind: str):
        self.root = root
        x, labels, _ = synthdata.gen_plda_data(SPEC)
        n_train = TRAIN_SPEAKERS * SPEC.utts_per_speaker
        (root / "plda.cfg").write_text(CONFIG, encoding="utf-8")
        train_ids = [f"train{k:03d}" for k in range(n_train)]
        tensorio.write_tensors(root / "train.svw", dict(zip(train_ids, x[:n_train])))
        (root / "train_labels.txt").write_text(
            "".join(f"{u} {s}\n" for u, s in zip(train_ids, labels)), encoding="utf-8")
        assert cli.main(["train_plda", "--config", str(root / "plda.cfg"), "--backend", kind,
                         "--embeddings", str(root / "train.svw"),
                         "--labels", str(root / "train_labels.txt"),
                         "--out", str(root / "backend.svw")]) == 0
        eval_ids = synthdata.utt_ids(len(x) - n_train)
        self.store = dict(zip(eval_ids, x[n_train:]))
        self.trials = synthdata.gen_trials(labels[n_train:], 20, 40, seed=8)
        self.base = self.run("base", self.store, self.trials)

    def run(self, name: str, store: dict, trials: TrialList) -> dict[str, bytes]:
        """The bytes of every output file of the chain on ``store`` and ``trials``."""
        out = self.root / name
        out.mkdir()
        tensorio.write_tensors(out / "eval.svw", store)
        save_trials(out / "trials.txt", trials)
        common = ["--backend-file", str(self.root / "backend.svw"),
                  "--embeddings", str(out / "eval.svw"), "--trials", str(out / "trials.txt")]
        for argv in (["score", *common, "--out", str(out / "raw.scores")],
                     ["snorm", "--config", str(self.root / "plda.cfg"), *common,
                      "--scores", str(out / "raw.scores"), "--out", str(out / "snorm.scores"),
                      "--cohort-scores-out", str(out / "cohort.svf")],
                     ["calibrate", "--scores", str(out / "snorm.scores"),
                      "--key", str(out / "trials.txt"), "--out", str(out / "cal.scores")],
                     ["eval", "--scores", str(out / "cal.scores"), "--key", str(out / "trials.txt"),
                      "--out", str(out / "metrics.txt")]):
            assert cli.main(argv) == 0, argv
        return {f: (out / f).read_bytes() for f in OUTPUTS}


@pytest.fixture(scope="module", params=["plda", "cosine"])
def chain(request, tmp_path_factory):
    return Chain(tmp_path_factory.mktemp(f"metamorphic_{request.param}"), request.param)


def lines(data: bytes) -> list[bytes]:
    return data.splitlines()


def score_column(data: bytes) -> list[bytes]:
    return [line.split()[2] for line in lines(data)]


def test_trial_order_permutes_the_score_lines(chain):
    t = chain.trials
    perm = np.random.default_rng(0).permutation(len(t))
    shuffled = TrialList([t.enroll[i] for i in perm], [t.test[i] for i in perm], t.labels[perm])
    got = chain.run("permuted", chain.store, shuffled)
    for name in ("raw.scores", "snorm.scores"):
        assert lines(got[name]) == [lines(chain.base[name])[i] for i in perm], name
    # the cache has one row per sorted trial utterance, whatever the trial order
    assert got["cohort.svf"] == chain.base["cohort.svf"]
    assert got["metrics.txt"] == chain.base["metrics.txt"]
    cal, base_cal = (load_scores(chain.root / d / "cal.scores") for d in ("permuted", "base"))
    assert cal.pairs() == shuffled.pairs()
    np.testing.assert_allclose(cal.scores, base_cal.scores[perm], rtol=0.0,
                               atol=CAL_RTOL * np.max(np.abs(base_cal.scores)))


def test_unrelated_utterances_and_record_order_change_no_output(chain):
    rng = np.random.default_rng(1)
    extra = {f"x{k:03d}": row for k, row in enumerate(rng.standard_normal((10, SPEC.dim)))}
    merged = {**chain.store, **extra}
    order = rng.permutation(len(merged))
    ids = list(merged)
    store = {ids[i]: merged[ids[i]] for i in order}
    assert chain.run("extra", store, chain.trials) == chain.base


def test_consistent_renaming_changes_no_score_column(chain):
    # the new names sort in reverse, and the store is written in their sorted order
    ids = sorted(chain.store)
    rename = {u: f"r{len(ids) - k:03d}" for k, u in enumerate(ids)}
    store = {rename[u]: chain.store[u] for u in sorted(ids, key=rename.get)}
    t = chain.trials
    trials = TrialList([rename[u] for u in t.enroll], [rename[u] for u in t.test], t.labels)
    got = chain.run("renamed", store, trials)
    for name in ("raw.scores", "snorm.scores", "cal.scores"):
        assert score_column(got[name]) == score_column(chain.base[name]), name
    assert got["metrics.txt"] == chain.base["metrics.txt"]
    # one cache row per sorted trial utterance: the renaming reverses their order
    renamed, base = (tensorio.read_feature_matrix(chain.root / d / "cohort.svf")
                     for d in ("renamed", "base"))
    assert np.array_equal(renamed, base[::-1])


def test_swapped_sides_score_the_same(chain):
    t = chain.trials
    got = chain.run("swapped", chain.store, TrialList(list(t.test), list(t.enroll), t.labels))
    for name in ("raw.scores", "snorm.scores"):
        assert score_column(got[name]) == score_column(chain.base[name]), name
