"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (each test also prints its own PASS line, visible with -s).

Reference-scale results from the original system (e.g. 1.42 % EER / 0.166
minDCF on Vox1-O cleaned, and the 1.42 % / 1.26 % challenge-set EERs)
require training on VoxCeleb-scale data and are NOT reproducible at desk
scale; this suite substitutes property- and oracle-based acceptance on
synthetic data, which is what every criterion below verifies.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

from svkit import aam
from svkit import backend as bk
from svkit import calibration as cal
from svkit import frontend as fe
from svkit import metrics as mt
from svkit import nnet
from svkit import scorenorm as sn
from svkit import synthdata as sd

from test_aam import finite_difference_error, random_case, true_class_cosines
from test_calibration import llr_scores, make_scoreset
from test_metrics import dcf_oracle, keyed, sweep_oracle
from test_scorenorm import snorm_oracle


class budget:
    """Context manager asserting the block finishes inside its time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, f"budget exceeded: {self.elapsed:.1f}s"
        return False


def report(name):
    print(f"PASS  {name}", flush=True)


def test_c01_non_reproducibility_statement():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "not reproducible at desk scale" in readme.lower() or \
           "not desk-reproducible" in readme.lower()
    assert "1.42" in readme and "0.166" in readme and "1.26" in readme
    report("c01 reference-scale results declared non-reproducible; "
           "property/oracle acceptance substituted")


def test_c02_shape_audit():
    with budget(5.0):
        big = nnet.tdnn_shape_audit(nnet.tdnn_spec("tdnn-big", 30, 1000))
        assert big == [
            ("frame1", 150, 1024), ("frame2", 1024, 1024), ("frame3", 5120, 1024),
            ("frame4", 1024, 1024), ("frame5", 3072, 1024), ("frame6", 1024, 1024),
            ("frame7", 3072, 1024), ("frame8", 1024, 1024), ("frame9", 1024, 2000),
            ("stats", 2000, 4000), ("segment1", 4000, 512), ("segment2", 512, 512),
            ("softmax", 512, 1000),
        ]
        res = nnet.resnet_shape_audit(nnet.resnet_spec(1000), 200)
        assert res == [
            ("input", (40, 200, 1)), ("conv1", (40, 200, 32)),
            ("stage1", (40, 200, 32)), ("stage2", (20, 100, 64)),
            ("stage3", (10, 50, 128)), ("stage4", (5, 25, 256)),
            ("pool", (10, 256)), ("flatten", (2560,)),
            ("dense1", (256,)), ("dense2", (1000,)),
        ]
    report("c02 shape audit: TDNN-BIG and ResNet34 dry runs match every column")


def test_c03_aam_gradient_check():
    cfg = aam.AamConfig(30.0, 0.2)
    with budget(10.0):
        tau = -math.cos(cfg.margin)
        worst = 0.0
        far_branch = 0
        for seed in range(100):
            embs, labels, head = random_case(seed, force_far_branch=seed % 2 == 0)
            far_branch += int(np.sum(true_class_cosines(embs, labels, head) <= tau))
            worst = max(worst, finite_difference_error(embs, labels, head, cfg, step=1e-4))
        assert far_branch >= 25 and far_branch <= 75  # both branches exercised
        assert worst < 1e-5

        rng = np.random.default_rng(0)
        embs = rng.standard_normal((6, 7))
        labels = rng.integers(0, 3, size=6)
        head = rng.standard_normal((3, 7))
        loss = aam.aam_loss(embs, labels, head, aam.AamConfig(1.0, 0.0))
        e = embs / np.linalg.norm(embs, axis=1, keepdims=True)
        w = head / np.linalg.norm(head, axis=1, keepdims=True)
        z = e @ w.T
        plain = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(6), labels]))
        assert abs(loss - plain) < 1e-10
    report(f"c03 AAM gradients: worst FD relative error {worst:.2e} < 1e-5, "
           "m=0/s=1 reduces to softmax CE within 1e-10")


def test_c04_aam_head_training():
    cfg = aam.AamConfig(30.0, 0.2)
    with budget(30.0):
        rng = np.random.default_rng(1)
        n = 30
        a0 = rng.uniform(-0.3, 0.3, n)
        a1 = math.pi + rng.uniform(-0.3, 0.3, n)
        embs = np.concatenate([
            np.stack([np.cos(a0), np.sin(a0)], axis=1),
            np.stack([np.cos(a1), np.sin(a1)], axis=1),
        ])
        labels = np.array([0] * n + [1] * n)
        head, _ = aam.finetune_head(embs, labels, cfg, epochs=50, learning_rate=0.5, seed=0)
        assert np.all(aam.head_predict(embs, head) == labels)

        for seed in range(20):
            r = np.random.default_rng(200 + seed)
            data = r.standard_normal((40, 8))
            lab = r.integers(0, 5, size=40)
            _, trace = aam.finetune_head(data, lab, cfg, epochs=30,
                                         learning_rate=1e-2, seed=seed)
            assert np.all(np.diff(trace) <= 1e-12)
            assert trace[-1] <= trace[0]
    report("c04 AAM head: 100% accuracy on the separable set within 50 epochs; "
           "loss traces non-increasing over 20 seeds")


def test_c05_plda_em():
    with budget(60.0):
        for seed in range(5):
            spec = sd.SynthSpec(seed=seed, dim=16, num_speakers=50, utts_per_speaker=10,
                                rank_speaker=2, rank_channel=2,
                                speaker_scale=3.0, channel_scale=1.0, noise_scale=0.5)
            x, labels, model = sd.gen_plda_data(spec)
            est = bk.train_plda(x, labels, bk.BackendConfig(
                rank_speaker=2, rank_channel=2, em_iters=25, seed=seed))
            trace = est.loglik_trace
            assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
            angle = np.rad2deg(scipy.linalg.subspace_angles(est.V, model.V).max())
            assert angle < 10.0
    report("c05 PLDA EM: log-likelihood non-decreasing (rel 1e-8) over 25 "
           "iterations x 5 seeds; speaker-subspace angle < 10 degrees")


def test_c06_plda_llr_oracle():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        gen = np.random.default_rng(d)
        v = gen.standard_normal((d, 1)) * 1.2
        u = gen.standard_normal((d, 1)) * 0.5
        mu = gen.standard_normal(d) * 0.3
        psi = gen.uniform(0.2, 1.0, size=d)
        model = bk.PldaModel(mu, v, u, psi)
        between = v @ v.T
        total = between + u @ u.T + np.diag(psi)
        same = np.block([[total, between], [between, total]])
        diff = np.block([[total, np.zeros((d, d))], [np.zeros((d, d)), total]])

        def log_gauss(vec, cov):
            return -0.5 * (len(vec) * np.log(2 * np.pi) + np.linalg.slogdet(cov)[1]
                           + vec @ np.linalg.solve(cov, vec))

        for _ in range(1000):
            a, b = rng.standard_normal((2, d)) * 2.0
            got = bk.plda_llr(model, a, b)
            stacked = np.concatenate([a - mu, b - mu])
            expected = log_gauss(stacked, same) - log_gauss(stacked, diff)
            assert abs(got - expected) < 1e-9
            assert abs(got - bk.plda_llr(model, b, a)) < 1e-10
    report("c06 PLDA LLR: matches joint Gaussian densities within 1e-9 at d<=3 "
           "over 1000 pairs each; symmetric within 1e-10")


def test_c07_backend_discrimination():
    with budget(120.0):
        spec = sd.SynthSpec(seed=42, dim=32, num_speakers=100, utts_per_speaker=12,
                            rank_speaker=4, rank_channel=8,
                            speaker_scale=1.8, channel_scale=1.4, noise_scale=0.7)
        x, labels, model = sd.gen_plda_data(spec)
        trials = sd.gen_trials(labels, 2000, 2000, seed=7)
        by_id = {u: x[i] for i, u in enumerate(sd.utt_ids(len(x)))}

        eer_oracle = mt.compute_eer(sd.oracle_scores(model, x, trials), trials)
        plda, _ = bk.train_backend(x, labels, bk.BackendConfig(
            kind="plda", rank_speaker=4, rank_channel=8, em_iters=25, seed=0))
        eer_plda = mt.compute_eer(bk.score_trials(plda, by_id, trials), trials)
        cosine, _ = bk.train_backend(x, labels, bk.BackendConfig(kind="cosine"))
        eer_cos = mt.compute_eer(bk.score_trials(cosine, by_id, trials), trials)

        assert eer_plda <= eer_cos
        assert abs(eer_plda - eer_oracle) <= 2.0
    report(f"c07 backend discrimination: PLDA EER {eer_plda:.2f}% <= cosine "
           f"{eer_cos:.2f}%, within 2 points of oracle {eer_oracle:.2f}%")


def test_c08_snorm():
    rng = np.random.default_rng(1)
    e, t = rng.standard_normal((2, 50)) * 3.0
    raw = float(rng.standard_normal())
    for top_x in range(2, 51):
        got = sn.adapt_snorm(raw, e, t, sn.SnormConfig(top_x=top_x))
        assert abs(got - snorm_oracle(raw, e, t, top_x)) <= 1e-12
    # the reference default (300) clamps to the cohort size
    assert sn.adapt_snorm(raw, e, t, sn.SnormConfig(top_x=300)) == \
        sn.adapt_snorm(raw, e, t, sn.SnormConfig(top_x=50))

    for seed in range(100):
        r = np.random.default_rng(seed)
        ce, ct = r.standard_normal((2, 20))
        raw = float(r.standard_normal())
        cfg = sn.SnormConfig(top_x=int(r.integers(2, 21)))
        a = sn.adapt_snorm(raw, ce, ct, cfg)
        assert abs(a - sn.adapt_snorm(raw, ct, ce, cfg)) < 1e-12
        assert sn.adapt_snorm(raw + 0.25, ce, ct, cfg) > a
        c = float(r.standard_normal()) * 5.0
        inv_sigma = sum(
            1.0 / max(float(np.std(np.sort(v)[::-1][: cfg.top_x])), 1e-12)
            for v in (ce, ct)
        )
        tol = 1e-12 * (1.0 + (abs(raw) + abs(c) + 3.0) * inv_sigma)
        assert abs(sn.adapt_snorm(raw + c, ce + c, ct + c, cfg) - a) < tol
    report("c08 adapt S-norm: exact oracle match for all top_x in [2, 50]; "
           "symmetry, monotonicity, shift equivariance over 100 seeds; "
           "X=300 clamps to cohort size")


def test_c09_metrics():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        tar = rng.standard_normal(rng.integers(5, 60)) + rng.uniform(0, 2)
        non = rng.standard_normal(rng.integers(5, 60))
        eer_expected, _ = sweep_oracle(tar, non)
        assert abs(mt.eer_from_tar_non(tar, non) - eer_expected) <= 1e-12
        for p in (0.01, 0.05):
            got = mt.min_dcf_from_tar_non(tar, non, mt.DcfParams(p_target=p))
            assert abs(got - dcf_oracle(tar, non, p)) <= 1e-12

    rng = np.random.default_rng(123)
    tar = rng.standard_normal(300) + 1.0
    non = rng.standard_normal(300)
    eer = mt.eer_from_tar_non(tar, non)
    dcf = mt.min_dcf_from_tar_non(tar, non)
    for transform in (lambda x: 2.0 * x + 1.0, np.tanh):
        assert abs(mt.eer_from_tar_non(transform(tar), transform(non)) - eer) <= 1e-12
        assert abs(mt.min_dcf_from_tar_non(transform(tar), transform(non)) - dcf) <= 1e-12

    sep_scores, sep_key = keyed(np.array([1.0, 2.0]), np.array([-1.0, -2.0]))
    assert mt.compute_eer(sep_scores, sep_key) == 0.0
    assert mt.compute_min_dcf(sep_scores, sep_key) == 0.0
    const_scores, const_key = keyed(np.full(4, 0.5), np.full(6, 0.5))
    assert abs(mt.compute_eer(const_scores, const_key) - 50.0) < 1e-12
    assert mt.compute_min_dcf(const_scores, const_key) == 1.0
    report("c09 metrics: EER/minDCF equal the sweep oracle within 1e-12 on 50 "
           "seeded sets; invariant under increasing transforms; degenerate "
           "conventions hold")


def test_c10_calibration_fusion():
    # trained logistic regression never loses to the prior-only predictor
    for seed in range(10):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(200) * rng.uniform(0.2, 4.0)
        labels = rng.random(200) < 0.4
        if not labels.any() or labels.all():
            continue
        model = cal.train_logreg(scores, labels)
        act = model.weights[0] * scores + model.offset
        prior_ce = (0.5 * np.mean(np.logaddexp(0.0, -np.zeros(labels.sum())))
                    + 0.5 * np.mean(np.logaddexp(0.0, np.zeros((~labels).sum()))))
        final_ce = (0.5 * np.mean(np.logaddexp(0.0, -act[labels]))
                    + 0.5 * np.mean(np.logaddexp(0.0, act[~labels])))
        assert final_ce <= prior_ce + 1e-12

    base = np.random.default_rng(5).standard_normal(128)
    systems = [make_scoreset(base.copy()) for _ in range(4)]
    fused = cal.fuse_weighted(systems, (0.4, 0.4, 0.1, 0.1))
    assert np.array_equal(fused.scores, base)

    sset, key = llr_scores(6, 400, 400, scale=3.0, offset=-1.0)
    scores = cal.calibrate_pipeline([sset], key)
    assert np.array_equal(np.argsort(scores.scores), np.argsort(sset.scores))
    assert mt.compute_eer(scores, key) == mt.compute_eer(sset, key)
    report("c10 calibration/fusion: logreg CE <= prior-only CE; reference "
           "weights over identical systems reproduce inputs exactly; "
           "single-system calibration preserves ordering and EER exactly")


def test_c11_features():
    assert fe.frame_count(16000, 400, 160) == 98
    for n, frame, shift in ((400, 400, 160), (40000, 400, 160), (777, 250, 100)):
        count = 0
        start = 0
        while start + frame <= n:
            count += 1
            start += shift
        assert fe.frame_count(n, frame, shift) == count

    t = np.arange(16000) / 16000.0
    out = fe.fbank(fe.Waveform(0.5 * np.sin(2 * np.pi * 1000.0 * t)))
    edges = np.linspace(2595 * np.log10(1 + fe.LOW_FREQ / 700),
                        2595 * np.log10(1 + fe.HIGH_FREQ / 700), 42)
    centers = 700 * (10 ** (edges[1:-1] / 2595) - 1)
    assert out.mean(axis=0).argmax() == np.argmin(np.abs(centers - 1000.0))

    const = np.full((120, 7), 3.3)
    assert np.all(fe.stmn(const) == 0.0)

    wave = fe.Waveform(np.random.default_rng(17).standard_normal(12000) * 0.1)
    base = fe.energy_vad(wave)
    for gain in (0.037, 4.0, 256.0):
        assert np.array_equal(fe.energy_vad(fe.Waveform(wave.samples * gain)), base)
    report("c11 features: frame-count formula exact; 1 kHz FBank argmax at the "
           "analytic mel center; stmn(constant) = 0; VAD gain invariance exact")


def _chain(root: Path, run_cli) -> None:
    corpus = root / "corpus"
    steps = [
        ["synth", "--out-dir", str(corpus), "--num-speakers", "4",
         "--utts-per-speaker", "5", "--duration", "0.6", "--seed", "0",
         "--trials-out", str(root / "trials.txt"),
         "--num-target", "25", "--num-nontarget", "25"],
        ["feats", "--wav-dir", str(corpus), "--out-dir", str(root / "feats"),
         "--feat", "fbank"],
        ["vad", "--wav-dir", str(corpus), "--out-dir", str(root / "vad")],
        ["embed", "--feats-dir", str(root / "feats"), "--vad-dir", str(root / "vad"),
         "--out", str(root / "emb_rvec.svw"), "--arch", "resnet34", "--seed", "1"],
        ["embed", "--feats-dir", str(root / "feats"), "--vad-dir", str(root / "vad"),
         "--out", str(root / "emb_xvec.svw"), "--arch", "tdnn-standard", "--seed", "1"],
        ["train_plda", "--embeddings", str(root / "emb_rvec.svw"),
         "--labels", str(corpus / "speakers.txt"), "--backend", "cosine",
         "--out", str(root / "backend.svw")],
        ["score", "--backend-file", str(root / "backend.svw"),
         "--embeddings", str(root / "emb_rvec.svw"),
         "--trials", str(root / "trials.txt"), "--out", str(root / "raw.scores")],
        ["snorm", "--backend-file", str(root / "backend.svw"),
         "--embeddings", str(root / "emb_rvec.svw"),
         "--trials", str(root / "trials.txt"), "--scores", str(root / "raw.scores"),
         "--out", str(root / "snorm.scores")],
        ["calibrate", "--scores", str(root / "snorm.scores"),
         "--key", str(root / "trials.txt"), "--out", str(root / "cal.scores")],
        ["eval", "--scores", str(root / "cal.scores"), "--key", str(root / "trials.txt"),
         "--out", str(root / "metrics.txt")],
    ]
    for step in steps:
        run_cli(step)


def test_c12_pipeline_determinism(tmp_path):
    from svkit import cli

    def run(args):
        assert cli.main(args) == 0, args[0]

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _chain(a, run)
    _chain(b, run)
    for name in ("raw.scores", "snorm.scores", "cal.scores", "metrics.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    report("c12 determinism: pipeline rerun with identical seeds/config is "
           "byte-identical (scores and metrics)")


def test_c13_end_to_end_smoke(tmp_path):
    def run(args):
        proc = subprocess.run([sys.executable, "-m", "svkit.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{args[0]} failed: {proc.stderr}"

    with budget(60.0) as timer:
        _chain(tmp_path, run)
    metrics_line = (tmp_path / "metrics.txt").read_text()
    assert metrics_line.startswith("EER=")
    assert len((tmp_path / "corpus" / "speakers.txt").read_text().splitlines()) == 20
    report(f"c13 end-to-end smoke: 20-utterance corpus through features, VAD, "
           f"both extractors, cosine scoring, S-norm, calibration, eval in "
           f"{timer.elapsed:.1f}s (< 60s), exit 0 throughout")
