"""CLI and configuration tests (in-process invocation of svkit.cli.main)."""

import numpy as np
import pytest

from svkit import cli
from svkit.config import PipelineConfig, parse_config
from svkit.trials import ScoreSet, TrialList, load_scores, save_scores, save_trials


class TestConfig:
    def test_defaults_match_reference_operating_point(self):
        cfg = PipelineConfig()
        assert cfg.snorm_top_x == 300
        assert cfg.plda_rank_speaker == 312
        assert cfg.plda_rank_channel == 312
        assert cfg.fusion_weights == (0.4, 0.4, 0.1, 0.1)
        assert cfg.frame_length_ms == 25.0
        assert cfg.low_freq == 20.0 and cfg.high_freq == 7600.0
        assert cfg.num_filters == 40 and cfg.num_plp_coeffs == 30
        assert cfg.stmn_window_s == 3.0

    def test_parse_and_types(self):
        cfg = parse_config(
            "backend = cosine\n"
            "snorm_top_x = 50  # clamped later\n"
            "fusion_weights = 0.5,0.5\n"
            "apply_stmn = false\n"
            "seed = 3\n"
        )
        assert cfg.backend == "cosine"
        assert cfg.snorm_top_x == 50
        assert cfg.fusion_weights == (0.5, 0.5)
        assert cfg.apply_stmn is False
        assert cfg.seed == 3

    def test_unknown_key_rejected(self):
        # the last four were accepted once but never read
        for key in ("snr", "snorm", "aam_scale", "aam_margin", "backend_max_train_utts"):
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config(f"{key} = 15\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("seed = 1\nseed = two\n")


def separated_scores(tmp_path):
    scores = ScoreSet([f"e{i}" for i in range(6)], [f"t{i}" for i in range(6)],
                      np.array([5.0, 6.0, 7.0, -1.0, -2.0, -3.0]))
    key = TrialList(list(scores.enroll), list(scores.test),
                    np.array([True, True, True, False, False, False]))
    save_scores(tmp_path / "s.txt", scores)
    save_trials(tmp_path / "k.txt", key)
    return tmp_path / "s.txt", tmp_path / "k.txt"


class TestEvalCommand:
    def test_separated_scores_print_zero_eer(self, tmp_path, capsys):
        s, k = separated_scores(tmp_path)
        assert cli.main(["eval", "--scores", str(s), "--key", str(k)]) == 0
        out = capsys.readouterr().out
        assert "EER=0.000%" in out

    def test_dcf_ptarget_flag(self, tmp_path, capsys):
        s, k = separated_scores(tmp_path)
        assert cli.main(["eval", "--scores", str(s), "--key", str(k),
                         "--dcf-ptarget", "0.01"]) == 0
        assert "minDCF(p=0.01)" in capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path):
        s, k = separated_scores(tmp_path)
        assert cli.main(["eval", "--scores", str(tmp_path / "nope.txt"), "--key", str(k)]) == 2


class TestUsage:
    @pytest.mark.parametrize("command", [
        "synth", "feats", "vad", "embed", "train_plda", "score",
        "snorm", "calibrate", "fuse", "eval",
    ])
    def test_subcommand_without_arguments_exits_1(self, command, capsys):
        assert cli.main([command]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_1(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()


class TestFuseCommand:
    def test_single_input_weight_one_is_byte_identical(self, tmp_path):
        s, _ = separated_scores(tmp_path)
        out = tmp_path / "fused.txt"
        assert cli.main(["fuse", "--scores", str(s), "--out", str(out),
                         "--weights", "1"]) == 0
        assert out.read_bytes() == s.read_bytes()

    def test_weighted_average_of_identical_inputs(self, tmp_path):
        s, _ = separated_scores(tmp_path)
        copies = []
        for i in range(4):
            p = tmp_path / f"c{i}.txt"
            p.write_bytes(s.read_bytes())
            copies.append(str(p))
        out = tmp_path / "fused.txt"
        assert cli.main(["fuse", "--scores", *copies, "--out", str(out),
                         "--weights", "0.4,0.4,0.1,0.1"]) == 0
        assert out.read_bytes() == s.read_bytes()

    def test_lr_fusion_with_key(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 100
        labels = np.array([True] * 50 + [False] * 50)
        base = np.where(labels, 1.0, -1.0)
        sets = []
        for i in range(2):
            ss = ScoreSet([f"e{j}" for j in range(n)], [f"t{j}" for j in range(n)],
                          base + rng.standard_normal(n))
            p = tmp_path / f"sys{i}.txt"
            save_scores(p, ss)
            sets.append(str(p))
        key = TrialList([f"e{j}" for j in range(n)], [f"t{j}" for j in range(n)], labels)
        save_trials(tmp_path / "key.txt", key)
        out = tmp_path / "fused.txt"
        model = tmp_path / "fusion.model"
        assert cli.main(["fuse", "--scores", *sets, "--key", str(tmp_path / "key.txt"),
                         "--out", str(out), "--model-out", str(model)]) == 0
        assert len(load_scores(out)) == n
        assert "weight_1=" in model.read_text()


class TestPipelineChain:
    def run_chain(self, root):
        corpus = root / "corpus"
        steps = [
            ["synth", "--out-dir", str(corpus), "--num-speakers", "2",
             "--utts-per-speaker", "3", "--duration", "0.4", "--seed", "0",
             "--trials-out", str(root / "trials.txt"),
             "--num-target", "5", "--num-nontarget", "5"],
            ["feats", "--wav-dir", str(corpus), "--out-dir", str(root / "feats"),
             "--feat", "fbank"],
            ["vad", "--wav-dir", str(corpus), "--out-dir", str(root / "vad")],
            ["embed", "--feats-dir", str(root / "feats"), "--vad-dir", str(root / "vad"),
             "--out", str(root / "emb.svw"), "--arch", "tdnn-standard", "--seed", "1"],
            ["train_plda", "--embeddings", str(root / "emb.svw"),
             "--labels", str(corpus / "speakers.txt"), "--backend", "cosine",
             "--out", str(root / "backend.svw")],
            ["score", "--backend-file", str(root / "backend.svw"),
             "--embeddings", str(root / "emb.svw"), "--trials", str(root / "trials.txt"),
             "--out", str(root / "raw.scores")],
            ["snorm", "--backend-file", str(root / "backend.svw"),
             "--embeddings", str(root / "emb.svw"), "--trials", str(root / "trials.txt"),
             "--scores", str(root / "raw.scores"), "--out", str(root / "snorm.scores")],
            ["calibrate", "--scores", str(root / "snorm.scores"),
             "--key", str(root / "trials.txt"), "--out", str(root / "cal.scores")],
            ["eval", "--scores", str(root / "cal.scores"), "--key", str(root / "trials.txt"),
             "--out", str(root / "metrics.txt")],
        ]
        for step in steps:
            assert cli.main(step) == 0, step[0]

    def test_chain_and_byte_identical_rerun(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        self.run_chain(a)
        self.run_chain(b)
        for name in ("emb.svw", "backend.svw", "raw.scores", "snorm.scores",
                     "cal.scores", "metrics.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_snorm_cohort_score_cache(self, tmp_path):
        from svkit import tensorio

        root = tmp_path
        self.run_chain(root)
        cache = root / "cohort.svf"
        assert cli.main([
            "snorm", "--backend-file", str(root / "backend.svw"),
            "--embeddings", str(root / "emb.svw"), "--trials", str(root / "trials.txt"),
            "--scores", str(root / "raw.scores"), "--out", str(root / "snorm2.scores"),
            "--cohort-scores-out", str(cache),
        ]) == 0
        matrix = tensorio.read_feature_matrix(cache)
        assert matrix.shape[1] == 2  # one column per cohort speaker
        assert (root / "snorm2.scores").read_bytes() == (root / "snorm.scores").read_bytes()

    def test_plda_backend_chain(self, tmp_path):
        root = tmp_path
        corpus = root / "corpus"
        assert cli.main(["synth", "--out-dir", str(corpus), "--num-speakers", "3",
                         "--utts-per-speaker", "4", "--duration", "0.4", "--seed", "2",
                         "--trials-out", str(root / "trials.txt"),
                         "--num-target", "8", "--num-nontarget", "8"]) == 0
        assert cli.main(["feats", "--wav-dir", str(corpus),
                         "--out-dir", str(root / "feats"), "--feat", "plp"]) == 0
        assert cli.main(["embed", "--feats-dir", str(root / "feats"),
                         "--out", str(root / "emb.svw"), "--arch", "tdnn-standard",
                         "--seed", "3"]) == 0
        assert cli.main(["train_plda", "--embeddings", str(root / "emb.svw"),
                         "--labels", str(corpus / "speakers.txt"), "--backend", "plda",
                         "--out", str(root / "backend.svw")]) == 0
        assert cli.main(["score", "--backend-file", str(root / "backend.svw"),
                         "--embeddings", str(root / "emb.svw"),
                         "--trials", str(root / "trials.txt"),
                         "--out", str(root / "plda.scores")]) == 0
        assert len(load_scores(root / "plda.scores")) == 16

    def test_config_file_respected_and_flag_wins(self, tmp_path, capsys):
        s, k = separated_scores(tmp_path)
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text("dcf_p_target = 0.2\n")
        assert cli.main(["eval", "--scores", str(s), "--key", str(k),
                         "--config", str(cfg)]) == 0
        assert "minDCF(p=0.2)" in capsys.readouterr().out
        assert cli.main(["eval", "--scores", str(s), "--key", str(k),
                         "--config", str(cfg), "--dcf-ptarget", "0.07"]) == 0
        assert "minDCF(p=0.07)" in capsys.readouterr().out

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        s, k = separated_scores(tmp_path)
        cfg = tmp_path / "svkit.cfg"
        for key in ("bogus", "snorm", "aam_scale", "aam_margin", "backend_max_train_utts"):
            cfg.write_text(f"{key} = 1\n")
            assert cli.main(["eval", "--scores", str(s), "--key", str(k),
                             "--config", str(cfg)]) == 2
            assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b"\x00" * 16,  # junk
        b"RIFF\x24\x00\x00\x00WAVEfmt ",  # header cut before the fmt chunk size
    ], ids=["junk", "truncated_header"])
    def test_malformed_wav_is_data_error(self, tmp_path, capsys, data):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.wav").write_bytes(data)
        for command in ("feats", "vad"):
            assert cli.main([command, "--wav-dir", str(corpus),
                             "--out-dir", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid audio") and err.count("\n") == 1
