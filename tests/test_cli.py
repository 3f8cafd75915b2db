"""CLI and configuration tests (in-process invocation of svkit.cli.main)."""

import ast
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from svkit import backend, calibration, cli, frontend, metrics
from svkit.config import PipelineConfig, parse_config
from svkit.trials import (ScoreSet, TrialList, load_scores, load_trials, save_scores,
                          save_trials)

ROOT = Path(__file__).resolve().parent.parent

# once config keys, now fixed: the front-end constants of svkit.frontend,
# backend.LDA_EPSILON, the unit DCF costs and the calibration prior of 0.5
REMOVED_KEYS = ("frame_length_ms", "frame_shift_ms", "low_freq", "high_freq", "num_filters",
                "num_plp_coeffs", "stmn_window_s", "vad_energy_mean_scale", "vad_context",
                "lda_epsilon", "calibration_prior", "dcf_c_miss", "dcf_c_fa")


class TestConfig:
    def test_defaults_match_reference_operating_point(self):
        cfg = PipelineConfig()
        assert cfg.snorm_top_x == 300
        assert cfg.plda_rank_speaker == 312
        assert cfg.plda_rank_channel == 312
        assert calibration.FUSION_WEIGHTS == (0.4, 0.4, 0.1, 0.1)
        assert frontend.FRAME_LENGTH == 0.025 and frontend.FRAME_SHIFT == 0.010
        assert frontend.LOW_FREQ == 20.0 and frontend.HIGH_FREQ == 7600.0
        assert frontend.NUM_FILTERS == 40 and frontend.NUM_PLP_COEFFS == 30
        assert frontend.STMN_WINDOW == 3.0
        assert frontend.VAD_ENERGY_MEAN_SCALE == -0.5 and frontend.VAD_CONTEXT == 5
        assert backend.LDA_EPSILON == 1e-6
        assert metrics.DcfParams().p_target == 0.05

    def test_parse_and_types(self):
        cfg = parse_config(
            "snorm_top_x = 50  # clamped later\n"
            "dcf_p_target = 0.01\n"
            "apply_stmn = false\n"
            "em_iters = 3\n"
        )
        assert cfg.snorm_top_x == 50
        assert cfg.dcf_p_target == 0.01
        assert cfg.apply_stmn is False
        assert cfg.em_iters == 3

    def test_unknown_key_rejected(self):
        # all but the first were keys once: four were never read, the next
        # five are set by the flags --seed, --backend, --arch, --feat and --weights
        for key in ("snr", "snorm", "aam_scale", "aam_margin", "backend_max_train_utts",
                    "seed", "backend", "arch", "feature_type", "fusion_weights",
                    *REMOVED_KEYS):
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config(f"{key} = 15\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("em_iters = 1\nem_iters = two\n")

    @pytest.mark.parametrize("setting, message", [
        ("snorm_top_x = 1", "top_x must be >= 2"),
        ("plda_rank_speaker = 0", "PLDA subspace ranks must be >= 1"),
        ("plda_rank_channel = -3", "PLDA subspace ranks must be >= 1"),
        ("em_iters = 0", "need at least one EM iteration"),
        ("dcf_p_target = 1.0", r"p_target must be in \(0, 1\)"),
    ])
    def test_out_of_range_value_reports_line_with_the_owning_class_message(self, setting,
                                                                           message):
        with pytest.raises(ValueError, match=rf"^line 3: {message}$"):
            parse_config(f"em_iters = 2\n\n{setting}\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError,
                           match=r"^line 3: config key 'em_iters' already set on line 1$"):
            parse_config("em_iters = 1\n# a later override\nem_iters = 2\n")


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

    def test_missing_file_is_data_error(self, tmp_path):
        s, k = separated_scores(tmp_path)
        assert cli.main(["eval", "--scores", str(tmp_path / "nope.txt"), "--key", str(k)]) == 2

    def test_unscored_key_trial_is_data_error(self, tmp_path, capsys):
        save_trials(tmp_path / "k.txt", TrialList(["a", "c", "e", "g"], ["b", "d", "f", "h"],
                                                  np.array([True, True, False, False])))
        save_scores(tmp_path / "s.txt", ScoreSet(["e", "a"], ["f", "b"], np.array([-1.0, 1.0])))
        assert cli.main(["eval", "--scores", str(tmp_path / "s.txt"),
                         "--key", str(tmp_path / "k.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: key trial not scored: c d: {tmp_path / 's.txt'}, {tmp_path / 'k.txt'}\n")


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
        assert cli.main(["fuse", "--scores", *sets, "--key", str(tmp_path / "key.txt"),
                         "--out", str(out)]) == 0
        assert len(load_scores(out)) == n

    def test_key_over_one_score_set_writes_what_calibrate_writes(self, tmp_path):
        rng = np.random.default_rng(1)
        labels = rng.random(200) < 0.3
        ids = [f"u{j}" for j in range(200)]
        scores, key = tmp_path / "sys.scores", tmp_path / "key.txt"
        save_scores(scores, ScoreSet(ids, ids[::-1], 3.0 * labels + rng.standard_normal(200)))
        save_trials(key, TrialList(ids, ids[::-1], labels))
        args = ["--scores", str(scores), "--key", str(key), "--out"]
        assert cli.main(["calibrate", *args, str(tmp_path / "calibrated.scores")]) == 0
        assert cli.main(["fuse", *args, str(tmp_path / "fused.scores")]) == 0
        calibrated = (tmp_path / "calibrated.scores").read_bytes()
        assert calibrated == (tmp_path / "fused.scores").read_bytes()
        assert calibrated != scores.read_bytes()

    def test_default_weights_need_four_score_sets(self, tmp_path, capsys):
        s, _ = separated_scores(tmp_path)
        out = tmp_path / "fused.txt"
        assert cli.main(["fuse", "--scores", str(s), str(s), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the default weights 0.4,0.4,0.1,0.1 are for 4 score sets, not 2: "
            "give --weights or --key\n")
        assert not out.exists()
        assert cli.main(["fuse", "--scores", *[str(s)] * 4, "--out", str(out)]) == 0
        assert out.read_bytes() == s.read_bytes()

    @pytest.mark.parametrize("weights", ["nan", "inf", "1,nan"])
    def test_non_finite_weights_are_data_error(self, tmp_path, capsys, weights):
        s, _ = separated_scores(tmp_path)
        out = tmp_path / "fused.txt"
        assert cli.main(["fuse", "--scores", str(s), str(s), "--out", str(out),
                         "--weights", weights]) == 2
        assert capsys.readouterr().err == "error: fusion weights must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["", "1,abc"], ids=["empty", "not_a_number"])
    def test_unparsable_weights_are_data_error(self, tmp_path, capsys, weights):
        s, _ = separated_scores(tmp_path)
        out = tmp_path / "fused.txt"
        assert cli.main(["fuse", "--scores", str(s), str(s), "--out", str(out),
                         "--weights", weights]) == 2
        assert capsys.readouterr().err == (
            f"error: --weights: expected comma-separated numbers, got {weights!r}\n")
        assert not out.exists()


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

    def test_config_file_respected(self, tmp_path, capsys):
        s, k = separated_scores(tmp_path)
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text("dcf_p_target = 0.2\n")
        assert cli.main(["eval", "--scores", str(s), "--key", str(k),
                         "--config", str(cfg)]) == 0
        assert "minDCF(p=0.2)" in capsys.readouterr().out

    def test_repeated_config_key_is_data_error(self, tmp_path, capsys):
        s, k = separated_scores(tmp_path)
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text("dcf_p_target = 0.2\ndcf_p_target = 0.01\n")
        assert cli.main(["eval", "--scores", str(s), "--key", str(k),
                         "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 2: config key 'dcf_p_target' already set "
                                "on line 1\n")

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        s, k = separated_scores(tmp_path)
        cfg = tmp_path / "svkit.cfg"
        for key in ("bogus", "snorm", "aam_scale", "aam_margin", "backend_max_train_utts",
                    "seed", "backend", "arch", "feature_type", "fusion_weights",
                    *REMOVED_KEYS):
            cfg.write_text(f"{key} = 1\n")
            assert cli.main(["eval", "--scores", str(s), "--key", str(k),
                             "--config", str(cfg)]) == 2
            assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["plda_rank_speaker", "plda_rank_channel"])
    def test_zero_plda_rank_is_data_error(self, tmp_path, capsys, key):
        from svkit import tensorio

        rng = np.random.default_rng(0)
        tensorio.write_tensors(tmp_path / "emb.svw",
                               {f"u{i}": rng.standard_normal(4) for i in range(6)})
        (tmp_path / "labels.txt").write_text("".join(f"u{i} s{i % 2}\n" for i in range(6)))
        (tmp_path / "svkit.cfg").write_text(f"{key} = 0\n")
        assert cli.main(["train_plda", "--embeddings", str(tmp_path / "emb.svw"),
                         "--labels", str(tmp_path / "labels.txt"), "--backend", "plda",
                         "--config", str(tmp_path / "svkit.cfg"),
                         "--out", str(tmp_path / "backend.svw")]) == 2
        assert capsys.readouterr().err == "error: line 1: PLDA subspace ranks must be >= 1\n"

    @pytest.mark.parametrize("argv, setting, message", [
        (["train_plda", "--embeddings", "missing.svw", "--labels", "missing.txt"],
         "em_iters = 0", "need at least one EM iteration"),
        (["snorm", "--backend-file", "missing.svw", "--embeddings", "missing.svw",
          "--trials", "missing.txt", "--scores", "missing.scores"],
         "snorm_top_x = 1", "top_x must be >= 2"),
    ], ids=["train_plda-em_iters", "snorm-snorm_top_x"])
    def test_out_of_range_value_names_its_line_before_any_input_is_read(
            self, tmp_path, capsys, argv, setting, message):
        (tmp_path / "svkit.cfg").write_text(f"apply_stmn = true\n{setting}\n")
        out = tmp_path / "out"
        assert cli.main(argv + ["--config", str(tmp_path / "svkit.cfg"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: line 2: {message}\n"
        assert not out.exists()

    def test_train_plda_seed_sets_only_the_em_init(self, tmp_path):
        from svkit import tensorio

        rng = np.random.default_rng(0)
        tensorio.write_tensors(tmp_path / "emb.svw",
                               {f"u{i:02d}": rng.standard_normal(8) for i in range(24)})
        (tmp_path / "labels.txt").write_text("".join(f"u{i:02d} s{i % 4}\n" for i in range(24)))
        train = ["train_plda", "--embeddings", str(tmp_path / "emb.svw"),
                 "--labels", str(tmp_path / "labels.txt"), "--out"]
        for name, seed in (("default", []), ("seed0", ["--seed", "0"]), ("seed1", ["--seed", "1"])):
            assert cli.main(train + [str(tmp_path / f"{name}.svw")] + seed) == 0
        assert (tmp_path / "default.svw").read_bytes() == (tmp_path / "seed0.svw").read_bytes()
        a = tensorio.read_tensors(tmp_path / "seed0.svw")
        b = tensorio.read_tensors(tmp_path / "seed1.svw")
        for name in ("center.mean", "lda.mat", "cohort.means"):
            assert np.array_equal(a[name], b[name]), name
        for name in ("plda.V", "plda.U", "plda.psi"):
            assert not np.array_equal(a[name], b[name]), name

    @pytest.mark.parametrize("duration", ["0", "0.00003", "-1", "nan", "inf"])
    def test_synth_duration_below_one_sample_is_data_error(self, tmp_path, capsys, duration):
        assert cli.main(["synth", "--out-dir", str(tmp_path / "corpus"),
                         "--duration", duration]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration must be at least one sample") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.wav"))

    def test_duplicate_label_is_data_error(self, tmp_path, capsys):
        from svkit import tensorio

        rng = np.random.default_rng(0)
        tensorio.write_tensors(tmp_path / "emb.svw",
                               {f"u{i}": rng.standard_normal(4) for i in range(6)})
        (tmp_path / "labels.txt").write_text(
            "".join(f"u{i} s{i % 2}\n" for i in range(6)) + "u0 s1\n")
        assert cli.main(["train_plda", "--embeddings", str(tmp_path / "emb.svw"),
                         "--labels", str(tmp_path / "labels.txt"), "--backend", "cosine",
                         "--out", str(tmp_path / "backend.svw")]) == 2
        err = capsys.readouterr().err
        assert "line 7: duplicate utterance id u0" in err and err.count("\n") == 1
        assert not (tmp_path / "backend.svw").exists()

    def test_malformed_backend_file_is_data_error(self, tmp_path, capsys):
        from svkit import tensorio

        tensorio.write_tensors(tmp_path / "backend.svw",
                               {"center.mean": np.zeros(4), "plda.V": np.ones((4, 2))})
        tensorio.write_tensors(tmp_path / "emb.svw", {"a": np.ones(4), "b": -np.ones(4)})
        save_trials(tmp_path / "trials.txt", TrialList(["a"], ["b"]))
        assert cli.main(["score", "--backend-file", str(tmp_path / "backend.svw"),
                         "--embeddings", str(tmp_path / "emb.svw"),
                         "--trials", str(tmp_path / "trials.txt"),
                         "--out", str(tmp_path / "raw.scores")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad backend file: missing") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["score", "snorm"])
    def test_backend_file_without_cohort_is_data_error(self, tmp_path, capsys, command):
        from svkit import tensorio

        tensorio.write_tensors(tmp_path / "backend.svw", {"center.mean": np.zeros(4)})
        tensorio.write_tensors(tmp_path / "emb.svw", {"a": np.ones(4), "b": -np.ones(4)})
        save_trials(tmp_path / "trials.txt", TrialList(["a"], ["b"]))
        save_scores(tmp_path / "raw.scores", ScoreSet(["a"], ["b"], np.array([0.5])))
        out = tmp_path / "out.scores"
        assert cli.main([command, "--backend-file", str(tmp_path / "backend.svw"),
                         "--embeddings", str(tmp_path / "emb.svw"),
                         "--trials", str(tmp_path / "trials.txt"), "--out", str(out)]
                        + ["--scores", str(tmp_path / "raw.scores")] * (command == "snorm")) == 2
        assert capsys.readouterr().err == (
            f"error: bad backend file: missing cohort.means: {tmp_path / 'backend.svw'}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, content, message", [
        ("--key", b"1 e0 t0\n2 e1 t1\n", "line 2: label must be 0 or 1"),
        ("--scores", b"e0 t0\n", "line 1: expected 'enroll test score'"),
        ("--labels", b"u0 s0 extra\n", "line 1: expected 'utt speaker'"),
        *((flag, b"u0 s0\n\xff\n", "'utf-8' codec can't decode byte 0xff")
          for flag in ("--key", "--scores", "--labels", "--config")),
    ], ids=["key", "scores", "labels", "key-utf8", "scores-utf8", "labels-utf8", "config-utf8"])
    def test_rejected_text_input_names_its_file_once(self, tmp_path, capsys, flag, content,
                                                     message):
        from svkit import tensorio

        s, k = separated_scores(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        if flag == "--labels":
            tensorio.write_tensors(tmp_path / "emb.svw", {"u0": np.ones(2), "u1": -np.ones(2)})
            argv = ["train_plda", "--embeddings", str(tmp_path / "emb.svw"), "--labels", str(bad),
                    "--backend", "cosine", "--out", str(tmp_path / "backend.svw")]
        else:
            paths = {"--scores": s, "--key": k, flag: bad}
            argv = ["eval", *(str(x) for pair in paths.items() for x in pair)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert err.count(str(bad)) == 1

    def test_unlabelled_utterance_is_data_error(self, tmp_path, capsys):
        from svkit import tensorio

        rng = np.random.default_rng(0)
        tensorio.write_tensors(tmp_path / "emb.svw",
                               {f"u{i}": rng.standard_normal(4) for i in range(4)})
        labels = tmp_path / "labels.txt"
        labels.write_text("u0 s0\nu1 s1\nu2 s0\n")
        out = tmp_path / "backend.svw"
        assert cli.main(["train_plda", "--embeddings", str(tmp_path / "emb.svw"),
                         "--labels", str(labels), "--backend", "cosine", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: no label for utterance u3: {labels}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--num-target", "--num-nontarget"])
    def test_negative_trial_count_is_data_error(self, tmp_path, capsys, flag):
        synth = ["synth", "--out-dir", str(tmp_path / "corpus"), "--num-speakers", "2",
                 "--utts-per-speaker", "2", "--duration", "0.1",
                 "--trials-out", str(tmp_path / "trials.txt"),
                 "--num-target", "1", "--num-nontarget", "1", flag]
        assert cli.main(synth + ["-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trial counts must be >= 0, got ") and err.count("\n") == 1
        assert "-1" in err
        assert not list(tmp_path.rglob("*.wav")) and not (tmp_path / "trials.txt").exists()
        assert cli.main(synth + ["0"]) == 0  # zero trials of one kind stay valid
        assert len((tmp_path / "trials.txt").read_text().splitlines()) == 1

    def test_tdnn_embedding_dim_is_data_error(self, tmp_path, capsys):
        from svkit import tensorio

        (tmp_path / "feats").mkdir()
        tensorio.write_feature_matrix(tmp_path / "feats" / "u0.feat", np.zeros((20, 40)))
        (tmp_path / "svkit.cfg").write_text("embedding_dim = 128\n")
        assert cli.main(["embed", "--feats-dir", str(tmp_path / "feats"),
                         "--arch", "tdnn-standard", "--config", str(tmp_path / "svkit.cfg"),
                         "--out", str(tmp_path / "emb.svw")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tdnn-standard embedding_dim") and err.count("\n") == 1
        assert not (tmp_path / "emb.svw").exists()

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

    def test_sample_rate_below_band_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        frontend.write_wav(corpus / "narrow.wav", frontend.Waveform(np.zeros(8000), 8000))
        for command in ("feats", "vad"):
            assert cli.main([command, "--wav-dir", str(corpus),
                             "--out-dir", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid audio: sample rate 8000 Hz")
            assert err.count("\n") == 1
            assert not list((tmp_path / command).iterdir())

    @pytest.mark.parametrize("write", [
        lambda path: frontend.write_wav(path, frontend.Waveform(np.zeros(0))),
        lambda path: frontend.write_wav(path, frontend.Waveform(np.zeros(8000), 8000)),
        lambda path: path.write_bytes(b"\x00" * 16),  # read_wav's own error names the path
    ], ids=["empty", "8kHz", "junk"])
    def test_rejected_audio_names_its_file_once(self, tmp_path, capsys, write):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        frontend.write_wav(corpus / "a_good.wav", frontend.Waveform(np.zeros(8000)))
        write(corpus / "b_bad.wav")
        for command in ("feats", "vad"):
            assert cli.main([command, "--wav-dir", str(corpus),
                             "--out-dir", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid audio: ") and err.count("\n") == 1
            assert err.count(str(corpus / "b_bad.wav")) == 1 and "a_good" not in err


def write_backend(path, kind: str, dim: int = 4) -> None:
    """A small valid cosine or PLDA backend file for ``dim``-dimensional embeddings."""
    rng = np.random.default_rng(3)
    model = (backend.Backend("cosine", np.zeros(dim)) if kind == "cosine" else backend.Backend(
        "plda", np.zeros(dim), np.eye(dim),
        backend.PldaModel(np.zeros(dim), np.ones((dim, 1)), np.ones((dim, 1)), np.ones(dim))))
    backend.save_backend(path, model, rng.standard_normal((3, dim)))


def score_one_trial(tmp_path, command: str, kind: str, b: np.ndarray) -> int:
    """Exit code of ``command`` (score or snorm) on the trial a-b, with a = ones(4),
    over a 4-dimensional ``kind`` backend; the command must write no output."""
    from svkit import tensorio

    write_backend(tmp_path / "backend.svw", kind)
    tensorio.write_tensors(tmp_path / "emb.svw", {"a": np.ones(4), "b": b})
    save_trials(tmp_path / "trials.txt", TrialList(["a"], ["b"]))
    save_scores(tmp_path / "raw.scores", ScoreSet(["a"], ["b"], np.array([0.5])))
    out = tmp_path / "out.scores"
    code = cli.main([command, "--backend-file", str(tmp_path / "backend.svw"),
                     "--embeddings", str(tmp_path / "emb.svw"),
                     "--trials", str(tmp_path / "trials.txt"), "--out", str(out)]
                    + ["--scores", str(tmp_path / "raw.scores")] * (command == "snorm"))
    assert not out.exists()
    return code


class TestSvw1Inputs:
    """The SVW1 inputs (embeddings, backends, weights) name their file in data errors."""

    @pytest.mark.parametrize("command, flag", [
        ("score", "--embeddings"), ("score", "--backend-file"),
        ("snorm", "--embeddings"), ("snorm", "--backend-file"),
        ("train_plda", "--embeddings"), ("embed", "--weights"),
    ])
    def test_truncated_file_is_named_once(self, tmp_path, capsys, command, flag):
        from svkit import nnet, tensorio

        files = {"--backend-file": tmp_path / "backend.svw", "--embeddings": tmp_path / "emb.svw",
                 "--trials": tmp_path / "trials.txt", "--scores": tmp_path / "raw.scores",
                 "--labels": tmp_path / "labels.txt", "--weights": tmp_path / "weights.svw",
                 "--feats-dir": tmp_path / "feats"}
        write_backend(files["--backend-file"], "cosine")
        tensorio.write_tensors(files["--embeddings"], {"a": np.ones(4), "b": -np.ones(4)})
        save_trials(files["--trials"], TrialList(["a"], ["b"]))
        save_scores(files["--scores"], ScoreSet(["a"], ["b"], np.array([0.5])))
        files["--labels"].write_text("a s0\nb s1\n")
        tensorio.write_tensors(files["--weights"],
                               nnet.init_weights(nnet.make_spec("tdnn-standard", 40, 2), 1))
        files["--feats-dir"].mkdir()
        tensorio.write_feature_matrix(files["--feats-dir"] / "u0.feat", np.zeros((20, 40)))
        bad = files[flag]
        bad.write_bytes(bad.read_bytes()[:-3])
        inputs = {"score": ("--backend-file", "--embeddings", "--trials"),
                  "snorm": ("--backend-file", "--embeddings", "--trials", "--scores"),
                  "train_plda": ("--embeddings", "--labels"),
                  "embed": ("--feats-dir", "--weights")}[command]
        out = tmp_path / "out"
        argv = [command, *(str(x) for f in inputs for x in (f, files[f])), "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad weight file: truncated record: {bad}\n"
        assert err.count(str(bad)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "snorm"])
    @pytest.mark.parametrize("kind", ["cosine", "plda"])
    def test_embedding_of_another_shape_than_the_backend_is_data_error(self, tmp_path, capsys,
                                                                      command, kind):
        assert score_one_trial(tmp_path, command, kind, np.ones(3)) == 2
        assert capsys.readouterr().err == (
            "error: utterance b has an embedding of shape (3,), "
            "but the backend scores shape (4,)\n")

    @pytest.mark.parametrize("command", ["score", "snorm"])
    @pytest.mark.parametrize("kind", ["cosine", "plda"])
    @pytest.mark.parametrize("b, message", [
        (np.array([1.0, np.nan, 1.0, 1.0]), "utterance b has a non-finite embedding"),
        (np.array([1.0, 1.0, -np.inf, 1.0]), "utterance b has a non-finite embedding"),
        (np.zeros(4), "utterance b: degenerate norm: zero vector"),  # the backend's mean
    ], ids=["nan", "inf", "at-the-mean"])
    def test_unscorable_embedding_names_its_utterance(self, tmp_path, capsys, command, kind,
                                                      b, message):
        assert score_one_trial(tmp_path, command, kind, b) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_train_plda_names_a_non_finite_embedding(self, tmp_path, capsys, bad):
        from svkit import tensorio

        emb, labels = tmp_path / "emb.svw", tmp_path / "labels.txt"
        rng = np.random.default_rng(0)
        tensors = {f"u{i}": rng.standard_normal(4) for i in range(4)}
        tensors["u2"][1] = bad
        tensorio.write_tensors(emb, tensors)
        labels.write_text("u0 s0\nu1 s1\nu2 s0\nu3 s1\n")
        out = tmp_path / "backend.svw"
        assert cli.main(["train_plda", "--embeddings", str(emb), "--labels", str(labels),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: utterance u2 has a non-finite embedding: {emb}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["cosine", "plda"])
    def test_train_plda_rejects_a_single_speaker(self, tmp_path, capsys, kind):
        # S-norm needs at least two cohort rows, one per speaker
        from svkit import tensorio

        emb, labels = tmp_path / "emb.svw", tmp_path / "labels.txt"
        rng = np.random.default_rng(0)
        tensorio.write_tensors(emb, {f"u{i}": rng.standard_normal(4) for i in range(4)})
        labels.write_text("u0 s0\nu1 s0\nu2 s0\nu3 s0\nu4 s1\n")  # u4 has no embedding
        out = tmp_path / "backend.svw"
        assert cli.main(["train_plda", "--embeddings", str(emb), "--labels", str(labels),
                         "--backend", kind, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: need at least two speakers, got 1: {labels}\n"
        assert not out.exists()

    def test_train_plda_names_the_first_embedding_of_another_shape(self, tmp_path, capsys):
        from svkit import tensorio

        emb, labels = tmp_path / "emb.svw", tmp_path / "labels.txt"
        rng = np.random.default_rng(0)
        tensorio.write_tensors(emb, {"u0": rng.standard_normal(4), "u1": rng.standard_normal(4),
                                     "u2": rng.standard_normal(3), "u3": rng.standard_normal(5)})
        labels.write_text("u0 s0\nu1 s1\nu2 s0\nu3 s1\n")
        out = tmp_path / "backend.svw"
        assert cli.main(["train_plda", "--embeddings", str(emb), "--labels", str(labels),
                         "--backend", "cosine", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: utterance u2 has an embedding of shape (3,), not (4,) like u0: {emb}\n")
        assert not out.exists()

    @pytest.mark.parametrize("tensors, message", [
        ({f"u{i}": np.zeros((2, 4)) for i in range(4)},
         "utterance u0 has an embedding of shape (2, 4), not a vector"),
        ({"u0": np.zeros(4), "u1": np.zeros((2, 4)), "u2": np.zeros(4)},
         "utterance u1 has an embedding of shape (2, 4), not a vector"),
        ({}, "no embeddings"),
    ], ids=["all-matrices", "one-matrix", "no-tensors"])
    def test_train_plda_rejects_embeddings_that_are_not_vectors(self, tmp_path, capsys,
                                                                tensors, message):
        from svkit import tensorio

        emb, labels = tmp_path / "emb.svw", tmp_path / "labels.txt"
        tensorio.write_tensors(emb, tensors)
        labels.write_text("u0 s0\nu1 s1\nu2 s0\nu3 s1\n")
        out = tmp_path / "backend.svw"
        assert cli.main(["train_plda", "--embeddings", str(emb), "--labels", str(labels),
                         "--backend", "cosine", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}: {emb}\n"
        assert err.count(str(emb)) == 1
        assert not out.exists()


def test_train_plda_names_a_scatter_that_overflows(tmp_path, capsys, monkeypatch):
    """Embeddings of 1e160, beyond float32 and so handed over by a reader that keeps
    float64, overflow the within-class scatter: one error line that names the
    embeddings, no RuntimeWarning (an error under this suite's settings) and no output."""
    from svkit import tensorio

    rng = np.random.default_rng(0)
    emb = {f"u{i}": rng.standard_normal(6) * 1e160 for i in range(12)}
    ids = sorted(emb)
    monkeypatch.setattr(tensorio, "read_embeddings",
                        lambda path: (ids, np.stack([emb[u] for u in ids])))
    labels, out = tmp_path / "labels.txt", tmp_path / "backend.svw"
    labels.write_text("".join(f"u{i} s{i % 3}\n" for i in range(12)))
    assert cli.main(["train_plda", "--embeddings", "emb.svw", "--labels", str(labels),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: non-finite within-class scatter: emb.svw\n"
    assert not out.exists()


# tracemalloc peak of reading a 3000 x 64 float32 embedding store, as a multiple
# of the matrix bytes: 2.51 with the file's bytes, the ids and one gather into the
# matrix; 3.45 with one array per utterance (``read_tensors``) and then a stack
def test_reading_an_embedding_store_holds_its_bytes_and_one_matrix(tmp_path):
    import tracemalloc

    from svkit import tensorio

    n, dim = 3000, 64
    x = np.random.default_rng(0).standard_normal((n, dim)).astype(np.float32)
    tensorio.write_tensors(tmp_path / "emb.svw", {f"u{i:05d}": row for i, row in enumerate(x)})
    tracemalloc.start()
    try:
        ids, matrix = tensorio.read_embeddings(tmp_path / "emb.svw")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ids == [f"u{i:05d}" for i in range(n)] and np.array_equal(matrix, x)
    assert peak <= 3.0 * 4 * n * dim


# tracemalloc peak of one in-process ``svkit train_plda`` on 3000 x 64 float32
# embeddings (100 speakers x 30), as a multiple of the float64 training matrix:
# 3.32 (plda) and 2.05 (cosine) with the store read straight into one matrix, one
# preprocess of the training set and its rows handed to the cohort; 5.06 and 3.92
# with a second preprocess for the cohort and float64 copies taken for its means
@pytest.mark.parametrize("kind, bound", [("plda", 4.0), ("cosine", 3.0)])
def test_train_plda_holds_its_training_set_a_bounded_number_of_times(tmp_path, kind, bound):
    import tracemalloc

    from svkit import tensorio

    speakers, sessions, dim = 100, 30, 64
    n = speakers * sessions
    rng = np.random.default_rng(0)
    x = rng.standard_normal((speakers, dim))[np.arange(n) % speakers] * 2.0
    x = (x + rng.standard_normal((n, dim))).astype(np.float32)
    tensorio.write_tensors(tmp_path / "emb.svw", {f"u{i:05d}": row for i, row in enumerate(x)})
    (tmp_path / "labels.txt").write_text("".join(f"u{i:05d} s{i % speakers}\n" for i in range(n)))
    (tmp_path / "plda.cfg").write_text("plda_rank_speaker = 16\nplda_rank_channel = 16\n"
                                       "em_iters = 2\n")
    tracemalloc.start()
    try:
        assert cli.main(["train_plda", "--config", str(tmp_path / "plda.cfg"),
                         "--embeddings", str(tmp_path / "emb.svw"),
                         "--labels", str(tmp_path / "labels.txt"), "--backend", kind,
                         "--out", str(tmp_path / "backend.svw")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n * dim


def write_fault_inputs(directory) -> None:
    """Valid inputs of ``calibrate``, ``fuse``, ``eval``, ``snorm``, ``train_plda`` and
    ``embed`` in ``directory``, and the faulty files of ``FAULTS``."""
    from svkit import tensorio

    enroll, test, labels = ["a", "c", "a", "b"], ["b", "d", "c", "d"], [True, True, False, False]
    scores = ScoreSet(enroll, test, np.array([2.0, 1.5, -1.0, -0.5]))
    save_trials(directory / "key.txt", TrialList(enroll, test, np.array(labels)))
    save_trials(directory / "trials.txt", TrialList(enroll, test))
    save_trials(directory / "unlabeled.txt", TrialList(enroll, test))
    save_trials(directory / "onesided.txt", TrialList(enroll, test, np.ones(4, dtype=bool)))
    (directory / "empty.txt").write_text("", encoding="utf-8")
    (directory / "empty.scores").write_text("", encoding="utf-8")
    for name in ("a.scores", "b.scores"):
        save_scores(directory / name, scores)
    swapped = ScoreSet(enroll[::-1], test[::-1], scores.scores[::-1])
    for name in ("swapped.scores", "swapped2.scores"):
        save_scores(directory / name, swapped)
    save_scores(directory / "extra.scores", ScoreSet(enroll + ["x"], test + ["y"],
                                                     np.append(scores.scores, 0.0)))
    write_backend(directory / "backend.svw", "cosine")
    cosine = backend.Backend("cosine", np.zeros(4))
    backend.save_backend(directory / "one_cohort.svw", cosine, np.ones((1, 4)))
    backend.save_backend(directory / "zero_cohort.svw", cosine, np.eye(4) * [1, 1, 0, 1])
    no_noise = backend.PldaModel(np.zeros(4), np.ones((4, 1)), np.ones((4, 1)), [1, 1, 0, 1])
    backend.save_backend(directory / "zero_psi.svw",
                         backend.Backend("plda", np.zeros(4), np.eye(4), no_noise), np.eye(4))
    rng = np.random.default_rng(5)
    tensorio.write_tensors(directory / "emb.svw", {u: rng.standard_normal(4) for u in "abcd"})
    # a and -a for s0, 0 and b for s1, -b for s2: the training mean is 0
    a, b = np.array([1.0, 2.0, 0.0, -1.0]), np.array([0.5, -1.0, 3.0, 2.0])
    tensorio.write_tensors(directory / "cancel.svw",
                           {"u0": a, "u1": -a, "u2": np.zeros(4), "u3": b, "u4": -b})
    (directory / "cancel_labels.txt").write_text("u0 s0\nu1 s0\nu2 s1\nu3 s1\nu4 s2\n")
    (directory / "solo_labels.txt").write_text("a s0\nb s1\nc s2\nd s3\n")
    tensorio.write_tensors(directory / "empty_vectors.svw", {u: np.zeros(0) for u in "abcd"})
    (directory / "feats").mkdir()
    tensorio.write_feature_matrix(directory / "feats" / "u0.feat", np.zeros((20, 40)))
    # the classifier is all embed reads of a weight file before it builds the spec
    tensorio.write_tensors(directory / "one_class.svw",
                           {"softmax.weight": np.zeros((1, 512), dtype=np.float32)})
    (directory / "dim128.cfg").write_text("embedding_dim = 128\n", encoding="utf-8")


CALIBRATE_WITH = ["calibrate", "--scores", "a.scores", "--key"]
FUSE_WITH = ["fuse", "--scores", "a.scores", "b.scores", "--key"]
EVAL_WITH = ["eval", "--scores", "a.scores", "--key"]
SNORM_ON = ["snorm", "--backend-file", "backend.svw", "--embeddings", "emb.svw"]
SNORM_TRIALS = ["--embeddings", "emb.svw", "--trials", "trials.txt", "--scores", "a.scores"]
TRAIN_ON = ["train_plda", "--embeddings", "cancel.svw", "--labels", "cancel_labels.txt"]
EMBED_ON = ["embed", "--feats-dir", "feats", "--arch"]

# (argv without --out, the files the message must name, a fragment of the message)
FAULTS = {
    **{f"{argv[0]}-key-{key.split('.')[0]}": (argv + [key], [key], message)
       for argv in (CALIBRATE_WITH, FUSE_WITH, EVAL_WITH)
       for key, message in (("unlabeled.txt", "key must be labeled"),
                            ("empty.txt", "key must be labeled"),
                            ("onesided.txt", "single-class key"))},
    "snorm-empty-scores": (SNORM_ON + ["--trials", "trials.txt", "--scores", "empty.scores"],
                           ["trials.txt", "empty.scores"], "trials do not match at: a b"),
    "snorm-empty-trials": (SNORM_ON + ["--trials", "empty.txt", "--scores", "a.scores"],
                           ["empty.txt", "a.scores"], "trials do not match at: a b"),
    "calibrate-empty-scores": (["calibrate", "--scores", "empty.scores", "--key", "key.txt"],
                               ["empty.scores", "key.txt"], "trials do not match at: a b"),
    "calibrate-swapped-scores": (["calibrate", "--scores", "swapped.scores", "--key", "key.txt"],
                                 ["swapped.scores", "key.txt"], "trials do not match at: b d"),
    "fuse-key-empty-second": (["fuse", "--scores", "a.scores", "empty.scores", "--key", "key.txt"],
                              ["a.scores", "empty.scores"], "trials do not match at: a b"),
    "fuse-key-swapped-first": (["fuse", "--scores", "swapped.scores", "swapped2.scores",
                                "--key", "key.txt"],
                               ["swapped.scores", "key.txt"], "trials do not match at: b d"),
    "fuse-weights-empty-second": (["fuse", "--scores", "a.scores", "empty.scores",
                                   "--weights", "1,1"],
                                  ["a.scores", "empty.scores"], "trials do not match at: a b"),
    "eval-empty-scores": (["eval", "--scores", "empty.scores", "--key", "key.txt"],
                          ["empty.scores", "key.txt"], "key trial not scored: a b"),
    "eval-extra-trial": (["eval", "--scores", "extra.scores", "--key", "key.txt"],
                         ["extra.scores", "key.txt"], "trial not in key: x y"),
    "snorm-one-cohort-row": (["snorm", "--backend-file", "one_cohort.svw"] + SNORM_TRIALS,
                             ["one_cohort.svw"], "bad backend file: cohort.means has 1 row(s)"),
    "snorm-zero-cohort-row": (["snorm", "--backend-file", "zero_cohort.svw"] + SNORM_TRIALS,
                              ["zero_cohort.svw"],
                              "bad backend file: cohort.means row 2 is a zero vector"),
    "train_plda-plda-at-mean": (TRAIN_ON + ["--backend", "plda"], ["cancel.svw"],
                                "utterance u2: degenerate norm: zero vector"),
    "train_plda-cosine-cancelling-speaker": (TRAIN_ON + ["--backend", "cosine"],
                                             ["cancel_labels.txt"],
                                             "speaker s0: degenerate norm: zero vector"),
    # one session per speaker: no within-class scatter to whiten with
    "train_plda-plda-one-session-each": (["train_plda", "--embeddings", "emb.svw", "--labels",
                                          "solo_labels.txt"], ["emb.svw"],
                                         "within-class scatter not positive definite"),
    # vectors of shape (0,): no rank can be derived from them
    **{f"train_plda-{kind}-dimension-0": (["train_plda", "--embeddings", "empty_vectors.svw",
                                           "--labels", "solo_labels.txt", "--backend", kind],
                                          ["empty_vectors.svw"], "embeddings of dimension 0")
       for kind in ("cosine", "plda")},
    **{f"{argv[0]}-plda-zero-psi": (argv, ["zero_psi.svw"],
                                    "bad backend file: within covariance not positive definite")
       for argv in (["score", "--backend-file", "zero_psi.svw", "--embeddings", "emb.svw",
                     "--trials", "trials.txt"],
                    ["snorm", "--backend-file", "zero_psi.svw"] + SNORM_TRIALS)},
    "embed-one-class-weights": (EMBED_ON + ["tdnn-standard", "--weights", "one_class.svw"],
                                ["one_class.svw"], "num_classes must be >= 2"),
    "embed-bad-embedding-dim": (EMBED_ON + ["resnet34", "--config", "dim128.cfg"],
                                ["dim128.cfg"], "resnet34 embedding_dim must be 256 or 160"),
}


@pytest.mark.parametrize("argv, faulty, message", FAULTS.values(), ids=FAULTS.keys())
def test_fault_names_each_faulty_file_once(tmp_path, capsys, argv, faulty, message):
    """Exit 2 with one stderr line that names each faulty input file once and no
    other input file, and no output file."""
    write_fault_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main([str(tmp_path / a) if (tmp_path / a).exists() else a for a in argv]
                    + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    for name in {a for a in argv if (tmp_path / a).is_file()}:
        assert captured.err.count(str(tmp_path / name)) == (name in faulty), name
    assert not out.exists()


class TestEmbedCommand:
    @pytest.mark.parametrize("arch", ["resnet34", "tdnn-standard"])
    def test_rows_are_the_float32_forward_pass_and_rerun_is_byte_identical(self, tmp_path, arch):
        from svkit import nnet, tensorio

        corpus, feats, vad = tmp_path / "corpus", tmp_path / "feats", tmp_path / "vad"
        assert cli.main(["synth", "--out-dir", str(corpus), "--num-speakers", "2",
                         "--utts-per-speaker", "2", "--duration", "0.4", "--seed", "1"]) == 0
        assert cli.main(["feats", "--wav-dir", str(corpus), "--out-dir", str(feats)]) == 0
        assert cli.main(["vad", "--wav-dir", str(corpus), "--out-dir", str(vad)]) == 0
        embed = ["embed", "--feats-dir", str(feats), "--vad-dir", str(vad), "--arch", arch,
                 "--seed", "4", "--out"]
        assert cli.main(embed + [str(tmp_path / "a.svw")]) == 0
        assert cli.main(embed + [str(tmp_path / "b.svw")]) == 0
        assert (tmp_path / "a.svw").read_bytes() == (tmp_path / "b.svw").read_bytes()

        rows = tensorio.read_tensors(tmp_path / "a.svw")
        paths = sorted(feats.glob("*.feat"))
        assert sorted(rows) == [p.stem for p in paths]
        spec = nnet.make_spec(arch, tensorio.read_feature_matrix(paths[0]).shape[1], 2)
        net = nnet.prepare(spec, nnet.init_weights(spec, 4))
        for path in paths:
            speech = tensorio.read_feature_matrix(vad / f"{path.stem}.vad")[:, 0] > 0.5
            frames = tensorio.read_feature_matrix(path)[speech]
            expected = nnet.forward(frames.astype(np.float32), net).astype(np.float32)
            assert np.array_equal(rows[path.stem], expected)

    @pytest.mark.parametrize("arch", ["resnet34", "tdnn-standard"])
    def test_weight_file_with_seven_classes_matches_the_seeded_init(self, small_corpus,
                                                                    tmp_path, arch):
        from svkit import nnet, tensorio

        _, feats, vad = small_corpus
        # the classifier is drawn last, so its size leaves the other tensors unchanged
        weights = tmp_path / f"{arch}.svw"
        tensorio.write_tensors(weights, nnet.init_weights(nnet.make_spec(arch, 40, 7), 1))
        embed = ["embed", "--feats-dir", str(feats), "--vad-dir", str(vad), "--arch", arch]
        assert cli.main(embed + ["--seed", "1", "--out", str(tmp_path / "seeded.svw")]) == 0
        assert cli.main(embed + ["--weights", str(weights),
                                 "--out", str(tmp_path / "loaded.svw")]) == 0
        assert (tmp_path / "loaded.svw").read_bytes() == (tmp_path / "seeded.svw").read_bytes()

    @pytest.mark.parametrize("arch, classifier", [("resnet34", "dense2.weight"),
                                                  ("tdnn-standard", "softmax.weight")])
    def test_weight_file_without_classifier_is_data_error(self, small_corpus, tmp_path, capsys,
                                                          arch, classifier):
        from svkit import nnet, tensorio

        _, feats, _ = small_corpus
        weights = nnet.init_weights(nnet.make_spec(arch, 40, 2), 1)
        del weights[classifier]
        tensorio.write_tensors(tmp_path / "partial.svw", weights)
        out = tmp_path / "partial_emb.svw"
        assert cli.main(["embed", "--feats-dir", str(feats), "--arch", arch,
                         "--weights", str(tmp_path / "partial.svw"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        partial = tmp_path / "partial.svw"
        assert err == f"error: weights mismatch: missing=['{classifier}'] extra=[]: {partial}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        ("u1", "too few frames: need at least 8"),
        ("u0", "bad feature file: truncated payload"),  # the file the input dim is read from
    ])
    def test_rejected_features_name_their_file(self, tmp_path, capsys, bad, message):
        from svkit import tensorio

        feats = tmp_path / "feats"
        feats.mkdir()
        tensorio.write_feature_matrix(feats / "u0.feat", np.zeros((20, 40)))
        tensorio.write_feature_matrix(feats / "u1.feat", np.zeros((5, 40)))
        if bad == "u0":
            (feats / "u0.feat").write_bytes((feats / "u0.feat").read_bytes()[:-4])
        out = tmp_path / "emb.svw"
        assert cli.main(["embed", "--feats-dir", str(feats), "--arch", "resnet34",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}: {feats / bad}.feat\n"
        assert not out.exists()

    @pytest.mark.parametrize("arch", ["resnet34", "tdnn-standard"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_frames_name_their_file(self, tmp_path, capsys, arch, bad):
        from svkit import tensorio

        feats = tmp_path / "feats"
        feats.mkdir()
        frames = np.zeros((20, 40))
        frames[7, 3] = bad
        tensorio.write_feature_matrix(feats / "u0.feat", np.zeros((20, 40)))
        tensorio.write_feature_matrix(feats / "u1.feat", frames)
        out = tmp_path / "emb.svw"
        assert cli.main(["embed", "--feats-dir", str(feats), "--arch", arch,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: non-finite frames: {feats / 'u1.feat'}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_file_is_data_error(self, small_corpus, tmp_path, capsys, bad):
        from svkit import nnet, tensorio

        _, feats, _ = small_corpus
        weights = nnet.init_weights(nnet.make_spec("tdnn-standard", 40, 2), 1)
        weights["frame3.weight"][0, 5] = bad
        tensorio.write_tensors(tmp_path / "bad.svw", weights)
        out = tmp_path / "emb.svw"
        assert cli.main(["embed", "--feats-dir", str(feats), "--weights",
                         str(tmp_path / "bad.svw"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: non-finite values in frame3.weight: {tmp_path / 'bad.svw'}\n")
        assert not out.exists()

    @pytest.mark.parametrize("mask, shape, message", [
        ("short", (19, 1), "mask/feature mismatch"),  # 19 rows for 20 frames
        ("no_column", (20, 0), "mask/feature mismatch"),
        ("corrupt", (20, 1), "bad feature file: truncated payload"),
    ])
    def test_rejected_vad_mask_names_the_mask_file(self, tmp_path, capsys, mask, shape, message):
        from svkit import tensorio

        feats, vad = tmp_path / "feats", tmp_path / "vad"
        feats.mkdir()
        vad.mkdir()
        tensorio.write_feature_matrix(feats / "u0.feat", np.zeros((20, 40)))
        tensorio.write_feature_matrix(vad / "u0.vad", np.ones(shape))
        if mask == "corrupt":
            (vad / "u0.vad").write_bytes((vad / "u0.vad").read_bytes()[:-4])
        out = tmp_path / "emb.svw"
        assert cli.main(["embed", "--feats-dir", str(feats), "--vad-dir", str(vad),
                         "--arch", "resnet34", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}: {vad / 'u0.vad'}\n"
        assert err.count("u0.vad") == 1 and "u0.feat" not in err
        assert not out.exists()


class TestReadme:
    def test_command_line_walkthrough_runs(self, tmp_path, monkeypatch, capsys):
        # every svkit line of the README's sh blocks, continuation lines joined
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        lines = [line.strip() for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                 for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("svkit ")]
        assert [argv[0] for argv in commands] == [
            "synth", "feats", "vad", "embed", "train_plda", "score", "snorm", "calibrate", "eval"]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            capsys.readouterr()
            assert cli.main(argv) == 0, argv
        args = cli.build_parser().parse_args(commands[-1])
        scores, key = load_scores(args.scores), load_trials(args.key)
        params = metrics.DcfParams(PipelineConfig().dcf_p_target)
        expected = metrics.format_metrics(metrics.compute_eer(scores, key),
                                          metrics.compute_min_dcf(scores, key, params), params)
        assert capsys.readouterr().out == expected + "\n"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A two-utterance corpus with its default features and VAD masks."""
    root = tmp_path_factory.mktemp("corpus")
    corpus, feats, vad = root / "corpus", root / "feats", root / "vad"
    assert cli.main(["synth", "--out-dir", str(corpus), "--num-speakers", "2",
                     "--utts-per-speaker", "1", "--duration", "0.4", "--seed", "5"]) == 0
    assert cli.main(["feats", "--wav-dir", str(corpus), "--out-dir", str(feats)]) == 0
    assert cli.main(["vad", "--wav-dir", str(corpus), "--out-dir", str(vad)]) == 0
    return corpus, feats, vad


class TestFeatsCommand:
    @pytest.mark.parametrize("config, apply_stmn", [(None, True), ("apply_stmn = false\n", False)],
                             ids=["default", "apply_stmn_false"])
    def test_stmn_follows_the_config(self, small_corpus, tmp_path, config, apply_stmn):
        from svkit import frontend, tensorio

        corpus, _, _ = small_corpus
        argv = ["feats", "--wav-dir", str(corpus), "--out-dir", str(tmp_path / "feats")]
        if config is not None:
            (tmp_path / "svkit.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "svkit.cfg")]
        assert cli.main(argv) == 0
        wavs = sorted(corpus.glob("*.wav"))
        assert sorted(p.stem for p in (tmp_path / "feats").glob("*.feat")) == [
            p.stem for p in wavs]
        for path in wavs:
            expected = frontend.fbank(frontend.read_wav(path))
            if apply_stmn:
                expected = frontend.stmn(expected)
            got = tensorio.read_feature_matrix(tmp_path / "feats" / f"{path.stem}.feat")
            assert np.array_equal(got, expected.astype(np.float32))


SYNTH = ["synth", "--out-dir", "o"]
FEATS = ["feats", "--wav-dir", "w", "--out-dir", "o"]
VAD = ["vad", "--wav-dir", "w", "--out-dir", "o"]
EMBED = ["embed", "--feats-dir", "f", "--out", "o"]
SCORE = ["score", "--backend-file", "b", "--embeddings", "e", "--trials", "t", "--out", "o"]
SNORM = ["snorm", "--backend-file", "b", "--embeddings", "e", "--trials", "t", "--scores", "s",
         "--out", "o"]
CALIBRATE = ["calibrate", "--scores", "s", "--key", "k", "--out", "o"]
FUSE = ["fuse", "--scores", "s", "--key", "k", "--out", "o"]
EVAL = ["eval", "--scores", "s", "--key", "k"]

# Public svkit names that no command or workload reaches. Each is a scalar
# reference that the named test file checks a batched path against.
REFERENCES = {
    "tdnn_shape_audit": "test_nnet.py",
    "oracle_scores": "test_backend.py",
    "aam_logits": "test_aam.py",
    "aam_loss": "test_aam.py",
    "aam_grad": "test_aam.py",
    "head_predict": "test_aam.py",
}


def public_definitions(paths) -> set[str]:
    """Names of the public top-level functions and classes in ``paths``."""
    return {node.name for path in paths for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


# Defaulted parameters of public svkit functions that no svkit or perfbench
# caller passes, each with the test file that needs to set it.
TEST_PARAMETERS = {
    ("aam_logits", "cfg"): "test_aam.py",
    ("aam_loss", "cfg"): "test_aam.py",
    ("aam_grad", "cfg"): "test_aam.py",
    ("finetune_head", "cfg"): "test_acceptance.py",  # c04
    ("finetune_head", "learning_rate"): "test_acceptance.py",
    ("finetune_head", "seed"): "test_acceptance.py",
    ("resnet_shape_audit", "time"): "test_nnet.py",
}


def public_signatures(paths) -> tuple[dict[str, list[str]], set[tuple[str, str]]]:
    """The positional parameter names of each public top-level function in ``paths``,
    and its (function, parameter) pairs that have a default."""
    positional, defaulted = {}, set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args]
                positional[node.name] = names
                defaulted |= {(node.name, n) for n in names[len(names) - len(args.defaults):]}
                defaulted |= {(node.name, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None}
    return positional, defaulted


def passed_parameters(paths, positional) -> set[tuple[str, str]]:
    """(function, parameter) for each parameter that a call in ``paths`` passes, by
    position or by keyword, to a function named in ``positional``."""
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in positional:
                continue
            names = positional[name]
            for i, arg in enumerate(node.args):
                passed |= {(name, n) for n in (names[i:] if isinstance(arg, ast.Starred)
                                               else names[i:i + 1])}
            for kw in node.keywords:
                passed |= {(name, n) for n in names} if kw.arg is None else {(name, kw.arg)}
    return passed


def referenced_names(paths) -> set[str]:
    """Names read through an AST Name or Attribute node in ``paths``.

    A use inside the top-level definition of the same name does not count.
    Import statements and ``__all__`` strings hold no such node.
    """
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = {node.name: (node.lineno, node.end_lineno) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            first, last = spans.get(name, (0, -1))
            if not first <= node.lineno <= last:
                names.add(name)
    return names


class TestFlags:
    def test_fuse_key_and_weights_together_is_usage_error(self, tmp_path, capsys):
        s, k = separated_scores(tmp_path)
        assert cli.main(["fuse", "--scores", str(s), "--key", str(k), "--weights", "1",
                         "--out", str(tmp_path / "fused.txt")]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "fused.txt").exists()

    @pytest.mark.parametrize("argv, flag, message", [
        pytest.param(FEATS, ["--no-stmn"], None, id="feats"),
        pytest.param(SNORM, ["--snorm-x", "5"], None, id="snorm"),
        pytest.param(EMBED, ["--num-classes", "7"], None, id="embed"),
        pytest.param(CALIBRATE, ["--model-out", "m"], None, id="calibrate"),
        pytest.param(FUSE, ["--model-out", "m"], None, id="fuse"),
        *(pytest.param(argv, ["--seed", "1"], None, id=f"{argv[0]}-seed")
          for argv in (FEATS, VAD, SCORE, SNORM, CALIBRATE, FUSE, EVAL)),
        *(pytest.param(argv, ["--config", "c"], None, id=f"{argv[0]}-config")
          for argv in (SYNTH, VAD, SCORE, CALIBRATE, FUSE)),
        pytest.param(EVAL, ["--dcf-ptarget", "0.01"], None, id="eval-dcf-ptarget"),
        # feature_type = mfcc was accepted from a config file and ran PLP
        pytest.param(FEATS, ["--feat", "mfcc"], "argument --feat: invalid choice: 'mfcc'",
                     id="feats-mfcc"),
    ])
    def test_removed_flag_is_unrecognized(self, argv, flag, message, capsys):
        assert cli.main(argv + flag) == 1
        expected = message or f"unrecognized arguments: {' '.join(flag)}"
        assert expected in capsys.readouterr().err

    def test_snorm_requires_raw_scores(self, capsys):
        assert cli.main(["snorm", "--backend-file", "b", "--embeddings", "e", "--trials", "t",
                         "--out", "o"]) == 1
        assert "the following arguments are required: --scores" in capsys.readouterr().err

    def test_every_option_is_exercised_by_a_test_or_workload(self):
        """Each option of each subcommand is passed by some test or perfbench workload."""
        import argparse
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        sources = [*sorted((root / "tests").glob("*.py")),
                   root / "perfbench" / "svbench" / "workloads.py"]
        text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        unused = sorted(
            f"{name} {opt}"
            for name, sub in subparsers.choices.items()
            for action in sub._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help") and f'"{opt}"' not in text and f"'{opt}'" not in text
        )
        assert unused == []

    def test_every_public_name_is_reached_or_a_reference(self):
        """Each public svkit function or class is used by svkit or a perfbench workload,
        or is a REFERENCES entry that its test file uses and nothing else does."""
        src = sorted((ROOT / "src" / "svkit").glob("*.py"))
        public = public_definitions(src)
        reached = referenced_names([*src, *sorted((ROOT / "perfbench" / "svbench").glob("*.py"))])
        assert sorted(public - reached - REFERENCES.keys()) == []
        for name, test_file in REFERENCES.items():
            assert name in public and name not in reached, name
            assert name in referenced_names([ROOT / "tests" / test_file]), name

    def test_every_defaulted_parameter_is_passed_or_needed_by_a_test(self):
        """Each defaulted parameter of a public svkit function is passed by some svkit
        or perfbench caller, or is a TEST_PARAMETERS entry that its test file passes;
        a recipe value that no caller sets is a constant, not a parameter."""
        src = sorted((ROOT / "src" / "svkit").glob("*.py"))
        positional, defaulted = public_signatures(src)
        callers = [*src, *sorted((ROOT / "perfbench" / "svbench").glob("*.py"))]
        unpassed = defaulted - passed_parameters(callers, positional)
        assert sorted(unpassed - TEST_PARAMETERS.keys()) == []
        for parameter, test_file in TEST_PARAMETERS.items():
            assert parameter in unpassed, parameter
            assert parameter in passed_parameters([ROOT / "tests" / test_file], positional)

    def test_every_config_key_is_set_by_a_test_or_workload(self):
        """Each PipelineConfig key is written as "key = " by some test or perfbench workload."""
        from dataclasses import fields
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        sources = [*sorted((root / "tests").glob("*.py")),
                   root / "perfbench" / "svbench" / "workloads.py"]
        text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
        unset = [f.name for f in fields(PipelineConfig) if f"{f.name} = " not in text]
        assert unset == []

    def test_every_config_key_is_read(self):
        """Each PipelineConfig field is read by a subcommand or by PipelineConfig itself."""
        import re
        from dataclasses import fields
        from pathlib import Path

        src = Path(cli.__file__).resolve().parent
        cli_text = (src / "cli.py").read_text(encoding="utf-8")
        config_text = (src / "config.py").read_text(encoding="utf-8")
        unread = [f.name for f in fields(PipelineConfig)
                  if not re.search(rf"\bcfg\.{f.name}\b", cli_text)
                  and not re.search(rf"\bself\.{f.name}\b", config_text)]
        assert unread == []
