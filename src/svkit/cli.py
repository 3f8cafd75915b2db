"""Subcommand CLI driving the full verification pipeline.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; results go to stdout or to the requested output files. Reruns
with identical configuration and seeds produce byte-identical outputs.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import backend as backend_mod
from . import calibration, frontend, metrics, nnet, scorenorm, synthdata, tensorio
from .config import PipelineConfig, load_config
from .trials import TrialList, load_scores, load_trials, save_scores, save_trials


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    for attr, key in (
        ("seed", "seed"),
        ("backend", "backend"),
        ("snorm_x", "snorm_top_x"),
        ("dcf_ptarget", "dcf_p_target"),
        ("arch", "arch"),
        ("feat", "feature_type"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _read_labels(path) -> dict[str, str]:
    labels: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'utt speaker'")
            labels[parts[0]] = parts[1]
    return labels


def _load_embeddings(path) -> dict[str, np.ndarray]:
    return {k: v.astype(np.float64) for k, v in tensorio.read_tensors(path).items()}


def cmd_synth(args) -> int:
    cfg = _load_pipeline_config(args)
    spec = synthdata.SynthSpec(
        seed=cfg.seed,
        num_speakers=args.num_speakers,
        utts_per_speaker=args.utts_per_speaker,
        duration_s=args.duration,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    waves, labels = synthdata.gen_toy_corpus(spec)
    names = [f"{spk}_utt{k % spec.utts_per_speaker:03d}" for k, spk in enumerate(labels)]
    with open(out_dir / "speakers.txt", "w", encoding="utf-8") as f:
        for name, wave, spk in zip(names, waves, labels):
            frontend.write_wav(out_dir / f"{name}.wav", wave)
            f.write(f"{name} {spk}\n")
    if args.trials_out:
        trials = synthdata.gen_trials(labels, args.num_target, args.num_nontarget, cfg.seed)
        id_map = dict(zip(synthdata.utt_ids(len(labels)), names))
        trials = TrialList(
            [id_map[e] for e in trials.enroll],
            [id_map[t] for t in trials.test],
            trials.labels,
        )
        save_trials(args.trials_out, trials)
    print(f"wrote {len(waves)} utterances to {out_dir}", file=sys.stderr)
    return 0


def cmd_feats(args) -> int:
    cfg = _load_pipeline_config(args)
    feat_cfg = cfg.feature_config()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wavs = sorted(Path(args.wav_dir).glob("*.wav"))
    if not wavs:
        raise ValueError(f"no WAV files in {args.wav_dir}")
    extractor = frontend.fbank if cfg.feature_type == "fbank" else frontend.plp
    for path in wavs:
        wave = frontend.read_wav(path)
        feats = extractor(wave, feat_cfg)
        if cfg.apply_stmn and not args.no_stmn:
            feats = frontend.stmn(feats, feat_cfg.stmn_window)
        tensorio.write_feature_matrix(out_dir / f"{path.stem}.feat", feats.data)
    print(f"extracted {cfg.feature_type} features for {len(wavs)} files", file=sys.stderr)
    return 0


def cmd_vad(args) -> int:
    cfg = _load_pipeline_config(args)
    feat_cfg = cfg.feature_config()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wavs = sorted(Path(args.wav_dir).glob("*.wav"))
    if not wavs:
        raise ValueError(f"no WAV files in {args.wav_dir}")
    for path in wavs:
        mask = frontend.energy_vad(frontend.read_wav(path), feat_cfg)
        tensorio.write_feature_matrix(out_dir / f"{path.stem}.vad", mask[:, None].astype(np.float32))
    print(f"computed VAD for {len(wavs)} files", file=sys.stderr)
    return 0


def cmd_embed(args) -> int:
    cfg = _load_pipeline_config(args)
    feat_cfg = cfg.feature_config()
    feat_paths = sorted(Path(args.feats_dir).glob("*.feat"))
    if not feat_paths:
        raise ValueError(f"no feature files in {args.feats_dir}")
    probe = tensorio.read_feature_matrix(feat_paths[0])
    spec = nnet.make_spec(cfg.arch, probe.shape[1], max(args.num_classes, 2),
                          cfg.embedding_dim or None)
    if args.weights:
        weights = nnet.load_weights(args.weights)
    else:
        weights = nnet.init_weights(spec, cfg.seed)
    out: dict[str, np.ndarray] = {}
    for path in feat_paths:
        feats = frontend.FeatureMatrix(
            tensorio.read_feature_matrix(path), feat_cfg.frame_shift, feat_cfg.frame_length
        )
        if args.vad_dir:
            mask = tensorio.read_feature_matrix(Path(args.vad_dir) / f"{path.stem}.vad")
            feats = frontend.apply_vad(feats, mask[:, 0] > 0.5)
        out[path.stem] = nnet.forward(feats.data, spec, weights).astype(np.float32)
    tensorio.write_tensors(args.out, out)
    print(f"embedded {len(out)} utterances with {cfg.arch}", file=sys.stderr)
    return 0


def cmd_train_plda(args) -> int:
    cfg = _load_pipeline_config(args)
    embeddings = _load_embeddings(args.embeddings)
    labels_by_utt = _read_labels(args.labels)
    utts = sorted(embeddings)
    missing = [u for u in utts if u not in labels_by_utt]
    if missing:
        raise ValueError(f"unknown utterance id: {missing[0]}")
    x = np.stack([embeddings[u] for u in utts])
    labels = [labels_by_utt[u] for u in utts]
    rank = min(cfg.plda_rank_speaker, x.shape[1])
    bcfg = backend_mod.BackendConfig(
        kind=cfg.backend,
        rank_speaker=rank,
        rank_channel=min(cfg.plda_rank_channel, x.shape[1]),
        em_iters=cfg.em_iters,
        lda_epsilon=cfg.lda_epsilon,
        seed=cfg.seed,
    )
    trained = backend_mod.train_backend(x, labels, bcfg)
    cohort = scorenorm.build_cohort(x, labels, trained)
    backend_mod.save_backend(args.out, trained, cohort)
    print(f"trained {cfg.backend} backend on {len(utts)} embeddings", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    backend, _ = backend_mod.load_backend(args.backend_file)
    embeddings = _load_embeddings(args.embeddings)
    trials = load_trials(args.trials)
    scores = backend_mod.score_trials(backend, embeddings, trials)
    save_scores(args.out, scores)
    print(f"scored {len(scores)} trials", file=sys.stderr)
    return 0


def cmd_snorm(args) -> int:
    cfg = _load_pipeline_config(args)
    backend, cohort = backend_mod.load_backend(args.backend_file)
    if cohort is None:
        raise ValueError("backend file has no cohort.means")
    embeddings = _load_embeddings(args.embeddings)
    trials = load_trials(args.trials)
    raw = load_scores(args.scores) if args.scores else None
    snorm_cfg = scorenorm.SnormConfig(top_x=cfg.snorm_top_x)
    out = scorenorm.snorm_scores(backend, embeddings, trials, cohort, snorm_cfg, raw)
    save_scores(args.out, out)
    if args.cohort_scores_out:
        # cache of per-utterance cohort scores, one row per sorted trial utt
        ids = sorted(set(trials.enroll) | set(trials.test))
        matrix = np.stack([
            scorenorm.cohort_scores(
                backend, backend_mod.preprocess(backend, embeddings[u]), cohort)
            for u in ids
        ])
        tensorio.write_feature_matrix(args.cohort_scores_out, matrix)
    print(f"normalized {len(out)} trials (top_x={cfg.snorm_top_x})", file=sys.stderr)
    return 0


def cmd_calibrate(args) -> int:
    cfg = _load_pipeline_config(args)
    scores = load_scores(args.scores)
    key = load_trials(args.key)
    result = calibration.calibrate_pipeline([scores], key, cfg.calibration_prior)
    save_scores(args.out, result.scores)
    if args.model_out:
        calibration.save_fusion_model(args.model_out, result.final_model)
    print("calibrated scores written", file=sys.stderr)
    return 0


def cmd_fuse(args) -> int:
    cfg = _load_pipeline_config(args)
    scoresets = [load_scores(p) for p in args.scores]
    if args.key:
        key = load_trials(args.key)
        result = calibration.calibrate_pipeline(scoresets, key, cfg.calibration_prior)
        fused = result.scores
        if args.model_out:
            calibration.save_fusion_model(args.model_out, result.fusion_model)
    else:
        weights = ([float(w) for w in args.weights.split(",")] if args.weights
                   else list(cfg.fusion_weights))
        if len(weights) == 1 and len(scoresets) > 1:
            weights = weights * len(scoresets)
        fused = calibration.fuse_weighted(scoresets, weights)
    save_scores(args.out, fused)
    print(f"fused {len(scoresets)} systems", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_pipeline_config(args)
    scores = load_scores(args.scores)
    key = load_trials(args.key)
    params = metrics.DcfParams(cfg.dcf_p_target, cfg.dcf_c_miss, cfg.dcf_c_fa)
    eer = metrics.compute_eer(scores, key)
    dcf = metrics.compute_min_dcf(scores, key, params)
    line = metrics.format_metrics(eer, dcf, params)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(line + "\n")
    print(line)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="seed override")


def build_parser() -> _Parser:
    parser = _Parser(prog="svkit", description="speaker verification pipeline")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a toy waveform corpus")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--num-speakers", type=int, default=4)
    p.add_argument("--utts-per-speaker", type=int, default=5)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--trials-out")
    p.add_argument("--num-target", type=int, default=20)
    p.add_argument("--num-nontarget", type=int, default=20)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("feats", help="extract FBank or PLP features")
    _add_common(p)
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--feat", choices=("fbank", "plp"))
    p.add_argument("--no-stmn", action="store_true")
    p.set_defaults(func=cmd_feats)

    p = sub.add_parser("vad", help="compute energy VAD masks")
    _add_common(p)
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_vad)

    p = sub.add_parser("embed", help="run an embedding extractor over features")
    _add_common(p)
    p.add_argument("--feats-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arch", choices=nnet.ARCH_KINDS)
    p.add_argument("--vad-dir")
    p.add_argument("--weights", help="weight file (default: seeded random init)")
    p.add_argument("--num-classes", type=int, default=2)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train_plda", help="train the scoring backend and cohort")
    _add_common(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--backend", choices=("plda", "cosine"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_plda)

    p = sub.add_parser("score", help="score a trial list")
    _add_common(p)
    p.add_argument("--backend-file", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("snorm", help="adaptive symmetric score normalization")
    _add_common(p)
    p.add_argument("--backend-file", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", help="raw score file (recomputed when absent)")
    p.add_argument("--snorm-x", type=int, dest="snorm_x")
    p.add_argument("--out", required=True)
    p.add_argument("--cohort-scores-out",
                   help="cache the per-utterance cohort score matrix (SVF1)")
    p.set_defaults(func=cmd_snorm)

    p = sub.add_parser("calibrate", help="logistic-regression calibration")
    _add_common(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model-out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fuse", help="fuse score sets (weighted or trained)")
    _add_common(p)
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights", help="comma-separated weights for weighted mode")
    p.add_argument("--key", help="keyed trials: train logistic-regression fusion")
    p.add_argument("--model-out")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="report EER and minimum DCF")
    _add_common(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--dcf-ptarget", type=float, dest="dcf_ptarget")
    p.add_argument("--out", help="also write the metrics line to a file")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(parser.format_usage())
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
