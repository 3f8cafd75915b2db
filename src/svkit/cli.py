"""Subcommand CLI driving the full verification pipeline.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; results go to stdout or to the requested output files. Reruns
with identical configuration, seeds and BLAS thread count produce
byte-identical outputs.
"""

import argparse
import functools
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import backend as backend_mod
from . import calibration, frontend, metrics, nnet, scorenorm, synthdata, tensorio
from .config import PipelineConfig, load_config
from .trials import (TrialList, TrialMismatch, check_same_trials, load_key, load_scores,
                     load_trials, save_scores, save_trials)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_pipeline_config(args) -> PipelineConfig:
    if not args.config:
        return PipelineConfig()
    with _naming(args.config, errors=UnicodeDecodeError):  # line errors keep their text
        return load_config(args.config)


def _read_labels(path) -> dict[str, str]:
    labels: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'utt speaker'")
            if parts[0] in labels:
                raise ValueError(f"line {lineno}: duplicate utterance id {parts[0]}")
            labels[parts[0]] = parts[1]
    return labels


def _inputs(directory, pattern: str, what: str) -> list[Path]:
    """The files in ``directory`` matching ``pattern``, sorted; none is a data error."""
    paths = sorted(Path(directory).glob(pattern))
    if not paths:
        raise ValueError(f"no {what} in {directory}")
    return paths


@contextmanager
def _naming(*paths, errors=ValueError):
    """Append ``paths`` to an ``errors`` data error from the block (for a ``TrialMismatch``,
    the first path and the differing list's); ``read_wav`` errors name their file already."""
    try:
        yield
    except errors as exc:
        if isinstance(exc, TrialMismatch):
            paths = (paths[0], paths[exc.index])
        raise ValueError(f"{exc}: {', '.join(map(str, paths))}") from None


def _load_named(loader, path):
    """``loader(path)``, with ``path`` appended to its data errors."""
    with _naming(path):
        return loader(path)


def cmd_synth(args) -> int:
    spec = synthdata.SynthSpec(
        seed=args.seed,
        num_speakers=args.num_speakers,
        utts_per_speaker=args.utts_per_speaker,
        duration_s=args.duration,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    waves, labels = synthdata.gen_toy_corpus(spec)
    names = [f"{spk}_utt{k % spec.utts_per_speaker:03d}" for k, spk in enumerate(labels)]
    if args.trials_out:  # drawn first, so that bad trial counts leave no corpus behind
        trials = synthdata.gen_trials(labels, args.num_target, args.num_nontarget, args.seed)
    with open(out_dir / "speakers.txt", "w", encoding="utf-8") as f:
        for name, wave, spk in zip(names, waves, labels):
            frontend.write_wav(out_dir / f"{name}.wav", wave)
            f.write(f"{name} {spk}\n")
    if args.trials_out:
        id_map = dict(zip(synthdata.utt_ids(len(labels)), names))
        trials = TrialList(
            [id_map[e] for e in trials.enroll],
            [id_map[t] for t in trials.test],
            trials.labels,
        )
        save_trials(args.trials_out, trials)
    print(f"wrote {len(waves)} utterances to {out_dir}", file=sys.stderr)
    return 0


def _per_wav(args, suffix: str, compute, done: str) -> int:
    """Write ``compute(wave)`` of each WAV file in ``--wav-dir`` to ``--out-dir``, one SVF1
    file per stem, with ``suffix``; a data error names the WAV file. ``done`` heads the count."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wavs = _inputs(args.wav_dir, "*.wav", "WAV files")
    for path in wavs:
        wave = frontend.read_wav(path)
        with _naming(path):
            matrix = compute(wave)
        tensorio.write_feature_matrix(out_dir / f"{path.stem}{suffix}", matrix)
    print(f"{done} for {len(wavs)} files", file=sys.stderr)
    return 0


def cmd_feats(args) -> int:
    cfg = _load_pipeline_config(args)
    extractor = frontend.fbank if args.feat == "fbank" else frontend.plp
    stmn = frontend.stmn if cfg.apply_stmn else (lambda feats: feats)
    return _per_wav(args, ".feat", lambda wave: stmn(extractor(wave)),
                    f"extracted {args.feat} features")


def cmd_vad(args) -> int:
    return _per_wav(args, ".vad",
                    lambda wave: frontend.energy_vad(wave)[:, None].astype(np.float32),
                    "computed VAD")


def cmd_embed(args) -> int:
    cfg = _load_pipeline_config(args)
    feat_paths = _inputs(args.feats_dir, "*.feat", "feature files")
    with _naming(feat_paths[0]):
        dim = tensorio.read_feature_matrix(feat_paths[0]).shape[1]
    with _naming(args.config):  # an embedding_dim that the --arch does not take
        spec = nnet.make_spec(args.arch, dim, 2, cfg.embedding_dim or None)
    if args.weights:
        weights = _load_named(tensorio.read_tensors, args.weights)
        with _naming(args.weights):  # tensors that do not fit the network
            spec = nnet.make_spec(args.arch, dim, nnet.num_classes_of(args.arch, weights),
                                  cfg.embedding_dim or None)
            nonfinite = [name for name, w in weights.items() if not np.all(np.isfinite(w))]
            if nonfinite:
                raise ValueError(f"non-finite values in {nonfinite[0]}")
            net = nnet.prepare(spec, weights)  # which moves the file's tensors out of ``weights``
    else:
        net = nnet.prepare(spec, nnet.init_weights(spec, args.seed))
    out: dict[str, np.ndarray] = {}
    for path in feat_paths:
        with _naming(path):
            feats = tensorio.read_feature_matrix(path)
        if args.vad_dir:
            vad_path = Path(args.vad_dir) / f"{path.stem}.vad"
            with _naming(vad_path):  # a mask that does not fit is the mask's fault
                mask = tensorio.read_feature_matrix(vad_path).ravel() > 0.5
                feats = frontend.apply_vad(feats, mask)
        with _naming(path):
            out[path.stem] = nnet.forward(feats, net)
    tensorio.write_tensors(args.out, out)
    print(f"embedded {len(out)} utterances with {args.arch}", file=sys.stderr)
    return 0


def cmd_train_plda(args) -> int:
    cfg = _load_pipeline_config(args)
    utts, x = _load_named(tensorio.read_embeddings, args.embeddings)  # rows in id order
    labels_by_utt = _load_named(_read_labels, args.labels)
    with _naming(args.embeddings):  # the store's faults come before the labels'
        if not utts:
            raise ValueError("no embeddings")
        if x.shape[1] == 0:
            raise ValueError("embeddings of dimension 0")
        backend_mod.check_finite(utts, x)  # first: a column of inf and -inf has no mean
        mean = backend_mod.estimate_center(x)
        if args.backend == "plda":  # PLDA length-normalizes each centered row, cosine does not
            backend_mod.check_off_mean(utts, x, mean)
    with _naming(args.labels):
        missing = [u for u in utts if u not in labels_by_utt]
        if missing:
            raise ValueError(f"no label for utterance {missing[0]}")
        # each row's speaker as an index into the sorted speaker names, coded once here
        names, speakers = np.unique([labels_by_utt[u] for u in utts], return_inverse=True)
        if len(names) < 2:  # S-norm scores against at least two cohort speakers
            raise ValueError(f"need at least two speakers, got {len(names)}")
    bcfg = backend_mod.BackendConfig(
        kind=args.backend,
        rank_speaker=min(cfg.plda_rank_speaker, x.shape[1]),
        rank_channel=min(cfg.plda_rank_channel, x.shape[1]),
        em_iters=cfg.em_iters,
        seed=args.seed,
    )
    with _naming(args.embeddings):  # a scatter that overflows or cannot be factored
        trained, rows = backend_mod.train_backend(x, speakers, bcfg, mean)
    del x
    with _naming(args.labels):  # a cosine speaker whose embeddings average to the mean
        cohort = scorenorm.build_cohort(rows, speakers, trained, names)
    backend_mod.save_backend(args.out, trained, cohort)
    print(f"trained {args.backend} backend on {len(utts)} embeddings", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    backend, _ = _load_named(backend_mod.load_backend, args.backend_file)
    embeddings = dict(zip(*_load_named(tensorio.read_embeddings, args.embeddings)))
    trials = _load_named(load_trials, args.trials)
    with _naming(args.embeddings):  # an utterance that the store lacks or cannot score
        scores = backend_mod.score_trials(backend, embeddings, trials)
    save_scores(args.out, scores)
    print(f"scored {len(scores)} trials", file=sys.stderr)
    return 0


def cmd_snorm(args) -> int:
    cfg = _load_pipeline_config(args)
    backend, cohort = _load_named(backend_mod.load_backend, args.backend_file)
    embeddings = dict(zip(*_load_named(tensorio.read_embeddings, args.embeddings)))
    trials = _load_named(load_trials, args.trials)
    raw = _load_named(load_scores, args.scores)
    with _naming(args.trials, args.scores):
        check_same_trials([trials, raw])
    snorm_cfg = scorenorm.SnormConfig(top_x=cfg.snorm_top_x)
    with _naming(args.embeddings):  # an utterance that the store lacks or cannot score
        out = scorenorm.snorm_scores(backend, embeddings, raw, cohort, snorm_cfg)
    save_scores(args.out, out)
    if args.cohort_scores_out:
        # cache of per-utterance cohort scores, one row per sorted trial utt
        ids = sorted(set(trials.enroll) | set(trials.test))
        prepped = backend_mod.preprocess_by_id(backend, embeddings, ids)
        matrix = np.stack([scorenorm.cohort_scores(backend, x, cohort) for x in prepped.values()])
        tensorio.write_feature_matrix(args.cohort_scores_out, matrix)
    print(f"normalized {len(out)} trials (top_x={cfg.snorm_top_x})", file=sys.stderr)
    return 0


def _calibrated(score_paths, key_path):
    """The calibrated scores of ``calibrate`` (one score file) and ``fuse --key`` (several)."""
    scoresets = [_load_named(load_scores, p) for p in score_paths]
    key = _load_named(load_key, key_path)
    with _naming(*score_paths, key_path, errors=TrialMismatch):
        return calibration.calibrate_pipeline(scoresets, key)


def cmd_calibrate(args) -> int:
    save_scores(args.out, _calibrated([args.scores], args.key))
    print("calibrated scores written", file=sys.stderr)
    return 0


def _parse_weights(text: str) -> list[float]:
    try:
        return [float(w) for w in text.split(",")]
    except ValueError:
        raise ValueError(f"--weights: expected comma-separated numbers, got {text!r}") from None


def cmd_fuse(args) -> int:
    if args.key:
        fused = _calibrated(args.scores, args.key)
    else:
        scoresets = [_load_named(load_scores, p) for p in args.scores]
        weights = (list(calibration.FUSION_WEIGHTS) if args.weights is None
                   else _parse_weights(args.weights))
        if args.weights is None and len(weights) != len(scoresets):
            raise ValueError(f"the default weights {','.join(map(str, weights))} are for "
                             f"{len(weights)} score sets, not {len(scoresets)}: "
                             "give --weights or --key")
        if len(weights) == 1 and len(scoresets) > 1:
            weights = weights * len(scoresets)
        with _naming(*args.scores, errors=TrialMismatch):
            fused = calibration.fuse_weighted(scoresets, weights)
    save_scores(args.out, fused)
    print(f"fused {len(args.scores)} systems", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_pipeline_config(args)
    scores = _load_named(load_scores, args.scores)
    key = _load_named(load_key, args.key)
    params = metrics.DcfParams(cfg.dcf_p_target)
    with _naming(args.scores, args.key):  # trials that do not pair up, in any order
        eer = metrics.compute_eer(scores, key)
        dcf = metrics.compute_min_dcf(scores, key, params)
    line = metrics.format_metrics(eer, dcf, params)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(line + "\n")
    print(line)
    return 0


@functools.cache  # one parser per process, shared by every caller: read it, do not change it
def build_parser() -> _Parser:
    parser = _Parser(prog="svkit", description="speaker verification pipeline")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a toy waveform corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--num-speakers", type=int, default=4)
    p.add_argument("--utts-per-speaker", type=int, default=5)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--trials-out")
    p.add_argument("--num-target", type=int, default=20)
    p.add_argument("--num-nontarget", type=int, default=20)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("feats", help="extract FBank or PLP features")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--feat", choices=("fbank", "plp"), default="fbank")
    p.set_defaults(func=cmd_feats)

    p = sub.add_parser("vad", help="compute energy VAD masks")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_vad)

    p = sub.add_parser("embed", help="run an embedding extractor over features")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feats-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arch", choices=nnet.ARCH_KINDS, default="tdnn-standard")
    p.add_argument("--vad-dir")
    p.add_argument("--weights", help="weight file (default: seeded random init)")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train_plda", help="train the scoring backend and cohort")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--backend", choices=("plda", "cosine"), default="plda")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_plda)

    p = sub.add_parser("score", help="score a trial list")
    p.add_argument("--backend-file", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("snorm", help="adaptive symmetric score normalization")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--backend-file", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True, help="raw score file of the trial list")
    p.add_argument("--out", required=True)
    p.add_argument("--cohort-scores-out",
                   help="cache the per-utterance cohort score matrix (SVF1)")
    p.set_defaults(func=cmd_snorm)

    p = sub.add_parser("calibrate", help="logistic-regression calibration")
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fuse", help="fuse score sets (weighted or trained)")
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--out", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--weights", help="comma-separated weights for weighted mode")
    mode.add_argument("--key", help="keyed trials: train logistic-regression fusion")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="report EER and minimum DCF")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True)
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
