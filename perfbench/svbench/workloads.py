"""The benchmark workloads: seeded inputs, the timed chain, and its checks.

A workload writes its inputs from a seed (``generate``), lists the steps of
the chain the harness times (``steps``), names the outputs that must be
byte-identical on a rerun (``outputs``), and checks one run's outputs
against svkit's scalar references (``check``). Steps are CLI subcommands run
in-process through ``svkit.cli.main``; AAM head fine-tuning has no
subcommand, so that step calls ``aam.finetune_head``.
"""

import io
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from math import comb
from pathlib import Path

import numpy as np

from svkit import aam, backend, cli, nnet, synthdata, tensorio
from svkit.trials import save_trials

from . import checks

TOP_X = 300  # the paper's S-norm top-X, the CLI default
CHECK_SAMPLE = 16  # trials per score file checked against the scalar references


@dataclass(frozen=True)
class Step:
    name: str  # CLI subcommand, or the name of a library call
    argv: tuple = ()
    call: object = None  # library call returning an exit code


def run_step(step: Step) -> tuple[int, str]:
    """Run one step in-process; (exit code, captured stdout and stderr)."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if step.call is not None:
                return int(step.call()), sink.getvalue()
            return cli.main([step.name, *map(str, step.argv)]), sink.getvalue()
    except Exception:  # an uncaught exception is a failed step, not a crashed run
        return 1, sink.getvalue() + traceback.format_exc()


def _write_embeddings(path: Path, ids, rows) -> None:
    tensorio.write_tensors(path, {u: r for u, r in zip(ids, rows)})


def _write_labels(path: Path, ids, labels) -> None:
    path.write_text("".join(f"{u} {s}\n" for u, s in zip(ids, labels)), encoding="utf-8")


def _write_plda_config(path: Path, rank: int, em_iters: int) -> None:
    path.write_text(f"plda_rank_speaker = {rank}\nplda_rank_channel = {rank}\n"
                    f"em_iters = {em_iters}\nsnorm_top_x = {TOP_X}\n", encoding="utf-8")


def _all_pairs_trials(labels, seed: int):
    """Every pair of the given utterances, keyed, in a seeded order."""
    n = len(labels)
    counts = np.unique(np.asarray(labels), return_counts=True)[1]
    n_tar = int(sum(comb(int(c), 2) for c in counts))
    return synthdata.gen_trials(labels, n_tar, comb(n, 2) - n_tar, seed)


@dataclass(frozen=True)
class Audio2Sys:
    """Two-system chain on a toy waveform corpus: front end and extractors."""

    speakers: int = 6
    utts: int = 3
    duration_s: float = 1.0
    name = "audio_2sys"
    item_unit = "audio_s_per_s"
    item_steps = None  # the whole chain
    metrics_file = "metrics.txt"
    systems = (("resnet", "resnet34", "fbank"), ("tdnn", "tdnn-standard", "plp"))

    def generate(self, in_dir: Path, seed: int) -> dict:
        n = self.speakers * self.utts
        n_tar = self.speakers * comb(self.utts, 2)
        code, log = run_step(Step("synth", (
            "--out-dir", in_dir / "corpus", "--num-speakers", self.speakers,
            "--utts-per-speaker", self.utts, "--duration", self.duration_s,
            "--seed", seed, "--trials-out", in_dir / "trials.txt",
            "--num-target", n_tar, "--num-nontarget", comb(n, 2) - n_tar)))
        if code != 0:
            raise RuntimeError(f"synth failed: {log}")
        return {
            "seed": seed, "speakers": self.speakers, "utts_per_speaker": self.utts,
            "utterances": n, "audio_s": n * self.duration_s, "trials": comb(n, 2),
            "targets": n_tar, "d": {arch: nnet.make_spec(arch, 40 if feat == "fbank" else 30, 2)
                                    .embedding_dim for _, arch, feat in self.systems},
            "backend": "cosine", "cohort": self.speakers,
            "top_x_effective": min(TOP_X, self.speakers),
        }

    def items(self, shape: dict) -> float:
        return shape["audio_s"]

    def cohort_utts(self, shape: dict) -> int:
        """Cohort vectors one chain needs: one per trial utterance per S-norm step."""
        return len(self.systems) * shape["utterances"]

    def steps(self, in_dir: Path, out: Path) -> list[Step]:
        corpus, trials = in_dir / "corpus", in_dir / "trials.txt"
        steps = [Step("feats", ("--wav-dir", corpus, "--out-dir", out / feat, "--feat", feat))
                 for feat in ("fbank", "plp")]
        steps.append(Step("vad", ("--wav-dir", corpus, "--out-dir", out / "vad")))
        for tag, arch, feat in self.systems:
            steps.append(Step("embed", (
                "--feats-dir", out / feat, "--vad-dir", out / "vad", "--arch", arch,
                "--seed", 1, "--out", out / f"emb_{tag}.svw")))
        for tag, _, _ in self.systems:
            emb, model = out / f"emb_{tag}.svw", out / f"backend_{tag}.svw"
            steps += [
                Step("train_plda", ("--embeddings", emb, "--labels", corpus / "speakers.txt",
                                    "--backend", "cosine", "--out", model)),
                Step("score", ("--backend-file", model, "--embeddings", emb, "--trials", trials,
                               "--out", out / f"raw_{tag}.scores")),
                Step("snorm", ("--backend-file", model, "--embeddings", emb, "--trials", trials,
                               "--scores", out / f"raw_{tag}.scores",
                               "--out", out / f"snorm_{tag}.scores")),
            ]
        steps += [
            Step("fuse", ("--scores", *(out / f"snorm_{tag}.scores" for tag, _, _ in self.systems),
                          "--key", trials, "--out", out / "fused.scores")),
            Step("eval", ("--scores", out / "fused.scores", "--key", trials,
                          "--out", out / "metrics.txt")),
        ]
        return steps

    @property
    def outputs(self) -> tuple[str, ...]:
        per_system = [f"{kind}_{tag}.{ext}" for tag, _, _ in self.systems
                      for kind, ext in (("emb", "svw"), ("backend", "svw"),
                                        ("raw", "scores"), ("snorm", "scores"))]
        return (*per_system, "fused.scores", "metrics.txt")

    def check(self, in_dir: Path, out: Path, seed: int) -> list[tuple[str, bool]]:
        trials = in_dir / "trials.txt"
        sample = checks.sample_trials(comb(self.speakers * self.utts, 2), seed, CHECK_SAMPLE)
        result = []
        for tag, _, _ in self.systems:
            result += checks.check_scores(
                tag, out / f"backend_{tag}.svw", out / f"emb_{tag}.svw", trials,
                out / f"raw_{tag}.scores", out / f"snorm_{tag}.scores", TOP_X, sample)
        result.append(checks.check_eval_line("eval", out / "fused.scores", trials,
                                             out / "metrics.txt"))
        return result

    def quality(self, in_dir: Path, out: Path) -> dict[str, float]:
        eer, dcf, _ = checks.parse_metrics(out / "metrics.txt")
        return {"calibration.cllr": checks.cllr(out / "fused.scores", in_dir / "trials.txt"),
                "metrics.eer_pct": eer, "metrics.min_dcf": dcf}


@dataclass(frozen=True)
class PldaScore:
    """PLDA scoring, adaptive S-norm with a cohort cache, calibration, eval."""

    dim: int = 128
    train_speakers: int = 400
    train_sessions: int = 3
    eval_speakers: int = 20
    eval_utts: int = 5
    rank: int = 32
    em_iters: int = 5
    name = "plda_score"
    item_unit = "trials_per_s"
    item_steps = ("score", "snorm", "calibrate", "eval")
    metrics_file = "metrics.txt"
    outputs = ("backend.svw", "raw.scores", "snorm.scores", "cohort.svf", "cal.scores",
               "metrics.txt")

    def generate(self, in_dir: Path, seed: int) -> dict:
        per = max(self.train_sessions, self.eval_utts)
        spec = synthdata.SynthSpec(seed=seed, dim=self.dim,
                                   num_speakers=self.train_speakers + self.eval_speakers,
                                   utts_per_speaker=per, rank_speaker=self.rank,
                                   rank_channel=self.rank, speaker_scale=1.4, noise_scale=1.0)
        x, labels, _ = synthdata.gen_plda_data(spec)
        train = [s * per + t for s in range(self.train_speakers) for t in range(self.train_sessions)]
        held = [s * per + t for s in range(self.train_speakers, spec.num_speakers)
                for t in range(self.eval_utts)]
        train_ids = [f"tr{r:06d}" for r in train]
        _write_embeddings(in_dir / "train.svw", train_ids, x[train])
        _write_labels(in_dir / "train_labels.txt", train_ids, [labels[r] for r in train])
        _write_embeddings(in_dir / "eval.svw", synthdata.utt_ids(len(held)), x[held])
        trials = _all_pairs_trials([labels[r] for r in held], seed)
        save_trials(in_dir / "trials.txt", trials)
        _write_plda_config(in_dir / "plda.cfg", self.rank, self.em_iters)
        return {
            "seed": seed, "d": self.dim, "ranks": [self.rank, self.rank],
            "speakers": self.train_speakers, "sessions": [self.train_sessions] * 2,
            "utterances": len(train), "eval_speakers": self.eval_speakers,
            "eval_utterances": len(held), "trials": len(trials),
            "targets": int(trials.labels.sum()), "cohort": self.train_speakers,
            "top_x_effective": min(TOP_X, self.train_speakers), "em_iters": self.em_iters,
        }

    def items(self, shape: dict) -> float:
        return shape["trials"]

    def cohort_utts(self, shape: dict) -> int:
        return shape["eval_utterances"]

    def steps(self, in_dir: Path, out: Path) -> list[Step]:
        cfg, trials, emb = in_dir / "plda.cfg", in_dir / "trials.txt", in_dir / "eval.svw"
        model = out / "backend.svw"
        return [
            Step("train_plda", ("--config", cfg, "--embeddings", in_dir / "train.svw",
                                "--labels", in_dir / "train_labels.txt", "--out", model)),
            Step("score", ("--backend-file", model, "--embeddings", emb, "--trials", trials,
                           "--out", out / "raw.scores")),
            Step("snorm", ("--config", cfg, "--backend-file", model, "--embeddings", emb,
                           "--trials", trials, "--scores", out / "raw.scores",
                           "--out", out / "snorm.scores",
                           "--cohort-scores-out", out / "cohort.svf")),
            Step("calibrate", ("--scores", out / "snorm.scores", "--key", trials,
                               "--out", out / "cal.scores")),
            Step("eval", ("--scores", out / "cal.scores", "--key", trials,
                          "--out", out / "metrics.txt")),
        ]

    def check(self, in_dir: Path, out: Path, seed: int) -> list[tuple[str, bool]]:
        n = self.eval_speakers * self.eval_utts
        sample = checks.sample_trials(comb(n, 2), seed, CHECK_SAMPLE)
        result = checks.check_scores(
            "plda", out / "backend.svw", in_dir / "eval.svw", in_dir / "trials.txt",
            out / "raw.scores", out / "snorm.scores", TOP_X, sample,
            cache_path=out / "cohort.svf")
        result.append(checks.check_affine("calibrate", out / "snorm.scores", out / "cal.scores"))
        result.append(checks.check_eval_line("eval", out / "cal.scores", in_dir / "trials.txt",
                                             out / "metrics.txt"))
        return result

    def quality(self, in_dir: Path, out: Path) -> dict[str, float]:
        eer, dcf, _ = checks.parse_metrics(out / "metrics.txt")
        return {"calibration.cllr": checks.cllr(out / "cal.scores", in_dir / "trials.txt"),
                "metrics.eer_pct": eer, "metrics.min_dcf": dcf}


@dataclass(frozen=True)
class PldaTrain:
    """PLDA EM over speakers with 2-30 sessions, then AAM head fine-tuning.

    Session counts cycle through 2..30 over the speakers and the seed sets
    only the embedding values, so every seed trains on the same number of
    utterances in the same 29 session-count groups, laid out in the same
    order (the order alone moves peak memory by several percent).
    """

    dim: int = 64
    speakers: int = 200
    min_sessions: int = 2
    max_sessions: int = 30
    rank: int = 32
    em_iters: int = 5
    aam_epochs: int = 50
    name = "plda_train"
    item_unit = "train_utts_per_s"
    item_steps = ("train_plda",)
    metrics_file = None
    outputs = ("backend.svw", "aam_head.svw", "aam_loss.npy")

    def generate(self, in_dir: Path, seed: int) -> dict:
        span = self.max_sessions - self.min_sessions + 1
        sessions = self.min_sessions + np.arange(self.speakers) % span
        spec = synthdata.SynthSpec(seed=seed, dim=self.dim, num_speakers=self.speakers,
                                   utts_per_speaker=self.max_sessions, rank_speaker=self.rank,
                                   rank_channel=self.rank, speaker_scale=1.4, noise_scale=1.0)
        x, labels, _ = synthdata.gen_plda_data(spec)
        rows = [s * self.max_sessions + t for s, n in enumerate(sessions) for t in range(n)]
        ids = [f"tr{r:06d}" for r in rows]
        _write_embeddings(in_dir / "train.svw", ids, x[rows])
        _write_labels(in_dir / "train_labels.txt", ids, [labels[r] for r in rows])
        _write_plda_config(in_dir / "plda.cfg", self.rank, self.em_iters)
        return {
            "seed": seed, "d": self.dim, "ranks": [self.rank, self.rank],
            "speakers": self.speakers, "sessions": [int(sessions.min()), int(sessions.max())],
            "session_groups": len(set(sessions.tolist())), "utterances": len(rows),
            "em_iters": self.em_iters, "aam_epochs": self.aam_epochs,
        }

    def items(self, shape: dict) -> float:
        return shape["utterances"]

    def cohort_utts(self, shape: dict) -> int:
        return 0

    def _finetune(self, in_dir: Path, out: Path) -> int:
        model, _ = backend.load_backend(out / "backend.svw")
        embs = tensorio.read_tensors(in_dir / "train.svw")
        ids, speakers = zip(*(line.split() for line in
                              (in_dir / "train_labels.txt").read_text(encoding="utf-8").splitlines()))
        classes = np.unique(speakers, return_inverse=True)[1]
        x = backend.preprocess(model, np.stack([embs[u] for u in ids]))
        head, loss = aam.finetune_head(x, classes, epochs=self.aam_epochs)
        aam.save_head(head, out / "aam_head.svw")
        np.save(out / "aam_loss.npy", loss)
        return 0

    def steps(self, in_dir: Path, out: Path) -> list[Step]:
        return [
            Step("train_plda", ("--config", in_dir / "plda.cfg",
                                "--embeddings", in_dir / "train.svw",
                                "--labels", in_dir / "train_labels.txt",
                                "--out", out / "backend.svw")),
            Step("aam_finetune", call=partial(self._finetune, in_dir, out)),
        ]

    def check(self, in_dir: Path, out: Path, seed: int) -> list[tuple[str, bool]]:
        model, cohort = backend.load_backend(out / "backend.svw")
        params = [model.mean, model.lda, model.plda.V, model.plda.U, model.plda.psi, cohort]
        loss = np.load(out / "aam_loss.npy")
        return [
            ("plda.params_finite", all(np.all(np.isfinite(p)) for p in params)
             and bool(np.all(model.plda.psi > 0))),
            ("plda.cohort_rows", cohort.shape[0] == self.speakers),
            ("aam.loss_finite_and_falls", bool(np.all(np.isfinite(loss))) and loss[-1] < loss[0]),
        ]

    def quality(self, in_dir: Path, out: Path) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Audio2Sys(), PldaScore(), PldaTrain())}
