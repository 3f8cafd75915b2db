"""Spans and counters recorded from outside svkit, around its public functions.

A ``Tracer`` rebinds each wrapped function in every svkit module that binds
it by name (``scorenorm`` imports ``score_pair`` and ``preprocess`` from
``backend``; ``cli`` imports the ``trials`` loaders), so calls made through
either name are seen. Coarse functions get spans (name, start, end, parent
span, enclosing CLI step); per-pair functions only get a call counter, so
tracing stays cheap. ``uninstall`` restores the original bindings.
"""

import functools
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# module -> {function: span name}; several functions may share one name.
SPANNED = {
    "frontend": {"read_wav": "frontend.read_wav", "fbank": "frontend.fbank",
                 "plp": "frontend.plp", "stmn": "frontend.stmn",
                 "energy_vad": "frontend.energy_vad"},
    "nnet": {"forward_resnet": "nnet.forward_resnet", "forward_tdnn": "nnet.forward_tdnn"},
    "backend": {"train_lda": "backend.train_lda", "train_plda": "backend.train_plda",
                "score_trials": "backend.score_trials"},
    "scorenorm": {"build_cohort": "scorenorm.build_cohort",
                  "snorm_scores": "scorenorm.snorm_scores",
                  "cohort_scores": "scorenorm.cohort_scores"},
    "calibration": {"calibrate_pipeline": "calibration.calibrate_pipeline",
                    "train_logreg": "calibration.train_logreg"},
    "metrics": {"compute_eer": "metrics.compute_eer",
                "compute_min_dcf": "metrics.compute_min_dcf"},
    "tensorio": {"read_feature_matrix": "tensorio.read", "read_tensors": "tensorio.read",
                 "write_feature_matrix": "tensorio.write", "write_tensors": "tensorio.write"},
    "trials": {"load_trials": "trials.load", "load_scores": "trials.load",
               "save_trials": "trials.save", "save_scores": "trials.save"},
    "aam": {"finetune_head": "aam.finetune_head"},
}

# Functions called once per trial pair or cohort row: counted, not timed.
COUNTED = {
    "backend": ("score_pair", "plda_llr", "preprocess"),
    "scorenorm": ("adapt_snorm",),
    "nnet": ("validate_weights",),
}

CLI_STEPS = ("feats", "vad", "embed", "train_plda", "score", "snorm",
             "calibrate", "fuse", "eval")

# (name, unit) of every per-layer metric, in report order. Metrics of a layer
# that a workload does not run read 0.
PER_LAYER = (
    [(f"frontend.{f}.s", "s") for f in ("read_wav", "fbank", "plp", "stmn", "energy_vad")]
    + [("frontend.frames", "count"), ("frontend.vad_speech_ratio", "ratio")]
    + [("nnet.forward_resnet.s", "s"), ("nnet.forward_tdnn.s", "s"),
       ("nnet.frames_per_s", "1/s"), ("nnet.validate_weights.calls", "count")]
    + [("backend.train_lda.s", "s"), ("backend.train_plda.s", "s"),
       ("backend.train_plda.s_per_iter", "s"), ("backend.score_trials.s", "s"),
       ("backend.score_pair.calls", "count"), ("backend.plda_llr.calls", "count"),
       ("backend.preprocess.calls", "count")]
    + [("scorenorm.build_cohort.s", "s"), ("scorenorm.snorm_scores.s", "s"),
       ("scorenorm.cohort_scores.s", "s"), ("scorenorm.cohort_scores.calls", "count"),
       ("scorenorm.adapt_snorm.calls", "count"), ("scorenorm.cohort_vectors_per_utt", "ratio")]
    + [("calibration.calibrate_pipeline.s", "s"), ("calibration.train_logreg.s", "s"),
       ("calibration.train_logreg.calls", "count"), ("calibration.cllr", "bit")]
    + [("metrics.compute_eer.s", "s"), ("metrics.compute_min_dcf.s", "s"),
       ("metrics.eer_pct", "%"), ("metrics.min_dcf", "ratio")]
    + [("tensorio.read.s", "s"), ("tensorio.write.s", "s"), ("tensorio.bytes", "B"),
       ("trials.load.s", "s"), ("trials.save.s", "s")]
    + [("aam.finetune_head.s", "s")]
    + [(f"cli.{step}.{kind}", "s") for step in CLI_STEPS for kind in ("s", "self_s")]
    + [("trace.overhead_s", "s"), ("process.os_threads", "count")]
)


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _after_features(tracer, args, kwargs, result):
    tracer.totals["frontend.frames"] += result.data.shape[0]


def _after_vad(tracer, args, kwargs, result):
    tracer.totals["vad.frames"] += len(result)
    tracer.totals["vad.speech"] += int(result.sum())


def _after_forward(tracer, args, kwargs, result):
    tracer.totals["nnet.frames"] += len(args[0])


def _after_train_plda(tracer, args, kwargs, result):
    tracer.totals["backend.em_iters"] += len(result.loglik_trace)


def _after_file(tracer, args, kwargs, result):
    tracer.totals["tensorio.bytes"] += _path_size(args[0])


HOOKS = {
    "fbank": _after_features, "plp": _after_features, "energy_vad": _after_vad,
    "forward_resnet": _after_forward, "forward_tdnn": _after_forward,
    "train_plda": _after_train_plda,
    "read_feature_matrix": _after_file, "read_tensors": _after_file,
    "write_feature_matrix": _after_file, "write_tensors": _after_file,
}


class Tracer:
    """In-memory spans and counters for one run of the chain."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, step]
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._step: str | None = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._step])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def step(self, name: str):
        """Root span for one pipeline step (``cli.<subcommand>`` or a library call)."""
        self._step = name
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._step = None

    def _spanned(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "svkit" or key.startswith("svkit."))]
        wrapped = []
        for mod_name, table in SPANNED.items():
            mod = sys.modules[f"svkit.{mod_name}"]
            for fn_name, span_name in table.items():
                orig = getattr(mod, fn_name)
                wrapped.append((orig, self._spanned(span_name, orig, HOOKS.get(fn_name))))
        for mod_name, names in COUNTED.items():
            mod = sys.modules[f"svkit.{mod_name}"]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapped.append((orig, self._counted(f"{mod_name}.{fn_name}", orig)))
        for orig, wrapper in wrapped:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics this tracer can derive from its spans and counters.

        Metrics that need the output files or the workload's shape
        (calibration quality, EER, cohort vectors per utterance, overhead)
        are filled in by the caller.
        """
        out = {name: 0.0 for name, _ in PER_LAYER}
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            if parent < 0:  # a step span
                if name in CLI_STEPS:
                    out[f"cli.{name}.s"] += dur
                    out[f"cli.{name}.self_s"] += dur - children[idx]
                continue
            out[f"{name}.s"] += dur
            if name in ("scorenorm.cohort_scores", "calibration.train_logreg"):
                out[f"{name}.calls"] += 1
        for name, count in self.counts.items():
            if f"{name}.calls" in out:
                out[f"{name}.calls"] = float(count)
        out["frontend.frames"] = self.totals["frontend.frames"]
        if self.totals["vad.frames"]:
            out["frontend.vad_speech_ratio"] = self.totals["vad.speech"] / self.totals["vad.frames"]
        forward_s = out["nnet.forward_resnet.s"] + out["nnet.forward_tdnn.s"]
        if forward_s > 0:
            out["nnet.frames_per_s"] = self.totals["nnet.frames"] / forward_s
        if self.totals["backend.em_iters"]:
            out["backend.train_plda.s_per_iter"] = (
                out["backend.train_plda.s"] / self.totals["backend.em_iters"])
        out["tensorio.bytes"] = self.totals["tensorio.bytes"]
        return out
