"""Trial lists and score sets, their text file formats, and the rules that
pair them: same trials in the same order, or a score set and its key.

Trial files hold one trial per line, either "label enroll test" with label
in {1, 0} (1 = target) or keyless "enroll test"; the two styles cannot be
mixed. Score files hold "enroll test score" lines with scores printed at
17 significant digits so reading them back is exact.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class _PairList:
    """Ordered, distinct (enroll, test) pairs."""

    enroll: list[str]
    test: list[str]

    def __post_init__(self):
        if len(self.enroll) != len(self.test):
            raise ValueError("enroll/test id lists differ in length")
        seen = set()
        for pair in zip(self.enroll, self.test):
            if pair in seen:
                raise ValueError(f"duplicate trial: {pair[0]} {pair[1]}")
            seen.add(pair)

    def __len__(self) -> int:
        return len(self.enroll)

    def pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.enroll, self.test))

    def with_scores(self, scores) -> "ScoreSet":
        """These trials with one score each; their id lists, checked already, are shared."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(self.enroll),):
            raise ValueError("score set fields differ in length")
        if not np.all(np.isfinite(scores)):
            raise ValueError("non-finite score")
        out = object.__new__(ScoreSet)
        out.enroll, out.test, out.scores = self.enroll, self.test, scores
        return out


@dataclass(eq=False)
class TrialList(_PairList):
    """Ordered (enroll, test) pairs, optionally labeled (True = target)."""

    labels: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool)
            if self.labels.shape != (len(self.enroll),):
                raise ValueError("labels must align with trials")


@dataclass(eq=False)
class ScoreSet(_PairList):
    """One score per (enroll, test) trial, in trial order."""

    scores: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.scores = self.with_scores(self.scores).scores


def same_trials(a: _PairList, b: _PairList) -> tuple[str, str] | None:
    """First trial where the two lists disagree, or None when identical."""
    for ea, ta, eb, tb in zip(a.enroll, a.test, b.enroll, b.test):
        if ea != eb or ta != tb:
            return (ea, ta)
    if len(a) != len(b):
        n = min(len(a), len(b))
        return (a.enroll[n], a.test[n]) if len(a) > len(b) else (b.enroll[n], b.test[n])
    return None


class TrialMismatch(ValueError):
    """Lists that must hold the same trials in the same order differ at list ``index``."""

    def __init__(self, trial: tuple[str, str], index: int):
        super().__init__(f"trials do not match at: {trial[0]} {trial[1]}")
        self.index = index


def check_same_trials(lists) -> None:
    """Raise TrialMismatch unless every list holds the first one's trials in its order."""
    for index in range(1, len(lists)):
        bad = same_trials(lists[0], lists[index])
        if bad is not None:
            raise TrialMismatch(bad, index)


def check_key(key: TrialList) -> TrialList:
    """``key``, which must be labeled and hold both classes."""
    if key.labels is None:
        raise ValueError("key must be labeled")
    if key.labels.all() or not key.labels.any():
        raise ValueError("single-class key: need both targets and nontargets")
    return key


def key_targets(scores: _PairList, key: TrialList) -> np.ndarray:
    """Each scored trial's key label (True = target), looked up in any order;
    every scored trial must be in the key and every key trial scored."""
    labels = dict(zip(key.pairs(), check_key(key).labels.tolist()))
    try:
        mask = np.array([labels[pair] for pair in scores.pairs()], dtype=bool)
    except KeyError as exc:
        raise ValueError(f"trial not in key: {' '.join(exc.args[0])}") from None
    if len(scores) < len(key):
        scored = set(scores.pairs())
        e, t = next(pair for pair in key.pairs() if pair not in scored)
        raise ValueError(f"key trial not scored: {e} {t}")
    return mask


def parse_trials(text: str) -> TrialList:
    """Parse a trial list, rejecting malformed or mixed keyed/keyless lines."""
    enroll: list[str] = []
    test: list[str] = []
    labels: list[bool] = []
    keyed: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        style = len(parts) - 2  # 1 keyed, 0 keyless
        if style != keyed:
            if style not in (0, 1):
                raise ValueError(f"line {lineno}: expected 2 or 3 fields")
            if keyed is not None:
                styles = ("keyless", "keyed")
                raise ValueError(f"line {lineno}: {styles[style]} line in a {styles[keyed]} "
                                 "trial list")
            keyed = style
        if style:
            if parts[0] not in ("0", "1"):
                raise ValueError(f"line {lineno}: label must be 0 or 1")
            labels.append(parts[0] == "1")
        enroll.append(parts[-2])
        test.append(parts[-1])
    return TrialList(enroll, test, np.array(labels, dtype=bool) if keyed else None)


def format_trials(trials: TrialList) -> str:
    labels = [""] * len(trials) if trials.labels is None else [
        "1 " if lab else "0 " for lab in trials.labels.tolist()]
    lines = [f"{lab}{e} {t}" for lab, e, t in zip(labels, trials.enroll, trials.test)]
    return "\n".join(lines) + ("\n" if lines else "")


def load_trials(path) -> TrialList:
    with open(path, "r", encoding="utf-8") as f:
        return parse_trials(f.read())


def load_key(path) -> TrialList:
    """The trial list at ``path``, which ``check_key`` must accept."""
    return check_key(load_trials(path))


def save_trials(path, trials: TrialList) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_trials(trials))


def parse_scores(text: str) -> ScoreSet:
    enroll: list[str] = []
    test: list[str] = []
    scores: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'enroll test score'")
        try:
            value = float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: bad score value") from None
        enroll.append(parts[0])
        test.append(parts[1])
        scores.append(value)
    return ScoreSet(enroll, test, np.array(scores))


def format_scores(scores: ScoreSet) -> str:
    lines = [f"{e} {t} {s:.17g}" for e, t, s in zip(scores.enroll, scores.test, scores.scores)]
    return "\n".join(lines) + ("\n" if lines else "")


def load_scores(path) -> ScoreSet:
    with open(path, "r", encoding="utf-8") as f:
        return parse_scores(f.read())


def save_scores(path, scores: ScoreSet) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_scores(scores))
