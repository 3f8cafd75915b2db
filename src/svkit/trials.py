"""Trial lists and score sets, plus their text file formats.

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
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.enroll),):
            raise ValueError("score set fields differ in length")
        if self.scores.size and not np.all(np.isfinite(self.scores)):
            raise ValueError("non-finite score")

    def with_scores(self, scores) -> "ScoreSet":
        return ScoreSet(list(self.enroll), list(self.test), scores)


def same_trials(a: _PairList, b: _PairList) -> tuple[str, str] | None:
    """First trial where the two lists disagree, or None when identical."""
    for ea, ta, eb, tb in zip(a.enroll, a.test, b.enroll, b.test):
        if ea != eb or ta != tb:
            return (ea, ta)
    if len(a) != len(b):
        n = min(len(a), len(b))
        return (a.enroll[n], a.test[n]) if len(a) > len(b) else (b.enroll[n], b.test[n])
    return None


def parse_trials(text: str) -> TrialList:
    """Parse a trial list, rejecting malformed or mixed keyed/keyless lines."""
    enroll: list[str] = []
    test: list[str] = []
    labels: list[bool] = []
    keyed: bool | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) == 3:
            if keyed is False:
                raise ValueError(f"line {lineno}: keyed line in a keyless trial list")
            if parts[0] not in ("0", "1"):
                raise ValueError(f"line {lineno}: label must be 0 or 1")
            keyed = True
            labels.append(parts[0] == "1")
            enroll.append(parts[1])
            test.append(parts[2])
        elif len(parts) == 2:
            if keyed is True:
                raise ValueError(f"line {lineno}: keyless line in a keyed trial list")
            keyed = False
            enroll.append(parts[0])
            test.append(parts[1])
        else:
            raise ValueError(f"line {lineno}: expected 2 or 3 fields")
    return TrialList(enroll, test, np.array(labels, dtype=bool) if keyed else None)


def format_trials(trials: TrialList) -> str:
    lines = []
    if trials.labels is not None:
        for e, t, lab in zip(trials.enroll, trials.test, trials.labels):
            lines.append(f"{1 if lab else 0} {e} {t}")
    else:
        for e, t in zip(trials.enroll, trials.test):
            lines.append(f"{e} {t}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_trials(path) -> TrialList:
    with open(path, "r", encoding="utf-8") as f:
        return parse_trials(f.read())


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
