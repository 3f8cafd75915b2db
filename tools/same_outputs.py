"""Check that two source trees write byte-identical benchmark files.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE --seeds 3 12

For each tree, seed and benchmark workload, a child process imports the
tree's own ``src/svkit`` and ``perfbench/svbench``, writes the workload's
seeded inputs (``generate``), runs its chain once (``steps``) and runs its
checks (``check``), with BLAS pinned to one thread as the benchmark pins
it. The two trees' input and output files are then compared byte for
byte. Every differing or missing file, failed step and failed check is
listed, and the exit code is 1 if there is any, else 0. Nothing is
written into either tree.

A differing ``.scores`` file is listed with its largest absolute and
relative score difference, and a differing SVW1 (``.svw``) or SVF1
(``.svf``) file with its largest tensor difference, both read with the
svkit of the repository this tool is in. So a change that moves outputs
by rounding alone can be bounded with this tool. The relative difference
of two values is |a - b| / max(|a|, |b|). Each such line also gives the
largest difference relative to the largest absolute value of the score
file, or of the tensor it is in (for embeddings: of the utterance), the
measure that does not blow up where a value crosses zero.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOADS = ("audio_2sys", "plda_score", "plda_train")
BLAS_THREADS = "1"


def run_workload(tree: str, name: str, seed: int, work: str) -> None:
    """Child side: generate, run and check one workload of ``tree`` into
    ``work``; print one JSON line with the failed steps and checks."""
    root = Path(tree).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
    from svbench.workloads import WORKLOADS as by_name, run_step

    workload, in_dir, out = by_name[name], Path(work) / "in", Path(work) / "out"
    in_dir.mkdir(parents=True)
    out.mkdir()
    workload.generate(in_dir, seed)
    failed = []
    for step in workload.steps(in_dir, out):
        code, log = run_step(step)
        if code != 0:
            failed.append(f"step {step.name} exited {code}: {log.strip()}")
            break
    else:
        failed += [f"check {check}" for check, ok in workload.check(in_dir, out, seed) if not ok]
    print(json.dumps(failed))


def _largest(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest absolute and relative difference of two equal-shaped arrays."""
    a, b = a.astype(np.float64).ravel(), b.astype(np.float64).ravel()
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def _of_largest(a: np.ndarray, b: np.ndarray) -> float:
    """Largest difference of two equal-shaped arrays over their largest absolute value."""
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return float(np.abs(a.astype(np.float64) - b).max(initial=0.0) / scale) if scale else 0.0


def _values(a: Path, b: Path) -> tuple[dict, dict] | str:
    """The values of score or tensor files ``a`` and ``b`` by tensor name (one
    unnamed array for a score or SVF1 file), read with this repository's svkit;
    else why they cannot be compared by value, empty for another kind of file."""
    from svkit import tensorio
    from svkit.trials import load_scores

    if a.suffix == ".scores":
        sa, sb = load_scores(a), load_scores(b)
        if (sa.enroll, sa.test) != (sb.enroll, sb.test):
            return "the trial pairs differ"
        return {"": sa.scores}, {"": sb.scores}
    if a.suffix == ".svf":
        return {"": tensorio.read_feature_matrix(a)}, {"": tensorio.read_feature_matrix(b)}
    if a.suffix != ".svw":
        return ""
    ta, tb = tensorio.read_tensors(a), tensorio.read_tensors(b)
    if ta.keys() != tb.keys() or any(ta[k].shape != tb[k].shape for k in ta):
        return "the tensor names or shapes differ"
    return ta, tb


def how_far(a: Path, b: Path) -> str:
    """How far score or tensor file ``b`` moved from ``a``; an empty string for
    any other kind of file."""
    values = _values(a, b)
    if isinstance(values, str):
        return values
    ta, tb = values
    moved = {k: _largest(ta[k], tb[k]) for k in ta}
    if a.suffix == ".scores":
        return f"largest score difference {moved[''][0]:.3g} absolute, {moved[''][1]:.3g} relative"
    worst = max(moved, key=lambda k: moved[k][0])
    where = f" (tensor {worst!r})" if worst else ""
    return (f"largest tensor difference {moved[worst][0]:.3g} absolute{where}, "
            f"{max(rel for _, rel in moved.values()):.3g} relative")


def of_largest(name: str, parent: Path, change: Path) -> str:
    """The largest difference of score or tensor file ``name`` relative to the largest
    absolute value of the file or tensor, as a clause to follow ``describe``; an empty
    string when the two cannot be compared by value."""
    a, b = parent / name, change / name
    try:
        values = _values(a, b) if a.is_file() and b.is_file() else ""
    except ValueError:  # a file svkit rejects
        values = ""
    if isinstance(values, str):
        return ""
    ta, tb = values
    moved = {k: _of_largest(ta[k], tb[k]) for k in ta}
    worst = max(moved, key=moved.get)
    of = f"tensor {worst!r}" if worst else "the file"
    return f"; {moved[worst]:.3g} of the largest absolute value of {of}"


def describe(name: str, parent: Path, change: Path) -> str:
    """One line for the file ``name`` that the two work directories do not
    hold byte-identical."""
    a, b = parent / name, change / name
    if not a.is_file() or not b.is_file():
        return f"{name} is missing from the {'parent' if not a.is_file() else 'change'}"
    try:
        moved = how_far(a, b)
    except ValueError:  # a file svkit rejects
        moved = "one side cannot be read"
    return f"{name} differs" + (f": {moved}" if moved else "")


def files_of(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("trees", nargs=2, metavar="TREE", help="parent tree, then change tree")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # for how_far
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    child = ("import sys; sys.path.insert(0, sys.argv[1]); import same_outputs; "
             "same_outputs.run_workload(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5])")
    problems = []
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as scratch:
        for seed in args.seeds:
            for name in WORKLOADS:
                works = []
                for side, tree in zip(("parent", "change"), args.trees):
                    work = Path(scratch) / f"{side}-{name}-{seed}"
                    proc = subprocess.run(
                        [sys.executable, "-c", child, str(Path(__file__).resolve().parent),
                         tree, name, str(seed), str(work)],
                        env=env, capture_output=True, text=True)
                    if proc.returncode != 0:
                        problems.append(f"{side} {name} seed {seed}: exited {proc.returncode}\n"
                                        f"{proc.stderr}")
                        continue
                    problems += [f"{side} {name} seed {seed}: {failure}"
                                 for failure in json.loads(proc.stdout.splitlines()[-1])]
                    works.append(work)
                if len(works) == 2:
                    a, b = (files_of(work) for work in works)
                    problems += [f"{name} seed {seed}: {describe(f, *works)}"
                                 f"{of_largest(f, *works)}"
                                 for f in sorted(a.keys() | b.keys()) if a.get(f) != b.get(f)]
                    print(f"{name} seed {seed}: compared {len(a.keys() | b.keys())} files",
                          file=sys.stderr)
    for problem in problems:
        print(problem)
    print("same outputs, all checks passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
