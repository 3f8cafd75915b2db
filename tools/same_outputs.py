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
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def files_of(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("trees", nargs=2, metavar="TREE", help="parent tree, then change tree")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
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
                    works.append(files_of(work))
                if len(works) == 2:
                    a, b = works
                    problems += [f"{name} seed {seed}: {f} differs or is missing"
                                 for f in sorted(a.keys() | b.keys()) if a.get(f) != b.get(f)]
                    print(f"{name} seed {seed}: compared {len(a.keys() | b.keys())} files",
                          file=sys.stderr)
    for problem in problems:
        print(problem)
    print("same outputs, all checks passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
