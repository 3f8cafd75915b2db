"""Record the ``svkit eval`` line of each evaluating workload for a range of seeds.

    python3 perfbench/record.py --first 0 --count 40

Run from the repository root. Writes ``perfbench/expected.json``; a
benchmark run whose seed is listed there fails a check unless ``eval``
prints exactly the recorded line. Re-record only with a change that is
meant to alter scores, and say so in the change.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as run.py does for its children

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from svbench import harness, workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--count", type=int, default=40)
    args = p.parse_args()
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        if not workload.metrics_file:
            continue
        table = {}
        for seed in range(args.first, args.first + args.count):
            work = HERE.parent / ".perfbench_work" / f"record-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            (work / "in").mkdir(parents=True)
            (work / "out").mkdir()
            try:
                workload.generate(work / "in", seed)
                done, log = harness.run_chain(workload.steps(work / "in", work / "out"))
                if done[-1][-1] != 0:
                    print(f"{name} seed {seed}: step {done[-1][0]} failed\n{log}", file=sys.stderr)
                    return 1
                table[str(seed)] = (work / "out" / workload.metrics_file).read_text(
                    encoding="utf-8").strip()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} {seed} {table[str(seed)]}", flush=True)
        recorded[name] = table
    (HERE / "expected.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
