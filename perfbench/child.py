"""One workload process, started by run.py with BLAS already pinned.

    child.py setup   --workload W --seed N --dir IN
    child.py measure --workload W --seed N --dir IN --work DIR --seconds S --trace 0|1
                     [--setups K]

``setup`` imports svkit and writes the seeded inputs into IN; ``measure``
runs the timed chain on them, and between its passes sets the workload up
K more times, each in a fresh ``setup`` process whose inputs must be
byte-identical to IN. Each prints one JSON object on its last line.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()  # before numpy and svkit load

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from svbench import checks, harness, workloads  # noqa: E402  (needs the path above)

T_IMPORTED = perf_counter()


def setup_again(args, k: int) -> tuple[float, float, bool]:
    """Set the workload up once more in a fresh process; (CPU seconds, wall
    seconds, identical)."""
    again = args.dir.parent / f"{args.dir.name}.again{k}"
    shutil.rmtree(again, ignore_errors=True)
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "setup", "--workload", args.workload,
             "--seed", str(args.seed), "--dir", str(again)],
            capture_output=True, text=True, timeout=120)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {k} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result["cpu_s"], result["wall_s"], checks.same_tree(args.dir, again)
    finally:
        shutil.rmtree(again, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--work", type=Path)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setups", type=int, default=0)
    args = p.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    if args.mode == "setup":
        args.dir.mkdir(parents=True)
        t0 = perf_counter()
        shape = workload.generate(args.dir, args.seed)
        result = {"cpu_s": harness.cpu_seconds(), "wall_s": perf_counter() - T_START,
                  "import_s": T_IMPORTED - T_START, "generate_s": perf_counter() - t0,
                  "shape": shape}
        (args.dir / "shape.json").write_text(json.dumps(shape), encoding="utf-8")
    else:
        shape = json.loads((args.dir / "shape.json").read_text(encoding="utf-8"))
        recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        expected = recorded.get(args.workload, {}).get(str(args.seed))
        result = harness.measure(workload, args.dir, args.work, shape, args.seed,
                                 args.seconds, bool(args.trace), expected,
                                 setups=args.setups, setup_again=lambda k: setup_again(args, k))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
