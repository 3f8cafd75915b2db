"""svkit benchmark: seeded workloads through the CLI chain, timed and checked.

    python3 perfbench/run.py --workload plda_score --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the repository root; it needs ``src/svkit``. A run writes the
workload's inputs in a fresh process, then times the chain in another
fresh process with BLAS pinned to one thread before numpy loads. Between
the timed passes that process sets the workload up four more times, each
in a fresh process whose inputs must be byte-identical to the first copy.
Times are CPU seconds (user and system) of the process doing the work.
The chain is one caller on one thread, so on an unshared machine its CPU
time is its wall time. On a shared VM, wall time also holds the time the
hypervisor gives the vCPU to other guests (steal), which the kernel leaves
out of CPU time. Chain time is the median over the timed passes, set-up
time the median of the five set-ups, which are spread over the same
stretch of time as the passes. Wall times are printed beside them. The
work directory under ``.perfbench_work`` is removed at the end.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. The lines above it
give the workload's shape and every metric by name and unit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from svbench.tracing import PER_LAYER  # noqa: E402  (stdlib only; numpy stays unloaded)

WORKLOADS = ("audio_2sys", "plda_score", "plda_train")
END_TO_END = (("setup_s", "s"), ("chain_cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("items_per_cpu_s", "1/s"))
SETUP_REPEATS = 5  # one before the timed loop, the rest between its passes
BLAS_THREADS = "1"
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class ChildError(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run child.py in a fresh process with BLAS pinned; its JSON result.

    The child gets a session of its own, so on a timeout the set-up
    processes it started are stopped with it.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{args[0]} timed out") from exc
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", name, "--seed", str(seed)]
    try:
        setup = child(["setup", *common, "--dir", str(work / "in")], deadline)
        result = child(["measure", *common, "--dir", str(work / "in"),
                        "--work", str(work / "runs"), "--seconds", str(seconds),
                        "--trace", str(int(trace)), "--setups", str(SETUP_REPEATS - 1)],
                       deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    result["setup_times"].insert(0, setup["cpu_s"])
    result["setup_walls"].insert(0, setup["wall_s"])
    result["shape"] = setup["shape"]
    return result


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def metrics_of(result: dict, trace: bool) -> dict[str, dict]:
    """The run's metrics: medians over the timed passes and over the set-ups."""
    if trace:
        layers = result["layers"]
        return {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
    item_cpu = _median(result["item_cpus"])
    values = {
        "setup_s": _median(result["setup_times"]),
        "chain_cpu_s": _median(result["cpus"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "items_per_cpu_s": result["items"] / item_cpu if item_cpu else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def report(name: str, seed: int, result: dict, metrics: dict) -> None:
    """Human-readable block: shape row, every metric by name and unit, failures."""
    shape = dict(result["shape"], workload=name, blas_threads=int(BLAS_THREADS),
                 os_threads=result["os_threads"])
    print(f"# {name} seed={seed}")
    print("shape " + json.dumps(shape))
    print("passes {}".format(result["passes"]))
    for key in ("cpus", "walls", "item_cpus", "item_walls", "setup_times", "setup_walls"):
        print(f"  {key:12s} {json.dumps([round(t, 4) for t in result[key]])}")
    rows = [(m, v["value"], v["unit"]) for m, v in metrics.items()]
    if "chain_cpu_s" in metrics:  # the same figures in wall time, as a user on this host saw them
        item_wall = _median(result["item_walls"])
        rows += [("wall_s", _median(result["walls"]), "s"),
                 (result["item_unit"], result["items"] / item_wall if item_wall else 0.0, "1/s")]
    units = dict(PER_LAYER)
    rows += [(m, v, units[m]) for m, v in result["quality"].items() if m not in metrics]
    failed = len(result["failures"])
    rows.append(("failed_ratio", failed / max(result["attempted"], 1), "ratio"))
    for metric, value, unit in rows:
        print(f"  {metric:36s} {value:14.6g} {unit}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "svkit" / "__init__.py").is_file():
        print(f"error: no svkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except ChildError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        own = metrics_of(result, bool(args.trace))
        report(name, args.seed, result, own)
        attempted += result["attempted"]
        failed += len(result["failures"])
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: v for m, v in own.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
