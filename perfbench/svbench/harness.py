"""The timed loop of one workload run, its checks and its per-layer numbers.

The chain runs back to back (a closed loop with one caller) until the time
budget is spent. The first pass warms caches and is checked against the
scalar references; it is not timed. Every later pass must write outputs
byte-identical to the first. With tracing on, later passes alternate
between untraced and traced, so the tracing overhead is the difference of
their median CPU times. After each pass, while set-up repeats remain, the
workload is set up once more (``setup_again``), so set-up times are sampled
across the same stretch of time as the passes.
"""

import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from . import checks
from .tracing import PER_LAYER, Tracer
from .workloads import run_step


class Tally:
    """Attempted steps and checks, and the names of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def add_checks(self, name: str, run) -> None:
        """Add the checks ``run()`` returns; an exception fails the whole group."""
        try:
            results = run()
        except Exception:  # a check that cannot run is a failed check
            traceback.print_exc()
            self.add(name, False)
            return
        for check_name, ok in results:
            self.add(check_name, ok)


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children, user and system.

    On a paravirtualised guest that accounts steal time, the kernel leaves out
    of it the time the hypervisor gave this vCPU to other guests.
    """
    own, children = (resource.getrusage(who)
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_chain(steps, tracer: Tracer | None = None):
    """Run the steps in order, stopping at the first non-zero exit.

    Returns ``(name, wall seconds, CPU seconds, exit code)`` per step run and
    the captured output of the step that failed.
    """
    done = []
    for step in steps:
        t0, c0 = perf_counter(), cpu_seconds()
        if tracer is None:
            code, log = run_step(step)
        else:
            with tracer.step(step.name):
                code, log = run_step(step)
        done.append((step.name, perf_counter() - t0, cpu_seconds() - c0, code))
        if code != 0:
            return done, log
    return done, ""


def os_threads() -> int:
    """Threads of this process as the OS sees them (0 where it cannot tell)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def measure(workload, in_dir: Path, work_dir: Path, shape: dict, seed: int,
            seconds: float, trace: bool, expected_metrics: str | None = None,
            setups: int = 0, setup_again=None) -> dict:
    """Run the chain until ``seconds`` are spent and at least a few passes are
    timed; ``setup_again(k)`` returns (set-up CPU seconds, wall seconds,
    inputs identical)."""
    tally = Tally()
    setup_times: list[float] = []
    setup_walls: list[float] = []
    setups_done = 0

    def set_up_once_more() -> None:
        nonlocal setups_done
        setups_done += 1
        try:
            cpu, wall, identical = setup_again(setups_done)
        except Exception:  # a set-up that fails is a failed check
            traceback.print_exc()
            tally.add(f"setup.{setups_done}", False)
            return
        tally.add(f"setup.identical_inputs.{setups_done}", identical)
        setup_times.append(cpu)
        setup_walls.append(wall)

    ref, cur = work_dir / "run0", work_dir / "run1"
    min_passes = 5 if trace else 4
    walls, cpus, item_walls, item_cpus = [], [], [], []
    traced_cpus, layer_rows = [], []
    quality: dict[str, float] = {}
    start = perf_counter()
    k = 0
    while True:
        out = ref if k == 0 else cur
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        tracer = Tracer() if trace and k % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            done, log = run_chain(workload.steps(in_dir, out), tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for name, _, _, code in done:
            tally.add(f"step.{name}", code == 0)
        if done[-1][-1] != 0:
            sys.stderr.write(f"step {done[-1][0]} exited {done[-1][-1]}:\n{log}\n")
            break
        wall = sum(t for _, t, _, _ in done)
        if k == 0:
            tally.add_checks("check", lambda: workload.check(in_dir, out, seed))
            try:
                quality = workload.quality(in_dir, out)
            except Exception:  # unreadable outputs are a failed check
                traceback.print_exc()
                tally.add("quality", False)
            if workload.metrics_file and expected_metrics is not None:
                got = (out / workload.metrics_file).read_text(encoding="utf-8").strip()
                tally.add("eval.recorded_metrics", got == expected_metrics)
            elif workload.metrics_file:
                sys.stderr.write(f"seed {seed} has no recorded eval line; the line is "
                                 "checked against the reference computation only\n")
        else:
            tally.add_checks("rerun", lambda: checks.check_identical(
                "rerun", ref, out, workload.outputs))
            if tracer is not None:
                traced_cpus.append(sum(c for _, _, c, _ in done))
                layer_rows.append(tracer.layer_metrics())
            else:
                walls.append(wall)
                cpus.append(sum(c for _, _, c, _ in done))
                item_times = [(t, c) for name, t, c, _ in done
                              if workload.item_steps is None or name in workload.item_steps]
                item_walls.append(sum(t for t, _ in item_times))
                item_cpus.append(sum(c for _, c in item_times))
        k += 1
        if setups_done < setups:
            set_up_once_more()
        if k >= min_passes and perf_counter() - start + wall > seconds:
            break
    while setups_done < setups:
        set_up_once_more()

    layers = {}
    if layer_rows:
        layers = {name: statistics.median(row[name] for row in layer_rows)
                  for name, _ in PER_LAYER}
        layers.update(quality)
        cohort_utts = workload.cohort_utts(shape)
        if cohort_utts:
            layers["scorenorm.cohort_vectors_per_utt"] = (
                layers["scorenorm.cohort_scores.calls"] / cohort_utts)
        layers["trace.overhead_s"] = statistics.median(traced_cpus) - statistics.median(cpus)
        layers["process.os_threads"] = os_threads()
    return {
        "attempted": tally.attempted, "failures": tally.failures, "passes": k,
        "walls": walls, "cpus": cpus, "item_walls": item_walls, "item_cpus": item_cpus,
        "traced_cpus": traced_cpus,
        "setup_times": setup_times, "setup_walls": setup_walls,
        "items": workload.items(shape), "item_unit": workload.item_unit,
        "quality": quality, "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "os_threads": os_threads(),
    }
