"""Run one workload: interleaved rounds of fresh children, checks, medians."""

from __future__ import annotations

import compileall
import concurrent.futures
import fcntl
import json
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import layers, workloads
from bench.child import process_parents
from bench.speed import ELASTICITY, SpeedProbe
from bench.workloads import COLUMNS, WORKERS

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CHILD_TIMEOUT_S = 150

#: ``(name, unit)``; every one is lower-is-better and bounded in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("run_s.reference", "s"), ("run_s.toil", "s"),
              ("run_s.parsl", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"))


def child_environment(tmpdir: Optional[str] = None) -> Dict[str, str]:
    root = workloads.repo_root()
    env = dict(os.environ)
    env.pop("REPRO_JOBCACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join([root, os.path.join(root, "src")])
    if tmpdir:
        env["TMPDIR"] = tmpdir
    return env


def build() -> None:
    """Byte-compile the program and the benchmark.

    A fresh checkout has no ``__pycache__``; where the environment also sets
    ``PYTHONDONTWRITEBYTECODE``, every child and every Python tool would
    compile ``repro`` from source on every start.  Up-to-date files are
    skipped, so after the first run this costs a few milliseconds.
    """
    root = workloads.repo_root()
    for tree in (os.path.join(root, "src", "repro"), os.path.join(root, "bench")):
        compileall.compile_dir(tree, quiet=2)


def _descendants(pid: int) -> List[int]:
    parents = process_parents()
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        children = [child for child, parent in parents.items() if parent == current]
        found += children
        frontier += children
    return found


def _stop(proc: "subprocess.Popen[Any]") -> None:
    """Kill a child and the tools it spawned (they lead their own sessions,
    so a group signal would miss them), then wait for the child."""
    for pid in _descendants(proc.pid) + [proc.pid]:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    proc.wait()


_FS_IOC_GETFLAGS, _FS_IOC_SETFLAGS, _FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_subdirectories(directory: str) -> bool:
    """``chattr +T``: let the filesystem place each new subdirectory of
    ``directory`` in a block group of its own choosing, not next to its siblings.

    The sandbox's root filesystem is ext4 without a journal.  There an inode
    deleted in the last one to six minutes is not handed out again, and every
    allocation in a block group scans past all of them: after a few children's
    scratch trees were removed, ``mkdir`` and file creation in the same group
    cost 5-10x more, for minutes, and a child's ``run_s`` depended on how much
    the harness had deleted before it started (toil on ``dag_warm``: 0.5 s or
    1.0 s).  With the hint ext4 picks the group by a hash of the new
    directory's name, so a child whose scratch directory has a name not used
    in the last minutes starts in a group nobody littered.  Other filesystems
    refuse or ignore it.
    """
    try:
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return False
    try:
        flags = bytearray(struct.calcsize("l"))
        fcntl.ioctl(fd, _FS_IOC_GETFLAGS, flags)
        wanted = struct.unpack("l", flags)[0] | _FS_TOPDIR_FL
        fcntl.ioctl(fd, _FS_IOC_SETFLAGS, struct.pack("l", wanted))
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class WorkloadRun:
    """State of one ``--workload`` invocation."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload = workload
        self.workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}-{workload}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.scratch_spread = spread_subdirectories(self.workdir)
        self.plan = workloads.generate(workload, seed, scale, self.workdir)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._children = 0

    # ------------------------------------------------------------ children

    def child(self, column: str, trace: bool = False, prime: bool = False) -> Dict[str, Any]:
        """Run one fresh child; returns its result with ``problems`` filled."""
        self._children += 1
        # The name picks the block group (see spread_subdirectories): the pid
        # keeps a run off the groups the runs before it have just littered.
        scratch = os.path.join(self.workdir, f"{column}-{os.getpid()}-{self._children}")
        tmpdir = os.path.join(scratch, "tmp")
        os.makedirs(tmpdir)
        cache = self.plan["cache"]
        primed = os.path.join(self.workdir, "primed-store")
        cache_dir = None
        if cache == "warm" and prime:
            cache_dir = primed
        elif cache == "warm":
            # Its own copy, on the filesystem of its scratch dirs.
            cache_dir = shutil.copytree(primed, os.path.join(scratch, "store"))
        elif cache == "cold":
            cache_dir = os.path.join(scratch, "store")
        job = {"workload": self.workload, "column": column, "workers": WORKERS,
               "spec": self.plan["specs"][column], "cache_dir": cache_dir, "trace": trace,
               "result": os.path.join(scratch, "result.json"),
               "trace_path": os.path.join(OUT_DIR, f"trace.{self.workload}.{column}.json")}
        job_path = os.path.join(scratch, "job.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)

        proc = subprocess.Popen([sys.executable, "-m", "bench.child", job_path], cwd=scratch,
                                env=child_environment(tmpdir), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _stop(proc)
            stderr = b"timed out"
        except BaseException:
            _stop(proc)
            raise
        try:
            with open(job["result"], encoding="utf-8") as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
            result = {"column": column, "error": f"exit {proc.returncode}: {' | '.join(tail)}"}

        plan = dict(self.plan, cache="cold") if prime and cache == "warm" else self.plan
        problems = workloads.check_invariants(plan, result)
        if not result["error"]:
            problems += workloads.check_outputs(plan, result["outputs"])
            problems += result.get("layers", {}).get("errors", [])
        checks = self.plan["jobs"] + self.plan["outputs"]
        self.attempted += checks
        self.failed += checks if result["error"] else min(len(problems), checks)
        self.problems += [f"{self.workload}/{column}: {p}" for p in problems]
        result["problems"] = problems
        shutil.rmtree(scratch, ignore_errors=True)
        return result

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ----------------------------------------------------- harness-side layers

    def bare_run_s(self) -> float:
        """The workload's tool command lines on a bare pool of W workers."""
        env = child_environment()
        bare_dir = os.path.join(self.workdir, "bare")

        def run_chain(chain: List[Dict[str, Any]]) -> None:
            for command in chain:
                with open(command.get("stdout") or os.devnull, "wb") as out:
                    subprocess.run(command["argv"], stdout=out, cwd=bare_dir, env=env,
                                   check=True)

        start = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
            for wave in self.plan["bare"]:
                list(pool.map(run_chain, wave))
        return time.perf_counter() - start

    def machine_layers(self) -> Dict[str, float]:
        env = child_environment()
        imports = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.imaging.cli"], env=env,
                           check=True)
            imports.append(time.perf_counter() - start)
        # 200 distinct directories, removal untimed: on this filesystem a
        # removed inode slows the next allocations in its block group.
        probe = os.path.join(self.workdir, f"mkdir-probe-{os.getpid()}")
        os.mkdir(probe)
        names = [os.path.join(probe, str(index)) for index in range(200)]
        start = time.perf_counter()
        for name in names:
            os.mkdir(name)
        mkdir_us = (time.perf_counter() - start) / 200 * 1e6
        shutil.rmtree(probe)
        start = time.perf_counter()
        for _ in range(50):
            subprocess.run(["true"], check=True)
        spawn_us = (time.perf_counter() - start) / 50 * 1e6
        # A floor: the better of two runs, so one noisy run cannot put it above run_s.
        return {"bare.run_s": min(self.bare_run_s(), self.bare_run_s()),
                "tool.import_s": statistics.median(imports),
                "env.mkdir_us": mkdir_us, "env.spawn_us": spawn_us}

    def hardlink_ok(self) -> bool:
        """Store and scratch dirs share ``workdir``; hardlink staging between
        them must not silently fall back to copying."""
        source = os.path.join(self.workdir, "link-probe")
        with open(source, "w", encoding="ascii"):
            pass
        try:
            os.link(source, source + ".2")
        except OSError:
            return False
        finally:
            os.unlink(source)
        os.unlink(source + ".2")
        return True


def _end_to_end_sample(round_: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    sample = {"setup_s": sum(r["setup_s"] for r in round_.values()),
              "wall_s": sum(r["wall_s"] for r in round_.values()),
              "cpu_s": sum(r["cpu_s"] for r in round_.values()),
              "peak_rss_mb": max(r["peak_rss_mb"] for r in round_.values())}
    sample.update({f"run_s.{column}": r["run_s"] for column, r in round_.items()})
    return sample


def _layer_metrics(run: WorkloadRun, plain: List[Dict[str, Dict[str, Any]]],
                   traced: List[Dict[str, Dict[str, Any]]]) -> Dict[str, float]:
    values: Dict[str, float] = {}
    missing = set()
    for column in COLUMNS:
        results = [round_[column] for round_ in traced if "layers" in round_[column]]
        names = set().union(*(r["layers"]["metrics"] for r in results)) if results else ()
        for name in names:
            values[f"{name}.{column}"] = statistics.median(
                r["layers"]["metrics"][name] for r in results)
        for result in results:
            missing.update(result["layers"]["missing"])
        if results:
            values[f"exec.spawns.{column}"] = statistics.median(r["spawns"] for r in results)
            stats = results[0]["cache_stats"] or {"hits": 0, "misses": 0}
            values[f"cache.hit_ratio.{column}"] = \
                stats["hits"] / max(1, stats["hits"] + stats["misses"])
        base = [round_[column]["run_s"] for round_ in plain if not round_[column]["error"]]
        if results and base:
            untraced = statistics.median(base)
            values[f"trace.overhead_share.{column}"] = \
                (statistics.median(r["run_s"] for r in results) - untraced) / untraced
    imports = [r["import_s"] for round_ in traced for r in round_.values() if "import_s" in r]
    if imports:
        values["import.repro_s"] = statistics.median(imports)
    values["trace.targets_missing"] = len(missing)
    values.update(run.machine_layers())
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", repeats: Optional[int] = None) -> Dict[str, Any]:
    """Measure one workload for about ``seconds`` (or exactly ``repeats`` rounds)."""
    build()
    load = os.getloadavg()[0]
    run = WorkloadRun(workload, seed, scale)
    probe: Optional[SpeedProbe] = None
    try:
        environment = {"nproc": os.cpu_count(), "workers": WORKERS,
                       "python": platform.python_version(), "loadavg_1m": load,
                       "noisy": load > (os.cpu_count() or 1),
                       "hardlink_ok": run.hardlink_ok(),
                       "scratch_spread": run.scratch_spread}
        # Discarded: absorbs byte-compilation and page-cache misses, and on
        # dag_warm primes the store every timed child copies.
        run.child(COLUMNS[0], prime=True)
        probe = SpeedProbe()

        def timed_round(trace_round: bool) -> Dict[str, Dict[str, Any]]:
            """One fresh child per column, a host-speed reading after each."""
            results = {}
            for column in COLUMNS:
                results[column] = run.child(column, trace=trace_round)
                probe.measure()
            return results

        plain: List[Dict[str, Dict[str, Any]]] = []
        traced: List[Dict[str, Dict[str, Any]]] = []
        started = time.monotonic()
        longest = 0.0
        probe.measure()
        while True:
            round_started = time.monotonic()
            plain.append(timed_round(False))
            if trace:
                traced.append(timed_round(True))
            longest = max(longest, time.monotonic() - round_started)
            if repeats and len(plain) >= repeats:
                break
            if not repeats and time.monotonic() - started + longest > seconds:
                break
        slowdown = probe.slowdown()
        divisor = slowdown ** ELASTICITY

        samples = [_end_to_end_sample(round_) for round_ in plain
                   if not any(r["error"] for r in round_.values())]
        for round_ in plain + traced:
            described = [r["outputs"] for r in round_.values() if not r["error"]]
            if any(d != described[0] for d in described[1:]):
                run.failed += 1
                run.problems.append(f"{workload}: outputs differ between columns")

        # Times are reported at nominal host speed (bench/speed.py); memory is not.
        scaled = {name: [s[name] / (divisor if unit == "s" else 1.0) for s in samples]
                  for name, unit in END_TO_END}
        end_to_end: Dict[str, Dict[str, Any]] = {}
        per_layer: Dict[str, Dict[str, Any]] = {}
        if samples:
            for name, unit in END_TO_END:
                q1, median, q3 = quartiles(scaled[name])
                end_to_end[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                                    "n": len(samples),
                                    "as_timed": statistics.median(s[name] for s in samples)}
        if trace:
            values = _layer_metrics(run, plain, traced)
            values["env.speed_factor"] = slowdown
            for entry in layers.per_layer_metrics():
                # A layer the workload bypasses, or whose targets are gone,
                # reads 0; trace.targets_missing tells the two apart.
                per_layer[entry["name"]] = {"value": values.get(entry["name"], 0.0),
                                            "unit": entry["unit"]}
        return {"workload": workload, "seed": seed, "scale": scale, "traced": trace,
                "rounds": len(plain), "jobs": run.plan["jobs"], "environment": environment,
                "speed_factor": slowdown, "time_divisor": divisor, "spin_s": probe.readings,
                "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
                "correct": run.failed == 0 and bool(end_to_end),
                "end_to_end": end_to_end, "per_layer": per_layer, "samples": scaled}
    finally:
        if probe:
            probe.close()
        run.close()
