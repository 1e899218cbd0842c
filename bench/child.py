"""One workload on one engine column, in a fresh process.

``python3 -m bench.child job.json`` reads the job the harness wrote, runs it
through the column's public API, and writes what it measured to the job's
``result`` path.  Nothing here decides whether the outputs are *right*: the
child only reports what it found; the harness compares.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from bench.workloads import describe_output


def _count_spawns() -> Callable[[], int]:
    """Count every ``subprocess.Popen`` (asyncio subprocesses use it too)."""
    counter = itertools.count()
    original = subprocess.Popen.__init__

    def counting_init(self: Any, *args: Any, **kwargs: Any) -> None:
        next(counter)
        original(self, *args, **kwargs)

    subprocess.Popen.__init__ = counting_init  # type: ignore[method-assign]
    return lambda: next(counter)


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def process_parents() -> Dict[int, int]:
    """pid -> parent pid of every live process (from ``/proc/<pid>/stat``)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    parents[int(entry)] = int(handle.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                pass  # exited while we were listing
    return parents


class _Run:
    """The column-specific halves of one child: set up, run, close."""

    def __init__(self, job: Dict[str, Any]) -> None:
        import repro

        self.repro = repro
        self.spec = job["spec"]
        self.column = job["column"]
        self.workers = job["workers"]
        self.cache_dir = job["cache_dir"]
        self.session = None
        self.jobs_run = 0
        self.cache_stats: Any = None
        #: Output id (or position) -> path, filled by :meth:`run`.
        self.outputs: Any = None

    def set_up(self) -> None:
        repro, spec = self.repro, self.spec
        if self.column == "parsl":
            repro.load(repro.thread_config(max_threads=self.workers))
        if spec["mode"] in ("workflow", "tool_loop"):
            options: Dict[str, Any] = {}
            if self.column == "reference":
                options.update(parallel=True, max_workers=self.workers)
            elif self.column == "toil":
                options.update(max_workers=self.workers)
            if self.cache_dir:
                options["cache_dir"] = self.cache_dir
            self.session = repro.api.Session(self.column, **options)
            self.process = repro.api.Engine.load_process(spec["doc"])
        elif spec["mode"] == "app_loop":
            self.apps = [repro.CWLApp(spec["doc"])]
        else:
            self.apps = [repro.CWLApp(os.path.join(spec["cwl_dir"], f"{stage}_image.cwl"))
                         for stage in ("resize", "filter", "blur")]

    def _note(self, result: Any) -> None:
        self.jobs_run += result.jobs_run
        if result.cache_stats is not None:
            stats = self.cache_stats or {"hits": 0, "misses": 0}
            self.cache_stats = {key: stats[key] + result.cache_stats[key] for key in stats}

    def run(self) -> None:
        spec = self.spec
        if spec["mode"] == "workflow":
            result = self.session.run(self.process, spec["order"])
            self._note(result)
            key = spec.get("output_key")
            self.outputs = result.outputs[key] if key else result.outputs
        elif spec["mode"] == "tool_loop":
            self.outputs = []
            for message in spec["messages"]:
                result = self.session.run(self.process, {"message": message})
                self._note(result)
                self.outputs.append(result.outputs["output"])
        elif spec["mode"] == "app_loop":
            self.outputs = []
            for index, message in enumerate(spec["messages"]):
                future = self.apps[0](message=message, stdout=f"out_{index}.txt")
                future.result()
                self.jobs_run += 1
                self.outputs.append(os.path.abspath(f"out_{index}.txt"))
        else:
            resize, filt, blur = self.apps
            finals = []
            for index, image in enumerate(spec["images"]):
                resized = resize(input_image=image, size=spec["size"],
                                 output_image=f"resized_{index}.png")
                filtered = filt(input_image=resized.outputs[0], sepia=spec["sepia"],
                                output_image=f"filtered_{index}.png")
                finals.append(blur(input_image=filtered.outputs[0], radius=spec["radius"],
                                   output_image=f"blurred_{index}.png"))
            concurrent.futures.wait(finals)
            for future in finals:
                future.result()
            self.jobs_run = 3 * len(finals)
            self.outputs = [os.path.abspath(f"blurred_{i}.png") for i in range(len(finals))]

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self.column == "parsl":
            self.repro.clear()


def _describe(outputs: Any) -> Any:
    """Reduce an output object to content hashes, keeping its shape."""
    if isinstance(outputs, dict) and outputs.get("class") == "File":
        return describe_output(outputs["path"])
    if isinstance(outputs, dict):
        return {key: _describe(value) for key, value in outputs.items()}
    if isinstance(outputs, list):
        return [_describe(value) for value in outputs]
    if isinstance(outputs, str):
        return describe_output(outputs)
    return outputs


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    tools = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + tools.ru_utime + tools.ru_stime


def main(argv: List[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        job = json.load(handle)
    spawns = _count_spawns()
    result: Dict[str, Any] = {"column": job["column"], "error": None}

    started = time.perf_counter()
    import repro  # noqa: F401  (timed: this is what a CLI user waits for first)
    imported = time.perf_counter()
    result["import_s"] = imported - started

    tracer = None
    if job["trace"]:
        from bench import layers
        from bench.trace import Tracer

        tracer = Tracer()
        layers.install(tracer)
        from repro.cwl.expressions.compiler import compile_cache_stats

    run = _Run(job)
    window: Tuple[float, float] = (0.0, 0.0)
    try:
        run.set_up()
        ready = time.perf_counter()
        if tracer:
            compiled_before, cpu_before = compile_cache_stats(), time.process_time()
        run.run()
        done = time.perf_counter()
        if tracer:
            run_cpu_s = time.process_time() - cpu_before
            compiled_after = compile_cache_stats()
        window = (ready, done)
        result.update(setup_s=ready - started, run_s=done - ready)
    except Exception as exc:  # reported, not raised: the harness counts it
        result["error"] = f"{type(exc).__name__}: {exc}"
    try:
        run.close()
    except Exception as exc:
        result["error"] = result["error"] or f"close: {type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - started
    result["cpu_s"] = _cpu_s()
    result["peak_rss_mb"] = _peak_rss_mb()

    # Untimed from here on.
    result["spawns"] = spawns()
    result["jobs_run"] = run.jobs_run
    result["cache_stats"] = run.cache_stats
    result["surviving_children"] = [pid for pid, parent in process_parents().items()
                                    if parent == os.getpid()]
    tmpdir = os.environ["TMPDIR"]
    result["leftover_scratch"] = sorted(
        name for name in os.listdir(tmpdir)
        if name.startswith(("cwl-tmp-", "toil-jobstore-")))
    if result["error"] is None:
        try:
            result["outputs"] = _describe(run.outputs)
        except OSError as exc:
            result["error"] = f"output unreadable: {exc}"

    if tracer and result["error"] is None:
        summary = layers.summarise(tracer, job["column"], job["workload"], window,
                                   run_cpu_s, threading.main_thread().ident)
        lookups = sum(compiled_after[k] - compiled_before[k] for k in ("hits", "misses"))
        summary["metrics"]["expr.compile_hit_ratio"] = \
            (compiled_after["hits"] - compiled_before["hits"]) / lookups if lookups else 0.0
        result["layers"] = summary
        with open(job["trace_path"], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)

    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
