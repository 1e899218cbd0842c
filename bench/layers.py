"""Layer table: which public functions make up which layer, and the metrics.

This file fixes the per-layer metric *names* every later change quotes.  A
layer's time is the summed self time (span minus same-thread child spans) of
its targets over the child's lifetime; ``bench/README.md`` says which
end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from bench.trace import Tracer
from bench.workloads import COLUMNS, WORKERS

RUNNERS = ("reference", "toil")


class Layer(NamedTuple):
    time_metric: str
    count_metric: Optional[str]
    columns: Sequence[str]
    #: Targets that are timed and, when ``count_metric`` is set, counted.
    counted: Sequence[str]
    #: Targets that are timed only.
    timed: Sequence[str] = ()
    #: Workloads on which every column of the layer must record a call.
    expected_on: Sequence[str] = ()


_JOB = "repro.cwl.job:CommandLineJob."
_CTX = "repro.cwl.runtime:RuntimeContext."
_CACHE = "repro.cwl.jobcache:"
_STORE = "repro.cwl.runners.toil.jobstore:FileJobStore."
_EVAL = "repro.cwl.expressions.evaluator:ExpressionEvaluator."
_COMPILED = "repro.cwl.expressions.compiler:CompiledEvaluator."
_APP = "repro.core.cwl_app:"
_ALL = ("fig1_images", "fig2_words", "dag_cold", "dag_warm")
_DAG = ("dag_cold", "dag_warm")
#: Where tools really run (on dag_warm the toil column restores before staging).
_EXECUTING = ("fig1_images", "fig2_words", "dag_cold")

LAYERS: Tuple[Layer, ...] = (
    Layer("engine.start_s", None, COLUMNS, [
        "repro.parsl:load", "repro.parsl.dataflow.dflow:DataFlowKernelLoader.load",
        "repro.api.session:Session.__init__",
        "repro.cwl.runners.toil.runner:ToilStyleRunner.__init__",
        _STORE + "__init__"], expected_on=_ALL),
    Layer("engine.close_s", None, COLUMNS, [
        "repro.api.session:Session.close",
        "repro.parsl.dataflow.dflow:DataFlowKernel.cleanup",
        "repro.cwl.runners.toil.runner:ToilStyleRunner.close", _CTX + "close"],
        expected_on=_ALL),
    Layer("load.busy_s", None, COLUMNS, [
        "repro.cwl.loader:load_document", "repro.cwl.loader:load_document_cached",
        "repro.cwl.validate:validate_process", "repro.cwl.validate:ensure_valid",
        "repro.cwl.expressions.compiler:precompile_process"], expected_on=_ALL),
    Layer("graph.busy_s", None, COLUMNS, [
        "repro.cwl.graph:build_graph", "repro.api.plan:describe_workflow",
        "repro.cwl.graph:find_step_cycle"], expected_on=_DAG),
    # Thread-CPU self time: the dispatcher's wall time is mostly waiting.
    Layer("sched.busy_s", None, RUNNERS, [
        "repro.cwl.scheduler:GraphScheduler.run", "repro.cwl.scheduler:PipelineScheduler.run",
        "repro.cwl.workflow:WorkflowEngine.run"], expected_on=_DAG),
    Layer("expr.busy_s", "expr.evals", COLUMNS, [
        _EVAL + "evaluate", _COMPILED + "evaluate",
        "repro.core.inline_python:InlinePythonEvaluator.evaluate"],
        [_EVAL + "evaluate_structure", _COMPILED + "evaluate_structure"],
        expected_on=("fig2_words",)),
    Layer("cmdline.busy_s", None, COLUMNS, [
        "repro.cwl.command_line:build_command_line", "repro.cwl.command_line:fill_in_defaults",
        _APP + "cwl_tool_command"], expected_on=_EXECUTING),
    Layer("stage.busy_s", None, RUNNERS, [_JOB + "stage_execution"], expected_on=_EXECUTING),
    Layer("dirs.busy_s", "dirs.created", COLUMNS, [
        _CTX + "make_job_dir", _CTX + "make_tmpdir", _CTX + "ensure_outdir"],
        [_CTX + "cleanup_dir"]),
    Layer("exec.busy_s", None, COLUMNS, [
        _JOB + "launch", _JOB + "launch_async", _JOB + "execute",
        _APP + "cached_bash_executor", _APP + "resilient_bash_executor",
        # What CWLApp submits when neither cache nor retries are attached.
        "repro.parsl.apps.bash:remote_side_bash_executor"], expected_on=_EXECUTING),
    Layer("collect.busy_s", None, COLUMNS, [
        _JOB + "collect_execution", "repro.cwl.outputs:collect_outputs",
        "repro.cwl.outputs:collect_output", "repro.cwl.outputs:stage_outputs"]),
    Layer("cache.key_s", "cache.files_hashed", COLUMNS, [
        _CACHE + "file_fingerprint", _CACHE + "directory_fingerprint"],
        [_CACHE + "job_key", _CACHE + "tool_fingerprint"], expected_on=_DAG),
    Layer("cache.probe_s", None, COLUMNS, [
        _CACHE + "JobCache.lookup", _JOB + "cached_result"], expected_on=_DAG),
    Layer("cache.restore_s", None, COLUMNS, [
        _CACHE + "JobCache.restore", _CACHE + "stage_file"], expected_on=("dag_warm",)),
    Layer("cache.publish_s", None, COLUMNS, [
        _CACHE + "JobCache.store_files", _CACHE + "JobCache.store_outdir",
        _CACHE + "JobCache.ingest_file"], expected_on=("dag_cold",)),
    Layer("events.busy_s", "events.count", COLUMNS, [
        "repro.api.events:EventRecorder.job_started",
        "repro.api.events:EventRecorder.job_finished",
        "repro.api.events:EventRecorder.job_retry"]),
    Layer("toil.jobstore_s", "toil.jobstore_ops", ("toil",), [
        _STORE + "create_job", _STORE + "update_job", _STORE + "load_job",
        _STORE + "delete_job", _STORE + "import_file", _STORE + "export_file"],
        expected_on=_ALL),
    Layer("toil.batch_s", None, ("toil",), [
        "repro.cwl.runners.toil.batch:SingleMachineBatchSystem.issue"],
        expected_on=_EXECUTING),
    Layer("parsl.submit_s", "parsl.tasks", ("parsl",), [
        "repro.parsl.dataflow.dflow:DataFlowKernel.submit"],
        ["repro.parsl.executors.threads:ThreadPoolExecutor.submit"], expected_on=_ALL),
    Layer("parsl.app_s", None, ("parsl",), [
        _APP + "CWLApp.__call__", "repro.core.runner:run_tool_with_parsl"], expected_on=_ALL),
    Layer("parsl.bridge_s", None, ("parsl",), [
        "repro.core.workflow_bridge:CWLWorkflowBridge.submit",
        "repro.core.workflow_bridge:CWLWorkflowBridge.run"], expected_on=_DAG),
)

#: Shared primitives: hardlink-or-copy staging serves cache restore, cache
#: publish, output collection and the Toil job store alike, so its self time
#: goes to the layer of the span that called it (its own layer if none did).
INHERITING = (_CACHE + "stage_file",)

#: Metrics that do not come from one layer's spans: ``(name, unit, better, columns)``.
_DERIVED = (
    ("import.repro_s", "s", "lower", None),
    ("workers.idle_share", "ratio", "lower", COLUMNS),
    ("expr.compile_hit_ratio", "ratio", "higher", ("toil", "parsl")),
    ("exec.spawns", "count", "lower", COLUMNS),
    ("cache.hit_ratio", "ratio", "higher", COLUMNS),
    ("bare.run_s", "s", "lower", None),
    ("tool.import_s", "s", "lower", None),
    ("env.mkdir_us", "us", "lower", None),
    ("env.spawn_us", "us", "lower", None),
    ("env.speed_factor", "ratio", "lower", None),
    ("trace.unattributed_share", "ratio", "lower", COLUMNS),
    ("trace.overhead_share", "ratio", "lower", COLUMNS),
    ("trace.targets_missing", "count", "lower", None),
)


def per_layer_metrics() -> List[Dict[str, str]]:
    """Every per-layer metric, in BENCHMARK.json's ``per_layer`` shape."""
    listed: List[Dict[str, str]] = []

    def add(name: str, unit: str, better: str, columns: Optional[Sequence[str]]) -> None:
        for full in ([name] if columns is None else [f"{name}.{c}" for c in columns]):
            listed.append({"name": full, "unit": unit, "better": better})

    for layer in LAYERS:
        add(layer.time_metric, "s", "lower", layer.columns)
        if layer.count_metric:
            add(layer.count_metric, "count", "lower", layer.columns)
    for name, unit, better, columns in _DERIVED:
        add(name, unit, better, columns)
    return listed


def _has_expression(_self: Any, value: Any = None, *_rest: Any, **_kw: Any) -> bool:
    """Count an ``evaluate`` call only when its string holds an expression;
    the command-line builder also passes every literal through it."""
    return isinstance(value, str) and ("$(" in value or "${" in value)


def _never(*_args: Any, **_kwargs: Any) -> bool:
    return False


_COUNT_IF = {_EVAL + "evaluate": _has_expression, _COMPILED + "evaluate": _has_expression}


def install(tracer: Tracer) -> None:
    """Wrap every target of every layer (all columns share one patched tree)."""
    for layer in LAYERS:
        for target in layer.counted:
            tracer.install(target, _COUNT_IF.get(target))
        for target in layer.timed:
            tracer.install(target, _never)


def summarise(tracer: Tracer, column: str, workload: str, window: Tuple[float, float],
              run_cpu_s: float, main_thread: int) -> Dict[str, Any]:
    """Per-layer numbers of one traced child (metric name without column)."""
    own = tracer.self_times()
    index_of = {target: index for index, target in enumerate(tracer.targets)}
    layer_of = {index_of[target]: number for number, layer in enumerate(LAYERS)
                for target in (*layer.counted, *layer.timed) if target in index_of}
    inheriting = {index_of[target] for target in INHERITING if target in index_of}
    by_id = {span[0]: span for span in tracer.spans}
    wall = [0.0] * len(LAYERS)
    cpu = [0.0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    counts = [0] * len(LAYERS)
    attributed_cpu = 0.0
    for sid, target, parent, _thread, start, _end, _cpu, counted in tracer.spans:
        while target in inheriting and parent in by_id:
            _, target, parent = by_id[parent][:3]
        number = layer_of[target]
        self_wall, self_cpu = own[sid]
        wall[number] += self_wall
        cpu[number] += self_cpu
        calls[number] += 1
        counts[number] += bool(counted)
        if window[0] <= start <= window[1]:
            attributed_cpu += self_cpu

    metrics: Dict[str, Any] = {}
    errors: List[str] = []
    for number, layer in enumerate(LAYERS):
        if column not in layer.columns:
            continue
        metrics[layer.time_metric] = cpu[number] if layer.time_metric == "sched.busy_s" \
            else wall[number]
        if layer.count_metric:
            metrics[layer.count_metric] = counts[number]
        resolved = any(tracer.patched.get(t) for t in (*layer.counted, *layer.timed))
        if resolved and workload in layer.expected_on and not calls[number]:
            errors.append(f"layer {layer.time_metric} recorded no call on {workload}/{column}")

    run_s = window[1] - window[0]
    worker_busy = sum(duration for thread, duration in tracer.root_durations().items()
                      if thread != main_thread)
    metrics["workers.idle_share"] = 1.0 - worker_busy / (WORKERS * run_s)
    metrics["trace.unattributed_share"] = (run_cpu_s - attributed_cpu) / run_cpu_s
    return {"metrics": metrics, "errors": errors,
            "missing": sorted(t for t, n in tracer.patched.items() if not n)}
