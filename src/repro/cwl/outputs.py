"""Output collection.

After a tool's command exits, its declared outputs are collected from the
working/output directory:

* ``type: stdout`` / ``type: stderr`` outputs resolve to the redirected files,
* outputs with an ``outputBinding.glob`` resolve to the matching file(s); the
  glob pattern may itself be an expression,
* ``outputEval`` post-processes the matched value (with ``self`` bound to the
  glob result),
* ``loadContents`` attaches the first 64 KiB of each matched file,
* non-File outputs (e.g. an int parsed from stdout by ``outputEval``) are passed
  through unchanged.
"""

from __future__ import annotations

import glob as globlib
import os
from typing import Any, Callable, Dict, List, Optional, TypeVar

from repro.cwl.errors import OutputCollectionError
from repro.cwl.jobcache import stage_file
from repro.cwl.schema import CommandLineTool, CommandOutputParameter
from repro.cwl.types import build_directory_value, build_file_value, is_directory_value, is_file_value

T = TypeVar("T")


def _glob_in(outdir: str, pattern: str) -> List[str]:
    """Glob relative to the output directory, returning sorted absolute paths.
    The directory is a path, not a pattern: a ``[`` in it matches itself."""
    if os.path.isabs(pattern):
        matches = globlib.glob(pattern)
    else:
        matches = globlib.glob(os.path.join(globlib.escape(outdir), pattern))
    return sorted(os.path.abspath(m) for m in matches)


def evaluated_patterns(glob: Any, evaluator: Any, context: Dict[str, Any]) -> List[str]:
    """An ``outputBinding.glob`` (one pattern or a list) evaluated to strings."""
    patterns: List[str] = []
    for pattern in glob if isinstance(glob, list) else [glob]:
        evaluated = evaluator.evaluate(pattern, context)
        if evaluated is not None:
            patterns.extend(
                str(single) for single in (evaluated if isinstance(evaluated, list) else [evaluated]))
    return patterns


def _load_contents(file_value: Dict[str, Any]) -> Dict[str, Any]:
    path = file_value.get("path")
    if path and os.path.exists(path):
        with open(path, "rb") as handle:
            file_value["contents"] = handle.read(64 * 1024).decode("utf-8", errors="replace")
    return file_value


def collect_output(
    param: CommandOutputParameter,
    outdir: str,
    stdout_path: Optional[str],
    stderr_path: Optional[str],
    job_order: Dict[str, Any],
    runtime: Dict[str, Any],
    evaluator: Any,
    stats: Optional[Dict[str, os.stat_result]] = None,
) -> Any:
    """Collect one declared output parameter, evaluating with ``evaluator``
    (``stats`` as for :func:`collect_outputs`)."""
    context = {"inputs": job_order, "runtime": runtime, "self": None}

    raw_type = param.raw_type
    if raw_type == "stdout":
        if not stdout_path:
            raise OutputCollectionError(f"output {param.id!r} has type stdout but no stdout file was produced")
        return build_file_value(stdout_path, stats=stats)
    if raw_type == "stderr":
        if not stderr_path:
            raise OutputCollectionError(f"output {param.id!r} has type stderr but no stderr file was produced")
        return build_file_value(stderr_path, stats=stats)

    binding = param.output_binding
    if binding is None:
        # No binding: the output may be satisfied by cwl.output.json (not supported)
        # or simply be absent; optional outputs collect to None.
        if param.type.is_optional:
            return None
        raise OutputCollectionError(f"output {param.id!r} has no outputBinding and is not optional")

    matched_value: Any = None
    glob_matches: List[Dict[str, Any]] = []
    if binding.glob is not None:
        matches = [path for pattern in evaluated_patterns(binding.glob, evaluator, context)
                   for path in _glob_in(outdir, pattern)]
        glob_matches = [build_file_value(path, stats=stats) for path in matches]
        if binding.load_contents:
            glob_matches = [_load_contents(fv) for fv in glob_matches]
        if param.type.is_array:
            matched_value = glob_matches
        else:
            matched_value = glob_matches[0] if glob_matches else None

    if binding.output_eval is not None:
        # Per the CWL spec, `self` in outputEval is the array of files matched by glob
        # (possibly empty), regardless of the declared output type.
        eval_context = dict(context)
        eval_context["self"] = glob_matches
        matched_value = evaluator.evaluate(binding.output_eval, eval_context)

    if matched_value is None and not param.type.is_optional and binding.output_eval is None:
        raise OutputCollectionError(
            f"required output {param.id!r} matched no files (glob={binding.glob!r}) in {outdir}"
        )
    return matched_value


def stage_outputs(outputs: Dict[str, Any], destination: str) -> Dict[str, Any]:
    """Restage every File/Directory of an output object into ``destination``.

    The final-output step of ``cwltool --outdir`` (its ``relocateOutputs``):
    each referenced file is staged with the shared hardlink-with-copy-fallback
    helper (:func:`repro.cwl.jobcache.stage_file` — zero-copy on the same
    filesystem) and the value's ``path``/``location``/``basename`` are
    rewritten to the staged copy.  Values of one basename from different
    sources do not overwrite each other: as under cwltool's
    ``fix_conflicts``, the later ones are staged as ``<basename>_2``,
    ``<basename>_3``, ...  Values whose source no longer exists are passed
    through unchanged.  Returns a new output object; the input is not mutated.
    """
    sources: Dict[str, str] = {}  # staged path -> the source staged there

    def target_of(value: Dict[str, Any], source: str) -> str:
        target = os.path.join(destination, value.get("basename") or os.path.basename(source))
        candidate, count = target, 1
        while sources.setdefault(candidate, source) != source:
            count += 1
            candidate = f"{target}_{count}"
        return candidate

    def restage(value: Any) -> Any:
        if is_file_value(value):
            source = value.get("path")
            if not source or not os.path.isfile(source):
                return value
            target = target_of(value, source)
            stage_file(source, target)
            staged = build_file_value(target)
            staged.update({k: v for k, v in value.items() if k not in staged})
            return staged
        if is_directory_value(value):
            source = value.get("path")
            if not source or not os.path.isdir(source):
                return value
            target = target_of(value, source)
            for root, _dirs, names in os.walk(source):
                rel = os.path.relpath(root, source)
                os.makedirs(os.path.normpath(os.path.join(target, rel)), exist_ok=True)
                for name in names:
                    stage_file(os.path.join(root, name),
                               os.path.normpath(os.path.join(target, rel, name)))
            return build_directory_value(target, listing="listing" in value)
        if isinstance(value, list):
            return [restage(item) for item in value]
        if isinstance(value, dict):
            return {key: restage(item) for key, item in value.items()}
        return value

    os.makedirs(destination, exist_ok=True)
    return {key: restage(value) for key, value in outputs.items()}


def run_in_root(context: Any, run: Callable[[Any], T],
                stage: Optional[Callable[[T, str], T]] = None) -> T:
    """``run(context)`` with every job under one root, the run's: inside a
    run (the context names a ``job_dir``) that run's; else a new
    ``make_job_dir("run")`` (under ``basedir``, else the temp dir), the
    ``job_dir`` of the run's own context
    (:meth:`~repro.cwl.runtime.RuntimeContext.run_in`).  Given an
    ``outdir``, what ``run`` returns is then staged there (``stage``, by
    default :func:`stage_outputs` of an output object) and the root removed,
    also after a failure; else the outputs stay in the root, which is removed
    only if empty."""
    if context.job_dir is not None:
        return run(context)
    destination = context.outdir
    root = context.make_job_dir("run")
    try:
        result = run(context.run_in(root))
        if destination is None:
            return result
        if stage is None:
            return stage_outputs(result, destination)
        return stage(result, destination)
    finally:
        if destination is not None or not os.listdir(root):
            context.cleanup_dir(root)


def collect_outputs(
    tool: CommandLineTool,
    outdir: str,
    stdout_path: Optional[str],
    stderr_path: Optional[str],
    job_order: Dict[str, Any],
    runtime: Dict[str, Any],
    evaluator: Any,
    stats: Optional[Dict[str, os.stat_result]] = None,
) -> Dict[str, Any]:
    """Collect every declared output of ``tool`` into an output object.

    ``evaluator`` is the runner's expression evaluator for ``tool`` (see
    :meth:`~repro.cwl.runners.base.BaseRunner.evaluator_for`).  Given a dict
    ``stats``, the ``os.stat`` of each collected file is kept there by path,
    for the job cache to publish the files without a second one.
    """
    outputs: Dict[str, Any] = {}
    for param in tool.outputs:
        outputs[param.id] = collect_output(
            param,
            outdir=outdir,
            stdout_path=stdout_path,
            stderr_path=stderr_path,
            job_order=job_order,
            runtime=runtime,
            evaluator=evaluator,
            stats=stats,
        )
    return outputs
