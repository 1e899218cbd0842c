"""Command-line construction.

Given a :class:`~repro.cwl.schema.CommandLineTool` and a job order (the concrete
input values), :func:`build_command_line` produces the argv list plus the
stdin/stdout/stderr redirections, following the CWL binding rules:

* ``baseCommand`` elements come first,
* each ``arguments`` entry and each bound input contributes a *binding* with a
  sort key ``(position, tie-breaker)``; bindings are stable-sorted by position,
* ``prefix`` / ``separate`` / ``itemSeparator`` control how values render,
* boolean inputs emit just their prefix when true and nothing when false,
* ``File`` values render as their path, arrays render per ``itemSeparator``,
* ``valueFrom`` expressions are evaluated with ``self`` bound to the input value,
* ``stdout``/``stderr``/``stdin`` fields may themselves contain expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cwl.errors import ValidationException
from repro.cwl.schema import CommandInputParameter, CommandLineBinding, CommandLineTool
from repro.cwl.types import CWLType, is_directory_value, is_file_value, value_to_path


@dataclass
class CommandLineParts:
    """The result of command-line construction."""

    argv: List[str]
    stdin: Optional[str] = None
    stdout: Optional[str] = None
    stderr: Optional[str] = None
    environment: Dict[str, str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.environment is None:
            self.environment = {}


def _value_to_cli_string(value: Any) -> str:
    """Render one scalar value the way it should appear on the command line."""
    if is_file_value(value) or is_directory_value(value):
        return value_to_path(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _binding_tokens(value: Any, binding: CommandLineBinding, cwl_type: Optional[CWLType]) -> List[str]:
    """Expand one bound value into its command-line tokens."""
    # Null / omitted optional values contribute nothing.
    if value is None:
        return []

    # Booleans: the prefix is emitted only when the value is true.
    if isinstance(value, bool):
        if value and binding.prefix:
            return [binding.prefix]
        return []

    # Arrays.
    if isinstance(value, list):
        if not value:
            return []
        rendered = [_value_to_cli_string(item) for item in value]
        if binding.item_separator is not None:
            joined = binding.item_separator.join(rendered)
            if binding.prefix:
                return [binding.prefix, joined] if binding.separate else [binding.prefix + joined]
            return [joined]
        # No itemSeparator: prefix (if any) is repeated before every element per CWL spec
        # when the array itself has no nested bindings.
        tokens: List[str] = []
        for item in rendered:
            if binding.prefix:
                if binding.separate:
                    tokens.extend([binding.prefix, item])
                else:
                    tokens.append(binding.prefix + item)
            else:
                tokens.append(item)
        return tokens

    rendered_value = _value_to_cli_string(value)
    if binding.prefix:
        if binding.separate:
            return [binding.prefix, rendered_value]
        return [binding.prefix + rendered_value]
    return [rendered_value]


def build_command_line(
    tool: CommandLineTool,
    job_order: Dict[str, Any],
    runtime: Dict[str, Any],
    evaluator: Any,
) -> CommandLineParts:
    """Construct the argv and redirections for one invocation of ``tool``.

    ``evaluator`` is the runner's expression evaluator for ``tool`` (see
    :meth:`~repro.cwl.runners.base.BaseRunner.evaluator_for`).
    """
    context = {"inputs": job_order, "runtime": runtime, "self": None}

    bindings: List[Tuple[Tuple[int, int], List[str]]] = []
    tie_breaker = 0

    # arguments: contribute bindings with default position 0.
    for argument in tool.arguments:
        tie_breaker += 1
        if isinstance(argument, str):
            evaluated = evaluator.evaluate(argument, context)
            tokens = [_value_to_cli_string(evaluated)] if evaluated is not None else []
            bindings.append(((0, tie_breaker), tokens))
            continue
        binding: CommandLineBinding = argument
        position = binding.position or 0
        if binding.value_from is None:
            raise ValidationException("argument bindings must provide valueFrom")
        evaluated = evaluator.evaluate(binding.value_from, context)
        tokens = _binding_tokens(evaluated, binding, None)
        bindings.append(((position, tie_breaker), tokens))

    # inputs with inputBinding.
    for param in tool.inputs:
        if param.input_binding is None:
            continue
        tie_breaker += 1
        value = job_order.get(param.id)
        binding = param.input_binding
        position_spec = binding.position
        if isinstance(position_spec, str):
            position = int(evaluator.evaluate(position_spec, context) or 0)
        else:
            position = position_spec or 0
        if binding.value_from is not None:
            local_context = dict(context)
            local_context["self"] = value
            value = evaluator.evaluate(binding.value_from, local_context)
        tokens = _binding_tokens(value, binding, param.type)
        bindings.append(((position, tie_breaker), tokens))

    bindings.sort(key=lambda item: item[0])

    argv: List[str] = list(tool.base_command)
    for _key, tokens in bindings:
        argv.extend(tokens)

    stdin = evaluator.evaluate(tool.stdin, context) if tool.stdin else None

    environment: Dict[str, str] = {}
    env_req = tool.get_requirement("EnvVarRequirement")
    if env_req:
        env_def = env_req.get("envDef", {})
        if isinstance(env_def, list):
            env_def = {entry["envName"]: entry["envValue"] for entry in env_def}
        for name, value_expr in env_def.items():
            environment[name] = str(evaluator.evaluate(value_expr, context))

    if is_file_value(job_order.get("__stdin__", None)):
        stdin = value_to_path(job_order["__stdin__"])
    elif stdin is not None and (is_file_value(stdin) or is_directory_value(stdin)):
        stdin = value_to_path(stdin)

    return CommandLineParts(
        argv=[str(part) for part in argv],
        stdin=stdin if stdin is None or isinstance(stdin, str) else str(stdin),
        stdout=stream_redirect(tool, "stdout", context, evaluator),
        stderr=stream_redirect(tool, "stderr", context, evaluator),
        environment=environment,
    )


def stream_redirect(tool: CommandLineTool, stream: str, context: Dict[str, Any],
                    evaluator: Any) -> Optional[str]:
    """Where a job's ``stream`` (``"stdout"`` / ``"stderr"``) goes: the tool's
    field of that name evaluated, else ``<id>.<stream>`` if an output has that
    stream's type, else ``None``."""
    spec = getattr(tool, stream)
    name = evaluator.evaluate(spec, context) if spec else None
    if name is None and any(o.raw_type == stream for o in tool.outputs):
        return f"{(tool.id or 'tool').replace('/', '_')}.{stream}"
    return name if name is None else str(name)


def fill_in_defaults(tool_inputs: List[CommandInputParameter],
                     job_order: Dict[str, Any]) -> Dict[str, Any]:
    """Return a copy of ``job_order`` with declared defaults applied.

    Missing required (non-optional, no-default) inputs are left absent; the
    validator reports them.
    """
    filled = dict(job_order)
    for param in tool_inputs:
        if param.id in filled and filled[param.id] is not None:
            continue
        if param.has_default:
            filled[param.id] = param.default
        elif param.type.is_optional and param.id not in filled:
            filled[param.id] = None
    return filled
