"""Seeded, bounded property-based workflow generation.

:func:`generate_workflow` emits a random — but fully deterministic for a
given seed — CWL Workflow over a small vocabulary of tools:

* ``echo``  — write a string input to a stdout-typed output,
* ``upcase`` — the same through an ``InlineJavascriptRequirement``
  expression (``$(inputs.text.toUpperCase())``),
* ``write`` — write a string to a file *named by another input*
  (the scatter body: each shard names its file from its own input),
* ``cat``  — concatenate upstream File outputs,
* ``measure`` — an ExpressionTool returning an upstream File's ``size``
  and ``basename``.

Structure is drawn with bounded width and depth: a source layer of
echo/upcase steps, optionally a dotproduct scatter, optionally a nested
(non-scattered) subworkflow, then up to ``max_depth - 1`` layers of ``cat``
steps combining earlier files, optionally a ``when``-guarded sink whose
guard is a workflow-input boolean.  A final *wiring* pass rewrites some step
inputs in place — ``valueFrom`` (on its own value, and reading a sibling
input), a null source with a step-input ``default``, multi-source
``linkMerge: merge_nested`` / ``merge_flattened`` into an array input.
Optionally a ``measure`` step reads one of the files last; it and the wiring
pass draw after the steps above, so a seed's step structure does not depend
on them.  Everything stays inside the subset all four engines support
(CommandLineTool and ExpressionTool steps, no guards over step outputs), so
the reference engine is a usable oracle for every generated case.

Determinism rules (the flakiness guard): every choice flows from one
``random.Random(seed)``; step and input names are derived from insertion
counters, never from iteration over sets or dicts; two calls with the same
seed and bounds produce byte-identical documents and job orders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.testing.corpus import ConformanceCase

#: Deterministic word pool for generated messages.
WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango",
)

#: Default number of generated workflows per conformance run.
DEFAULT_SUITE_SIZE = 20
#: Default base seed (suite workflow ``i`` uses ``base_seed + i``).
DEFAULT_BASE_SEED = 1000


@dataclass
class GeneratedWorkflow:
    """One generated case: a Workflow document plus its job order."""

    seed: int
    doc: Dict[str, Any]
    job: Dict[str, Any]
    #: Structural features drawn for this seed (for reports/debugging).
    features: Tuple[str, ...] = ()

    @property
    def id(self) -> str:
        return f"gen-{self.seed:05d}"

    def as_case(self) -> ConformanceCase:
        """This workflow as a conformance case: the default expectation (the
        reference engine's outputs are the oracle, and the unfaulted
        reference run must succeed) on every workflow engine."""
        return ConformanceCase(id=self.id, process=self.doc, job=self.job,
                               origin="generated")


# ------------------------------------------------------------------ tool docs


def _echo_tool(stdout_name: str) -> Dict[str, Any]:
    return {
        "class": "CommandLineTool",
        "baseCommand": "echo",
        "inputs": {"text": {"type": "string", "inputBinding": {"position": 1}}},
        "outputs": {"out": {"type": "stdout"}},
        "stdout": stdout_name,
    }


def _upcase_tool(stdout_name: str) -> Dict[str, Any]:
    return {
        "class": "CommandLineTool",
        "baseCommand": "echo",
        "requirements": [{"class": "InlineJavascriptRequirement"}],
        "inputs": {"text": {"type": "string"}},
        "arguments": ["$(inputs.text.toUpperCase())"],
        "outputs": {"out": {"type": "stdout"}},
        "stdout": stdout_name,
    }


def _write_tool() -> Dict[str, Any]:
    """Scatter body: output file named by the scattered ``name`` input."""
    return {
        "class": "CommandLineTool",
        "baseCommand": ["python3", "-c",
                        "import sys; open(sys.argv[1], 'w').write(sys.argv[2] + '\\n')"],
        "inputs": {
            "name": {"type": "string", "inputBinding": {"position": 1}},
            "word": {"type": "string", "inputBinding": {"position": 2}},
        },
        "outputs": {"out": {"type": "File",
                            "outputBinding": {"glob": "$(inputs.name)"}}},
    }


def _cat_tool(arity: int, stdout_name: str) -> Dict[str, Any]:
    inputs = {f"f{index}": {"type": "File", "inputBinding": {"position": index + 1}}
              for index in range(arity)}
    return {
        "class": "CommandLineTool",
        "baseCommand": "cat",
        "inputs": inputs,
        "outputs": {"out": {"type": "stdout"}},
        "stdout": stdout_name,
    }


def _cat_list_tool(stdout_name: str) -> Dict[str, Any]:
    """``cat`` over one ``File[]`` input (the target of a multi-source merge)."""
    tool = _cat_tool(0, stdout_name)
    tool["inputs"] = {"files": {"type": "File[]", "inputBinding": {"position": 1}}}
    return tool


def _measure_tool() -> Dict[str, Any]:
    """An ExpressionTool: the ``size`` and ``basename`` of one File."""
    return {"class": "ExpressionTool", "inputs": {"f": "File"},
            "outputs": {"size": "int", "name": "string"},
            "expression": "${ return {size: inputs.f.size, name: inputs.f.basename}; }"}


def _guarded_echo_tool(stdout_name: str) -> Dict[str, Any]:
    tool = _echo_tool(stdout_name)
    tool["inputs"]["go"] = {"type": "boolean"}
    return tool


# ------------------------------------------------------------------ generator


@dataclass
class _Builder:
    rng: random.Random
    inputs: Dict[str, Any] = field(default_factory=dict)
    job: Dict[str, Any] = field(default_factory=dict)
    steps: Dict[str, Any] = field(default_factory=dict)
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: ``step/out`` references resolving to a single File.
    file_refs: List[str] = field(default_factory=list)
    features: List[str] = field(default_factory=list)

    def phrase(self, words: int) -> str:
        return " ".join(self.rng.choice(WORDS) for _ in range(words))

    def add_input(self, name: str, cwl_type: str, value: Any) -> str:
        self.inputs[name] = cwl_type
        self.job[name] = value
        return name

    def add_step(self, name: str, step: Dict[str, Any]) -> str:
        self.steps[name] = step
        return name

    def expose(self, ref: str, cwl_type: str = "Any") -> None:
        output_id = f"o{len(self.outputs)}"
        self.outputs[output_id] = {"type": cwl_type, "outputSource": ref}


def _vary_wiring(builder: _Builder, source_steps: List[str],
                 scatter_ref: Optional[str]) -> None:
    """Rewrite some step inputs in place (no step is added or removed)."""
    rng = builder.rng
    for step_name in source_steps:
        step = builder.steps[step_name]
        source = step["in"]["text"]
        draw = rng.random()
        if draw < 0.2:
            step["in"]["text"] = {"source": source, "valueFrom": '$(self + "!")'}
            builder.features.append("valueFrom")
        elif draw < 0.4 and "arguments" not in step["run"]:
            # `inputs` is the input object *before* any valueFrom: `tail`
            # reads the sourced text, not its rewritten sibling.
            step["run"]["inputs"]["tail"] = {"type": "string",
                                             "inputBinding": {"position": 2}}
            step["in"] = {
                "text": {"source": source, "valueFrom": '$(self + "-x")'},
                "tail": {"source": source, "valueFrom": '$(inputs.text + "-y")'},
            }
            builder.features.append("valueFrom-sibling")
        elif draw < 0.6:
            unset = builder.add_input(f"{step_name}_unset", "string?", None)
            step["in"]["text"] = {"source": unset, "default": builder.phrase(2)}
            builder.features.append("default")
    for step in builder.steps.values():
        if step["run"].get("baseCommand") != "cat":
            continue
        draw = rng.random()
        if draw >= 0.6:
            continue
        sources = list(step["in"].values())
        link_merge = "merge_nested"
        if draw < 0.3:
            link_merge = "merge_flattened"
            if scatter_ref is not None:  # a File[] among the File sources
                sources.append(scatter_ref)
        step["run"] = _cat_list_tool(step["run"]["stdout"])
        step["in"] = {"files": {"source": sources, "linkMerge": link_merge}}
        builder.features.append(link_merge)


def generate_workflow(seed: int, *, max_width: int = 3,
                      max_depth: int = 3) -> GeneratedWorkflow:
    """Generate one workflow for ``seed`` (bounded width/depth, deterministic)."""
    if max_width < 1 or max_depth < 1:
        raise ValueError("max_width and max_depth must be at least 1")
    builder = _Builder(rng=random.Random(seed))
    rng = builder.rng

    # --- source layer: echo/upcase steps over workflow string inputs.
    n_sources = rng.randint(2, max(2, max_width))
    source_steps: List[str] = []
    for index in range(n_sources):
        step_name = f"s{len(builder.steps)}"
        text_input = builder.add_input(f"msg{index}", "string",
                                       builder.phrase(rng.randint(1, 3)))
        tool = _upcase_tool(f"{step_name}.txt") if rng.random() < 0.4 \
            else _echo_tool(f"{step_name}.txt")
        builder.add_step(step_name, {"run": tool, "in": {"text": text_input},
                                     "out": ["out"]})
        source_steps.append(step_name)
        builder.file_refs.append(f"{step_name}/out")
        builder.features.append("upcase" if "arguments" in tool else "echo")

    # --- optional dotproduct scatter over generated name/word arrays.
    scatter_ref: Optional[str] = None
    if rng.random() < 0.6:
        step_name = f"s{len(builder.steps)}"
        shards = rng.randint(2, 3)
        names = builder.add_input(
            f"{step_name}_names", "string[]",
            [f"{step_name}_part{index}.txt" for index in range(shards)])
        words = builder.add_input(
            f"{step_name}_words", "string[]",
            [builder.phrase(1) for _ in range(shards)])
        builder.add_step(step_name, {
            "run": _write_tool(), "scatter": ["name", "word"],
            "scatterMethod": "dotproduct",
            "in": {"name": names, "word": words}, "out": ["out"],
        })
        scatter_ref = f"{step_name}/out"
        builder.expose(scatter_ref)
        builder.features.append("scatter")

    # --- optional nested (non-scattered) subworkflow of echo steps.
    if max_depth > 1 and rng.random() < 0.6:
        step_name = f"s{len(builder.steps)}"
        child_steps = rng.randint(1, 2)
        child: Dict[str, Any] = {
            "class": "Workflow",
            "inputs": {f"m{index}": "string" for index in range(child_steps)},
            "outputs": {},
            "steps": {},
        }
        mapping: Dict[str, str] = {}
        for index in range(child_steps):
            parent_input = builder.add_input(
                f"{step_name}_m{index}", "string",
                builder.phrase(rng.randint(1, 2)))
            mapping[f"m{index}"] = parent_input
            child_step = f"c{index}"
            tool = _upcase_tool(f"{step_name}_{child_step}.txt") \
                if rng.random() < 0.5 else _echo_tool(f"{step_name}_{child_step}.txt")
            child["steps"][child_step] = {"run": tool, "in": {"text": f"m{index}"},
                                          "out": ["out"]}
            child["outputs"][f"w{index}"] = {"type": "File",
                                             "outputSource": f"{child_step}/out"}
        builder.add_step(step_name, {"run": child, "in": mapping,
                                     "out": [f"w{index}" for index in range(child_steps)]})
        for index in range(child_steps):
            builder.file_refs.append(f"{step_name}/w{index}")
        builder.features.append("subworkflow")

    # --- combining layers: cat steps over earlier single-File refs.
    for _depth in range(1, max_depth):
        if len(builder.file_refs) < 2 or rng.random() < 0.3:
            break
        step_name = f"s{len(builder.steps)}"
        arity = rng.randint(2, min(3, len(builder.file_refs)))
        chosen = rng.sample(sorted(builder.file_refs), arity)
        tool = _cat_tool(arity, f"{step_name}.txt")
        builder.add_step(step_name, {
            "run": tool,
            "in": {f"f{index}": ref for index, ref in enumerate(chosen)},
            "out": ["out"],
        })
        builder.file_refs.append(f"{step_name}/out")
        builder.features.append("cat")

    # --- optional when-guarded sink over a workflow-input boolean.
    if rng.random() < 0.5:
        step_name = f"s{len(builder.steps)}"
        flag = builder.add_input(f"{step_name}_go", "boolean", rng.random() < 0.5)
        text_input = next(iter(builder.inputs))  # msg0, deterministically
        builder.add_step(step_name, {
            "run": _guarded_echo_tool(f"{step_name}.txt"),
            "when": "$(inputs.go)",
            "in": {"go": flag, "text": text_input},
            "out": ["out"],
        })
        builder.expose(f"{step_name}/out")
        builder.features.append("when")

    # --- expose every file that is still a sink (plus one mid-DAG file).
    consumed = set()
    for step in builder.steps.values():
        consumed.update(source for source in step.get("in", {}).values()
                        if "/" in str(source))
    for ref in builder.file_refs:
        if ref not in consumed:
            builder.expose(ref, "File")
    if not builder.outputs:  # every file was consumed: expose the last one
        builder.expose(builder.file_refs[-1], "File")

    _vary_wiring(builder, source_steps, scatter_ref)

    # --- optional ExpressionTool step over an earlier file.
    if rng.random() < 0.5:
        step_name = builder.add_step(f"s{len(builder.steps)}", {
            "run": _measure_tool(), "in": {"f": rng.choice(builder.file_refs)},
            "out": ["size", "name"]})
        builder.expose(f"{step_name}/size", "int")
        builder.expose(f"{step_name}/name", "string")
        builder.features.append("expressionTool")

    doc = {
        "cwlVersion": "v1.2",
        "class": "Workflow",
        "id": f"generated-{seed}",
        "requirements": [
            {"class": "ScatterFeatureRequirement"},
            {"class": "SubworkflowFeatureRequirement"},
            {"class": "InlineJavascriptRequirement"},
            {"class": "StepInputExpressionRequirement"},
            {"class": "MultipleInputFeatureRequirement"},
        ],
        "inputs": builder.inputs,
        "outputs": builder.outputs,
        "steps": builder.steps,
    }
    return GeneratedWorkflow(seed=seed, doc=doc, job=builder.job,
                             features=tuple(builder.features))


def layered_dag_structure(nodes: int, *, seed: int = 0,
                          fanin: int = 2) -> List[Tuple[str, List[str]]]:
    """Deterministic layered DAG shape: ``[(step_name, predecessors), ...]``.

    ``nodes`` steps are laid out in roughly ``sqrt(nodes)`` layers of
    ``sqrt(nodes)`` steps each; every step past layer 0 depends on up to
    ``fanin`` steps of the previous layer.  Construction is O(nodes) and all
    choices flow from one ``random.Random(seed)``, so the same arguments
    always yield the same structure — the 10k-node scheduler benchmarks and
    the deep-graph tests share these shapes.
    """
    if nodes < 1:
        raise ValueError("nodes must be at least 1")
    fanin = max(1, int(fanin))
    rng = random.Random(seed)
    width = max(1, int(round(nodes ** 0.5)))
    structure: List[Tuple[str, List[str]]] = []
    previous_layer: List[str] = []
    while len(structure) < nodes:
        layer: List[str] = []
        for _ in range(min(width, nodes - len(structure))):
            name = f"n{len(structure)}"
            if previous_layer:
                count = min(fanin, len(previous_layer))
                deps = sorted({previous_layer[rng.randrange(len(previous_layer))]
                               for _ in range(count)})
            else:
                deps = []
            structure.append((name, deps))
            layer.append(name)
        previous_layer = layer
    return structure


def generate_layered_dag(nodes: int, *, seed: int = 0,
                         fanin: int = 2) -> GeneratedWorkflow:
    """A layered Workflow document with exactly ``nodes`` steps (O(nodes)).

    Layer-0 steps ``echo`` a shared workflow string input; every later step
    ``cat``-combines the files of its (up to ``fanin``) predecessors from the
    previous layer.  Unlike :func:`generate_workflow` this scales to
    10k-step documents: no sampling over growing pools, every decision is a
    constant-time draw, and the document stays inside the engine-portable
    subset (plain CommandLineTool steps, no scatter/subworkflow/when).
    """
    structure = layered_dag_structure(nodes, seed=seed, fanin=fanin)
    steps: Dict[str, Any] = {}
    consumed: set = set()
    for name, deps in structure:
        if not deps:
            steps[name] = {"run": _echo_tool(f"{name}.txt"),
                           "in": {"text": "msg"}, "out": ["out"]}
        else:
            refs = [f"{dep}/out" for dep in deps]
            steps[name] = {
                "run": _cat_tool(len(refs), f"{name}.txt"),
                "in": {f"f{index}": ref for index, ref in enumerate(refs)},
                "out": ["out"],
            }
            consumed.update(refs)
    outputs = {f"o{index}": {"type": "File", "outputSource": f"{name}/out"}
               for index, (name, _deps) in enumerate(structure)
               if f"{name}/out" not in consumed}
    doc = {
        "cwlVersion": "v1.2",
        "class": "Workflow",
        "id": f"layered-{nodes}-{seed}",
        "inputs": {"msg": "string"},
        "outputs": outputs,
        "steps": steps,
    }
    return GeneratedWorkflow(seed=seed, doc=doc, job={"msg": "hello dag"},
                             features=("layered", f"nodes={nodes}",
                                       f"fanin={fanin}"))


def generate_suite(count: int = DEFAULT_SUITE_SIZE, *,
                   base_seed: int = DEFAULT_BASE_SEED,
                   max_width: int = 3, max_depth: int = 3) -> List[GeneratedWorkflow]:
    """``count`` workflows for seeds ``base_seed .. base_seed + count - 1``."""
    return [generate_workflow(base_seed + offset, max_width=max_width,
                              max_depth=max_depth)
            for offset in range(count)]
