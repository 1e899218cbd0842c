"""Seeded inputs, independently computed expectations and output checks.

Everything here runs in the harness process.  A child sees only the
``job.json`` built from :func:`generate`'s ``specs`` and the files it names;
what the outputs *should* be is computed here without running the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
import sys
from typing import Any, Dict, List

COLUMNS = ("reference", "toil", "parsl")

#: Workers per engine column: ``min(nproc, 4)``.
WORKERS = min(os.cpu_count() or 1, 4)

#: Sizes per ``--scale``.  ``full`` is what BENCHMARK.json's numbers mean; it
#: is sized so one round of three children takes about 4 s on 2 cores, which
#: lets a 30 s run take a median over about seven interleaved rounds.
SCALES = {
    "full": {"images": 2, "messages": 64, "words": 1024, "nodes": 240},
    "smoke": {"images": 2, "messages": 8, "words": 1024, "nodes": 40},
}

IMAGE_EDGE = 64
RESIZED_EDGE = 32
HEAD_BYTES = 24

_FULL = SCALES["full"]
#: name -> why it exists (BENCHMARK.json's ``why``, sizes of the ``full`` scale).
WORKLOADS = {
    "fig1_images": f"paper Fig 1b: scatter_images.cwl over {_FULL['images']} seeded 64x64 PNGs = "
                   f"{3 * _FULL['images']} imaging jobs, cache off; exec-dominated control for "
                   "scheduler/cache/expression work",
    "fig2_words": f"paper Fig 2: {_FULL['messages']} distinct {_FULL['words']}-word messages one "
                  "after another, JS on reference/toil, InlinePython CWLApp on parsl; "
                  "expression evaluation on the critical path",
    "dag_cold": f"{_FULL['nodes']}-step layered DAG of echo/head steps against an empty cache "
                "store; runner overhead and the cache write path (key, miss, publish) are the run",
    "dag_warm": f"the same {_FULL['nodes']}-step DAG against a store primed by an untimed child: "
                f"{_FULL['nodes']} hits, no tool runs; cache read path (key, probe, restore) and "
                "the scheduler",
}

_SYLLABLES = ("par", "sl", "cwl", "flow", "data", "task", "node", "exec", "py", "tool")


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_repro_generators():
    src = os.path.join(repo_root(), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.imaging.synthetic import generate_image_files
    from repro.testing.generator import layered_dag_structure

    return generate_image_files, layered_dag_structure


def sha1_bytes(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


# ------------------------------------------------------------------ generators


def _fig1(seed: int, sizes: Dict[str, int], directory: str) -> Dict[str, Any]:
    generate_image_files, _ = _import_repro_generators()
    images = generate_image_files(os.path.join(directory, "images"), sizes["images"],
                                  width=IMAGE_EDGE, height=IMAGE_EDGE,
                                  seed=seed * 1000)
    cwl_dir = os.path.join(repo_root(), "examples", "cwl")
    order = {
        "input_images": [{"class": "File", "path": path} for path in images],
        "size": RESIZED_EDGE, "sepia": True, "radius": 1,
    }
    workflow = {"mode": "workflow", "output_key": "final_outputs",
                "doc": os.path.join(cwl_dir, "scatter_images.cwl"), "order": order}
    apps = {"mode": "image_apps", "cwl_dir": cwl_dir, "images": images,
            "size": RESIZED_EDGE, "sepia": True, "radius": 1}
    tool = ["python3", "-m", "repro.imaging.cli"]
    chains = []
    for index, image in enumerate(images):
        names = [os.path.join(directory, "bare", f"{stage}_{index}.png")
                 for stage in ("resized", "filtered", "blurred")]
        chains.append([
            {"argv": tool + ["resize", "--output", names[0], "--size", str(RESIZED_EDGE), image]},
            {"argv": tool + ["filter", "--output", names[1], "--sepia", names[0]]},
            {"argv": tool + ["blur", "--output", names[2], "--radius", "1", names[1]]},
        ])
    return {"jobs": 3 * len(images), "outputs": len(images),
            "specs": {"reference": workflow, "toil": workflow, "parsl": apps},
            "expected": {"kind": "png", "edge": RESIZED_EDGE},
            "bare": [chains]}


def _messages(seed: int, count: int, words: int) -> List[str]:
    """Distinct messages of lowercase alphabetic words: on those, JavaScript's
    ``charAt(0).toUpperCase() + slice(1)`` and Python's ``str.title`` agree."""
    rng = random.Random(seed)
    messages = []
    for index in range(count):
        body = ["".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3)))
                for _ in range(words - 1)]
        # The leading word makes every message (and so every job key) distinct.
        tag = "msg" + chr(ord("a") + index // 26 % 26) + chr(ord("a") + index % 26)
        messages.append(" ".join([tag] + body))
    return messages


def _fig2(seed: int, sizes: Dict[str, int], directory: str) -> Dict[str, Any]:
    messages = _messages(seed, sizes["messages"], sizes["words"])
    cwl_dir = os.path.join(repo_root(), "examples", "cwl")
    expected = [" ".join(w[:1].upper() + w[1:] for w in m.split(" ")) + "\n"
                for m in messages]
    runner = {"mode": "tool_loop", "doc": os.path.join(cwl_dir, "capitalize_js.cwl"),
              "messages": messages}
    app = {"mode": "app_loop", "doc": os.path.join(cwl_dir, "capitalize_python.cwl"),
           "messages": messages}
    chain = [{"argv": ["echo", text.rstrip("\n")],
              "stdout": os.path.join(directory, "bare", f"out_{index}.txt")}
             for index, text in enumerate(expected)]
    return {"jobs": len(messages), "outputs": len(messages),
            "specs": {"reference": runner, "toil": runner, "parsl": app},
            "expected": {"kind": "sha1", "sha1": [sha1_bytes(t.encode()) for t in expected]},
            "bare": [[chain]]}


def _head_tool(arity: int, stdout_name: str) -> Dict[str, Any]:
    """``head -q -c 24 f0 [f1]``: output is at most 48 bytes at any depth and
    depends on input *content* only (``generate_layered_dag``'s ``cat`` steps
    double the file size per layer)."""
    return {
        "class": "CommandLineTool",
        "baseCommand": ["head", "-q", "-c", str(HEAD_BYTES)],
        "inputs": {f"f{index}": {"type": "File", "inputBinding": {"position": index + 1}}
                   for index in range(arity)},
        "outputs": {"out": {"type": "stdout"}},
        "stdout": stdout_name,
    }


def _echo_tool(step_name: str) -> Dict[str, Any]:
    return {
        "class": "CommandLineTool",
        "baseCommand": "echo",
        "inputs": {"text": {"type": "string", "inputBinding": {"position": 1}}},
        "arguments": [{"valueFrom": step_name, "position": 2}],
        "outputs": {"out": {"type": "stdout"}},
        "stdout": f"{step_name}.txt",
    }


def _dag(seed: int, sizes: Dict[str, int], directory: str) -> Dict[str, Any]:
    _, layered_dag_structure = _import_repro_generators()
    structure = layered_dag_structure(sizes["nodes"], seed=seed)
    message = f"dag{seed}"
    steps: Dict[str, Any] = {}
    contents: Dict[str, bytes] = {}
    layer: Dict[str, int] = {}
    waves: List[List[List[Dict[str, Any]]]] = []
    consumed = set()
    bare_dir = os.path.join(directory, "bare")
    for name, deps in structure:
        if not deps:
            steps[name] = {"run": _echo_tool(name), "in": {"text": "msg"}, "out": ["out"]}
            contents[name] = f"{message} {name}\n".encode()
            argv = ["echo", message, name]
        else:
            steps[name] = {"run": _head_tool(len(deps), f"{name}.txt"),
                           "in": {f"f{i}": f"{dep}/out" for i, dep in enumerate(deps)},
                           "out": ["out"]}
            contents[name] = b"".join(contents[dep][:HEAD_BYTES] for dep in deps)
            consumed.update(deps)
            argv = ["head", "-q", "-c", str(HEAD_BYTES)] \
                + [os.path.join(bare_dir, f"{dep}.txt") for dep in deps]
        layer[name] = 1 + layer[deps[0]] if deps else 0
        if layer[name] == len(waves):
            waves.append([])
        waves[layer[name]].append(
            [{"argv": argv, "stdout": os.path.join(bare_dir, f"{name}.txt")}])
    leaves = [name for name, _ in structure if name not in consumed]
    doc = {
        "cwlVersion": "v1.2", "class": "Workflow", "id": f"bench-dag-{seed}",
        "inputs": {"msg": "string"},
        "outputs": {f"o_{name}": {"type": "File", "outputSource": f"{name}/out"}
                    for name in leaves},
        "steps": steps,
    }
    doc_path = os.path.join(directory, "dag.cwl")
    with open(doc_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    spec = {"mode": "workflow", "doc": doc_path, "order": {"msg": message}}
    return {"jobs": len(structure), "outputs": len(leaves),
            "specs": {column: spec for column in COLUMNS},
            "expected": {"kind": "sha1_by_id",
                         "sha1": {f"o_{name}": sha1_bytes(contents[name]) for name in leaves}},
            "bare": waves}


def generate(workload: str, seed: int, scale: str, directory: str) -> Dict[str, Any]:
    """Write the workload's inputs under ``directory`` and describe the run."""
    sizes = SCALES[scale]
    os.makedirs(os.path.join(directory, "bare"), exist_ok=True)
    if workload == "fig1_images":
        plan = _fig1(seed, sizes, directory)
    elif workload == "fig2_words":
        plan = _fig2(seed, sizes, directory)
    elif workload in ("dag_cold", "dag_warm"):
        plan = _dag(seed, sizes, directory)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    plan["cache"] = {"dag_cold": "cold", "dag_warm": "warm"}.get(workload, "off")
    return plan


# --------------------------------------------------------------------- checks


def describe_output(path: str) -> Dict[str, Any]:
    """What a child reports about one output file (content hash, PNG size)."""
    with open(path, "rb") as handle:
        data = handle.read()
    described: Dict[str, Any] = {"sha1": sha1_bytes(data), "bytes": len(data)}
    if data[:8] == b"\x89PNG\r\n\x1a\n" and len(data) >= 24:
        described["png"] = list(struct.unpack(">II", data[16:24]))
    return described


def check_outputs(plan: Dict[str, Any], outputs: Any) -> List[str]:
    """Problems with one child's reported outputs against the expectation."""
    expected = plan["expected"]
    problems: List[str] = []
    if expected["kind"] == "sha1_by_id":
        if not isinstance(outputs, dict) or set(outputs) != set(expected["sha1"]):
            return [f"output ids differ: got {len(outputs or ())} expected {len(expected['sha1'])}"]
        problems += [f"output {key} content differs" for key, digest in expected["sha1"].items()
                     if outputs[key].get("sha1") != digest]
        return problems
    if not isinstance(outputs, list) or len(outputs) != plan["outputs"]:
        return [f"expected {plan['outputs']} outputs, got {len(outputs or ())}"]
    if expected["kind"] == "sha1":
        problems += [f"output {index} content differs"
                     for index, digest in enumerate(expected["sha1"])
                     if outputs[index].get("sha1") != digest]
    else:
        edge = expected["edge"]
        problems += [f"output {index} is not a {edge}x{edge} PNG"
                     for index, item in enumerate(outputs) if item.get("png") != [edge, edge]]
    return problems


def check_invariants(plan: Dict[str, Any], result: Dict[str, Any]) -> List[str]:
    """Per-run invariants every child must satisfy, whatever the column."""
    problems: List[str] = []
    jobs = plan["jobs"]
    if result.get("error"):
        return [f"child failed: {result['error']}"]
    if result["jobs_run"] != jobs:
        problems.append(f"jobs_run {result['jobs_run']} != {jobs}")
    want = {"off": None, "cold": {"hits": 0, "misses": jobs},
            "warm": {"hits": jobs, "misses": 0}}[plan["cache"]]
    if result["cache_stats"] != want:
        problems.append(f"cache_stats {result['cache_stats']} != {want}")
    # The Parsl bridge replays a hit's recorded stdout through one bash
    # ``cat`` per job, so only the runner columns can promise zero spawns.
    if plan["cache"] == "warm" and result["column"] != "parsl" and result["spawns"]:
        problems.append(f"{result['spawns']} spawns on a warm run")
    if result["surviving_children"]:
        problems.append(f"surviving child processes: {result['surviving_children']}")
    if result["leftover_scratch"]:
        problems.append(f"scratch dirs left in TMPDIR: {result['leftover_scratch'][:5]}")
    return problems
