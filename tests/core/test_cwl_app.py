"""Tests for CWLApp (paper §III-A)."""

from __future__ import annotations

import os
import subprocess
import tempfile

import pytest

import repro
from repro.core.cwl_app import CWLApp, cwl_tool_command
from repro.cwl.errors import InputValidationError, JobFailure, JobTimeout, ValidationException
from repro.cwl.loader import load_document, load_tool
from repro.cwl.runtime import RuntimeContext
from repro.imaging.png import read_png
from repro.parsl.data_provider.files import File
from repro.utils.continuation import finish


def test_cwl_app_describe_and_introspection(cwl_dir):
    app = CWLApp(str(cwl_dir / "resize_image.cwl"))
    assert set(app.input_names) == {"input_image", "size", "output_image"}
    assert app.output_names == ["output_image"]
    assert set(app.required_inputs) == {"input_image", "size"}
    description = app.describe()
    assert description["baseCommand"][0] == "python3"
    assert description["inputs"]["size"] == "int"
    assert "CWLApp" in repr(app)


def test_cwl_app_accepts_loaded_tool_object(cwl_dir):
    tool = load_tool(cwl_dir / "echo.cwl")
    app = CWLApp(tool)
    assert app.input_names == ["message"]


def test_cwl_app_rejects_invalid_document(tmp_path):
    bad = tmp_path / "bad.cwl"
    bad.write_text("cwlVersion: v1.2\nclass: CommandLineTool\ninputs: {}\noutputs: {}\n")
    with pytest.raises(ValidationException):
        CWLApp(str(bad))


def test_unknown_and_missing_kwargs_fail_fast(cwl_dir, parsl_threads):
    app = CWLApp(str(cwl_dir / "resize_image.cwl"))
    with pytest.raises(InputValidationError, match="unknown input"):
        app(input_image="x.png", size=10, bogus=1)
    with pytest.raises(InputValidationError, match="missing required"):
        app(size=10)


def test_concrete_type_mismatch_fails_fast(cwl_dir, parsl_threads):
    app = CWLApp(str(cwl_dir / "resize_image.cwl"))
    with pytest.raises(InputValidationError, match="size"):
        app(input_image="in.png", size="big")


def test_echo_execution_and_datafutures(cwl_dir, parsl_threads, tmp_path):
    app = CWLApp(str(cwl_dir / "echo.cwl"))
    future = app(message="Hello, World!", stdout="hello.txt")
    assert future.result() == 0
    assert (tmp_path / "hello.txt").read_text().strip() == "Hello, World!"
    assert future.cwl_outputs["output"].result().filepath == "hello.txt"
    assert [df.filename for df in future.outputs] == ["hello.txt"]


def test_stdout_default_from_tool(cwl_dir, parsl_threads, tmp_path):
    app = CWLApp(str(cwl_dir / "echo.cwl"))
    future = app(message="default stdout")
    future.result()
    assert (tmp_path / "hello.txt").read_text().strip() == "default stdout"


def test_image_chain_through_datafutures(cwl_dir, parsl_threads, tmp_path, small_image):
    resize = CWLApp(str(cwl_dir / "resize_image.cwl"))
    blur = CWLApp(str(cwl_dir / "blur_image.cwl"))

    resized = resize(input_image=small_image, size=20, output_image="step1.png")
    blurred = blur(input_image=resized.outputs[0], radius=1, output_image="step2.png")
    assert blurred.result() == 0
    assert read_png(tmp_path / "step2.png").shape == (20, 20, 3)
    # The intermediate also exists and has the requested dimensions.
    assert read_png(tmp_path / "step1.png").shape == (20, 20, 3)


def test_file_inputs_accept_paths_files_and_cwl_dicts(cwl_dir, parsl_threads, tmp_path, small_image):
    resize = CWLApp(str(cwl_dir / "resize_image.cwl"))
    as_path = resize(input_image=small_image, size=8, output_image="a.png")
    as_file = resize(input_image=File(small_image), size=8, output_image="b.png")
    as_dict = resize(input_image={"class": "File", "path": small_image}, size=8,
                     output_image="c.png")
    for future in (as_path, as_file, as_dict):
        assert future.result() == 0
    assert {p.name for p in tmp_path.glob("*.png")} >= {"a.png", "b.png", "c.png"}


def test_predicted_outputs_use_input_defaults(cwl_dir, parsl_threads, tmp_path, small_image):
    blur = CWLApp(str(cwl_dir / "blur_image.cwl"))
    future = blur(input_image=small_image)  # radius and output_image use their defaults
    future.result()
    assert future.cwl_outputs["output_image"].filename == "blurred.png"
    assert (tmp_path / "blurred.png").exists()


def test_inline_python_argument_rewriting(cwl_dir, parsl_threads, tmp_path):
    app = CWLApp(str(cwl_dir / "capitalize_python.cwl"))
    future = app(message="the common workflow language", stdout="cap.txt")
    future.result()
    assert (tmp_path / "cap.txt").read_text().strip() == "The Common Workflow Language"


def test_inline_python_argument_result_is_used_verbatim(cwl_dir, parsl_threads, tmp_path):
    """An InlinePython argument's result is a command-line token, not a CWL
    template: ``$(...)``, ``${...}`` and backslashes in it reach the tool as is."""
    message = r"cost $(runtime.cores) or ${ return 1; } per back\slash \$(x)"
    app = CWLApp(str(cwl_dir / "capitalize_python.cwl"))
    app(message=message, stdout="cap.txt").result()
    assert (tmp_path / "cap.txt").read_text() == message.title() + "\n"


def test_inline_python_validate_blocks_bad_inputs(cwl_dir, parsl_threads, tmp_path):
    (tmp_path / "ok.csv").write_text("a,b\n")
    (tmp_path / "bad.json").write_text("{}")
    app = CWLApp(str(cwl_dir / "validate_csv.cwl"))

    good = app(data_file=str(tmp_path / "ok.csv"), stdout="good.txt")
    assert good.result() == 0

    bad = app(data_file=str(tmp_path / "bad.json"), stdout="bad.txt")
    with pytest.raises(Exception, match="Invalid file"):
        bad.result()


def test_cwl_tool_command_builds_command_without_parsl(cwl_dir, tmp_path):
    """The execution-side body is usable standalone (it is what workers run):
    it makes the call's job, whose command line is the tool's."""
    tool = load_tool(cwl_dir / "echo.cwl")
    job = cwl_tool_command(tool.raw, tool.source_path, {"message": "direct"},
                           cwl_basedir=str(tmp_path))
    try:
        staged = job.stage_execution(finish(job.probe()))
        assert staged.parts.argv == ["echo", "direct"]
        assert staged.parts.stdout == "hello.txt"
        assert list(job.tool.success_codes) == [0]
    finally:
        job.runtime_context.close()


def test_a_cwl_app_spawns_the_tool_argv_with_no_shell(cwl_dir, parsl_threads, tmp_path,
                                                       monkeypatch):
    spawned = []
    real_init = subprocess.Popen.__init__

    def spy(self, args, *rest, **kwargs):
        spawned.append((args, kwargs.get("shell", False)))
        real_init(self, args, *rest, **kwargs)

    monkeypatch.setattr(subprocess.Popen, "__init__", spy)
    message = "two words; $HOME `and` more"
    assert CWLApp(str(cwl_dir / "echo.cwl"))(message=message).result() == 0
    assert spawned == [(["echo", message], False)]
    assert (tmp_path / "hello.txt").read_text() == message + "\n"


@pytest.mark.parametrize("script, options, error", [
    ("exit 3", {}, JobFailure),
    ("sleep 30", {"timeout_s": 0.5}, JobTimeout),
])
def test_a_failed_call_leaves_its_streams_at_the_redirections(parsl_threads, tmp_path,
                                                              script, options, error):
    """A tool that fails or times out: what it wrote to its streams is at the
    call's ``stdout=`` / ``stderr=`` when its error reaches the caller."""
    tool = {"class": "CommandLineTool", "id": "fails",
            "baseCommand": ["sh", "-c", f'echo out; echo "$0" >&2; {script}'],
            "inputs": {"message": {"type": "string", "inputBinding": {"position": 1}}},
            "outputs": {}}
    app = CWLApp(load_document(tool), runtime_context=RuntimeContext(**options))
    future = app(message="why it failed", stdout="out.txt", stderr=("err.txt", "a"))
    with pytest.raises(error):
        future.result()
    assert (tmp_path / "out.txt").read_text() == "out\n"
    assert (tmp_path / "err.txt").read_text() == "why it failed\n"


def test_clearing_the_kernel_leaves_no_job_directories(cwl_dir, tmp_path, monkeypatch):
    """A call runs in its worker thread's output and scratch directories,
    which outlive the job; ``repro.clear()`` removes them."""
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.chdir(tmp_path)
    repro.load(repro.thread_config(max_threads=2, run_dir=str(tmp_path / "runinfo")))
    try:
        app = CWLApp(str(cwl_dir / "echo.cwl"))
        for index in range(3):
            assert app(message=f"call {index}", stdout=f"echo-{index}.txt").result() == 0
        assert os.listdir(scratch)
    finally:
        repro.clear()
    assert os.listdir(scratch) == []
    assert (tmp_path / "echo-2.txt").read_text() == "call 2\n"
    assert os.stat(tmp_path / "echo-2.txt").st_nlink == 1


def test_cwl_app_works_on_htex(cwl_dir, parsl_htex_local, tmp_path):
    """CWLApps run identically on the HighThroughputExecutor (worker processes)."""
    app = CWLApp(str(cwl_dir / "echo.cwl"))
    future = app(message="from a worker process", stdout="htex.txt")
    assert future.result() == 0
    assert (tmp_path / "htex.txt").read_text().strip() == "from a worker process"
