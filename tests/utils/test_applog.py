"""The append-only log's commit rule, checked through both of its clients.

The run journal and the Toil job store are :mod:`repro.utils.applog` logs,
so every crash case here is written once and run against each: what a torn
tail reads as, what the next append leaves, what a corrupt committed line
raises, and what one record costs in system calls.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.cwl.journal import RunJournal, journal_path, read_journal
from repro.cwl.runners.toil.jobstore import FileJobStore
from repro.utils import applog


class Journal:
    """The run journal as a log of named records."""

    fsyncs_per_record = 1

    def __init__(self, tmp_path) -> None:
        self.run_dir = str(tmp_path)
        self.path = journal_path(self.run_dir)

    def open(self) -> None:
        self.log = RunJournal(self.path)

    def append(self, name: str) -> None:
        self.log.node_state(name, "done")

    def close(self) -> None:
        self.log.close()

    def read(self) -> list:
        return [record["node"] for record in read_journal(self.run_dir)]


class JobStore:
    """The Toil job store as a log of named records."""

    fsyncs_per_record = 0

    def __init__(self, tmp_path) -> None:
        self.store_dir = str(tmp_path / "store")
        self.path = os.path.join(self.store_dir, "jobs", "jobs.jsonl")

    def open(self) -> None:
        self.log = FileJobStore(self.store_dir)

    def append(self, name: str) -> None:
        self.log.create_job(name, state="done")

    def close(self) -> None:
        self.log.close()

    def read(self) -> list:
        with FileJobStore(self.store_dir) as store:
            return [job.name for job in store.list_jobs()]


@pytest.fixture(params=[Journal, JobStore], ids=["journal", "jobstore"])
def client(request, tmp_path):
    return request.param(tmp_path)


def write(client, *names: str) -> None:
    client.open()
    for name in names:
        client.append(name)
    client.close()


def log_bytes(client) -> bytes:
    with open(client.path, "rb") as handle:
        return handle.read()


def tear(client, keep: str) -> None:
    """Cut the last record as a crash mid-append would: to half its bytes,
    or to the whole record without its newline."""
    data = log_bytes(client)
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    end = last + (len(data) - last) // 2 if keep == "half" else len(data) - 1
    with open(client.path, "r+b") as handle:
        handle.truncate(end)


@pytest.mark.parametrize("keep", ["half", "all-but-newline"])
def test_an_unterminated_tail_is_not_a_record(client, keep):
    write(client, "a", "b", "c")
    tear(client, keep)
    assert client.read() == ["a", "b"]


@pytest.mark.parametrize("keep", ["half", "all-but-newline"])
def test_the_first_append_after_a_torn_tail_leaves_only_whole_lines(client, keep):
    write(client, "a", "b", "c")
    tear(client, keep)
    write(client, "d")
    data = log_bytes(client)
    assert data.endswith(b"\n")
    for line in data.split(b"\n")[:-1]:
        json.loads(line)
    assert client.read() == ["a", "b", "d"]


def test_a_torn_sole_record_leaves_an_empty_log(client):
    write(client, "a")
    tear(client, "all-but-newline")
    assert client.read() == []
    write(client, "b")
    assert client.read() == ["b"]


def test_a_short_write_is_cut_off_by_the_next_append(client, monkeypatch):
    """A disk that fills mid-record takes half of it: the append raises, and
    the next one starts from the last committed record."""
    write(client, "a")
    client.open()
    real_write = os.write
    monkeypatch.setattr(applog.os, "write",
                        lambda fd, data: real_write(fd, data[:len(data) // 2]))
    with pytest.raises(OSError):
        client.append("b")
    monkeypatch.undo()
    client.append("c")
    client.close()
    for line in log_bytes(client).split(b"\n")[:-1]:
        json.loads(line)
    assert client.read() == ["a", "c"]


def test_a_committed_line_that_does_not_parse_raises_naming_it(client):
    write(client, "a", "b")
    first, second = log_bytes(client).splitlines(keepends=True)
    with open(client.path, "wb") as handle:
        handle.write(first + b'{"torn": \n' + second)
    with pytest.raises(ValueError, match=re.escape(f"{client.path}:2")):
        client.read()


def test_an_append_after_close_is_dropped(client):
    client.open()
    client.append("a")
    client.close()
    client.append("b")
    client.close()
    assert client.read() == ["a"]


def test_one_write_per_record_and_the_clients_fsync_policy(client, monkeypatch):
    calls = {"write": 0, "fsync": 0}

    def counted(name):
        real = getattr(os, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    client.open()
    monkeypatch.setattr(applog.os, "write", counted("write"))
    monkeypatch.setattr(applog.os, "fsync", counted("fsync"))
    for name in ("a", "b", "c"):
        client.append(name)
    monkeypatch.undo()
    client.close()
    assert calls == {"write": 3, "fsync": 3 * client.fsyncs_per_record}
    assert client.read() == ["a", "b", "c"]
