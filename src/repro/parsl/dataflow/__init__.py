"""The dataflow kernel: futures, task records, task states and the DFK itself."""

from repro.parsl.dataflow.futures import AppFuture, DataFuture
from repro.parsl.dataflow.states import States
from repro.parsl.dataflow.taskrecord import TaskRecord
from repro.parsl.dataflow.dflow import DataFlowKernel, DataFlowKernelLoader

__all__ = [
    "AppFuture",
    "DataFlowKernel",
    "DataFlowKernelLoader",
    "DataFuture",
    "States",
    "TaskRecord",
]
