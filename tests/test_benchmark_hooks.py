"""The benchmark (``perfbench/``) times the engine by wrapping its functions
by name, and its sessions read a few more names.  Every one of them must
still exist: a traced run would only list a lost one under missing hooks."""

import importlib.util

import cdgalab
from cdgalab import dsl

from conftest import ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for _, module, path in tracer.SPAN_HOOKS + tracer.COUNT_HOOKS:
        tracer._resolve(module, path)  # raises AttributeError for a lost name


def test_task_runners_and_backend_name_exist():
    assert isinstance(dsl._TASK_RUNNERS, dict) and dsl._TASK_RUNNERS
    assert isinstance(cdgalab.backend_name(), str)
