"""Each job of the benchmark's `build` workload (`perfbench/workloads.py`),
replayed in process: its exit code, stdout sha256 and report fields must
match the pins there, so that a reordered element or cover fails here and
not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from ncpe.cli import main

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
BUILD_JOBS = WORKLOADS.WORKLOADS["build"]


@pytest.mark.parametrize("job", BUILD_JOBS, ids=[job.name for job in BUILD_JOBS])
def test_build_job_matches_pins(job):
    result = CliRunner().invoke(main, list(job.args))
    assert WORKLOADS.check(job, result.exit_code, result.stdout_bytes) == []
