"""Each job of every benchmark workload (`perfbench/workloads.py`),
replayed in process: its exit code, stdout sha256 and report fields must
match the pins there, so that a reordered element or cover, or a changed
verdict or witness, fails here and not only in a benchmark run."""

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


def jobs(workload):
    """One test per workload, so that a failure names its workload."""
    listed = WORKLOADS.WORKLOADS[workload]
    return pytest.mark.parametrize("job", listed, ids=[job.name for job in listed])


def replay(job):
    result = CliRunner().invoke(main, list(job.args))
    assert WORKLOADS.check(job, result.exit_code, result.stdout_bytes) == []


@jobs("build")
def test_build_job_matches_pins(job):
    replay(job)


@jobs("verify")
def test_verify_job_matches_pins(job):
    replay(job)


@jobs("nbb")
def test_nbb_job_matches_pins(job):
    replay(job)


def test_every_workload_is_replayed():
    assert WORKLOADS.WORKLOADS.keys() == {"build", "verify", "nbb"}
