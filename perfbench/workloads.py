"""Workloads of the benchmark: CLI jobs at fixed n, and what each must print.

Every job is checked twice: against closed forms (Catalan numbers, the PE
element count and Moebius value, parking-function counts) and against the
sha256 of its stdout, pinned when the benchmark was defined, since `--json`
output must stay byte-identical.  Inputs are fixed by n; the workload seed
only permutes the job order.

Why these workloads: each puts most of its time into different modules.
`nbb` is the NBB search with its joins (partitions, builders.pe_join, nbb)
and builds no poset.  `verify` certifies posets: lattice tables,
left-modularity, Moebius values and EL labelings (posets, labelings,
parking), with the failing `pe-pchn` verdict and its exit 1.  `build`
builds and prints posets on both sides of the `from_covers` validation
switch at 2000 elements (NC_7 with 429 elements validated, PE_9 with 4004
not), and covers parking chains and `leq_dref` without a poset.

Why these sizes: every job takes about 0.1 to 3 s.  The host's speed
drifts, and the calibration loop run around each job (run.py) tracks it
only over a second or two, so a run is many short jobs rather than a few
long ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from math import comb


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def pe_size(n: int) -> int:
    """|PE_n|: noncrossing partitions minus those with the block {n-1, n}
    and those with {n} a singleton while 1 ~ n-1 (Catalan(n-2) each)."""
    return catalan(n) - 2 * catalan(n - 2)


def pe_mobius(n: int) -> int:
    """Moebius value of PE_n under dual refinement: (-1)^(n-1) 4/n C(2n-5, n-4)."""
    return (-1) ** (n - 1) * 4 * comb(2 * n - 5, n - 4) // n


def nc_mobius(n: int) -> int:
    """Moebius value of the noncrossing lattice NC_n: (-1)^(n-1) C(n-1)."""
    return (-1) ** (n - 1) * catalan(n - 1)


def nc_covers(n: int) -> int:
    """Cover relations of the noncrossing lattice NC_n: C(2n, n-2)."""
    return comb(2 * n, n - 2)


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `fields` maps a dotted path in the report to
    its expected value; a path ending in '#' is compared by length."""

    name: str
    args: tuple[str, ...]
    exit: int
    fields: dict
    sha256: str


def _job(name: str, cmdline: str, exit: int, fields: dict, sha256: str) -> Job:
    return Job(name, tuple(cmdline.split()), exit, fields, sha256)


ALL_EL = {"lattice": True, "graded": True, "left_modular_chain": True,
          "el": True, "sn_el": True}

WORKLOADS: dict[str, list[Job]] = {
    "nbb": [
        _job("nbb-nc-7", "nbb -n 7 --classify --json", 0, {
            "bases": catalan(6), "base_atoms#": catalan(6), "mobius": nc_mobius(7),
            "census.S1": catalan(4), "census.S2": catalan(5),
            "census.R": catalan(5), "census.kept": abs(pe_mobius(7)),
        }, "a1aa9dcc970000bbb2e9a3dfabc1de1c1a1d4dd2e69b7b5af4c822de87422bb5"),
        _job("nbb-pe-7", "nbb -n 7 --ambient pe --json", 0, {
            "bases": abs(pe_mobius(7)), "base_atoms#": abs(pe_mobius(7)),
            "mobius": pe_mobius(7),
        }, "7456da70a46619ea4b6bceb1fba7810e559a545f851f8e6815bc6150c17fe438"),
    ],
    "verify": [
        _job("verify-nc-6", "verify -n 6 --target nc --json", 0,
             {"verdicts": ALL_EL},
             "fdbb1bff5a842098f102cb75b6618a3452b948b2b829e5c4535ff80aad5907ed"),
        _job("verify-pe-dref-6", "verify -n 6 --target pe-dref --json", 0,
             {"verdicts": ALL_EL},
             "8518a3d3b847d7a5e5cc6bdabede72351c47427c723cba0a378acdf3d6a5761a"),
        _job("verify-pe-pchn-7", "verify -n 7 --target pe-pchn --json", 1, {
            "verdicts": {"lattice": False, "graded": True, "el": True, "sn_el": True,
                         "lattice_witness": {"pair": ["1|2|3|4|56|7", "1|2|3|4|567"],
                                             "reason": "no unique join"}},
        }, "fac49eadeaab8989ba9c04d4ad1704363e2d2b45fbc8626170759e3244d727b5"),
        _job("mobius-pe-pchn-7", "mobius -n 7 --target pe-pchn --json", 0, {
            "values": {"recursion": 0, "chains": 0}, "agree": True, "closed_form": 0,
        }, "a5ae10f808b00650c424853a40a17fec779934d8f11c4a30f1efcd3e28c9cd13"),
        _job("label-nc-7", "label -n 7 --target nc --scheme usual --check-el --json", 0,
             {"el": True, "labels#": nc_covers(7)},
             "d5387ce983f2bfd540fabee4147c96a9addcc8af3be6b5d026a60a3cbb3423be"),
    ],
    "build": [
        _job("build-nc-7", "build nc -n 7 --json", 0, {
            "elements": catalan(7), "covers": nc_covers(7),
            "poset.elements#": catalan(7), "poset.covers#": nc_covers(7),
        }, "3b21e85737f37717ee08220256f94f9ce5ec3aa4a7907d5890b58754f5bd2c7c"),
        _job("chains-7", "chains -n 7 --count-only --json", 0, {
            # parking functions of length 6, and those avoiding the value 6
            "all_chains": 7 ** 5, "avoiding": 7 ** 5 - 6 ** 5,
        }, "23af1344f45e1779591e41ef02e19ec6b5d23a17aefd20423250f738cab097ba"),
        _job("build-pe-dref-9", "build pe-dref -n 9", 0, {
            "elements": pe_size(9), "covers": 24960,  # pinned, no closed form
        }, "c6140ca8271ea86da66f77486c71da4cb55cc58f5698fcd6eb89dc2d9a86b0c0"),
        _job("probe-intervals-9", "probe-intervals -n 9 --json", 0, {
            "interval_size": 1298, "lower": "1|2|3|4|5|6|78|9",
        }, "5f0003771bbc6a337b6923e0d6a137f38bdca58d5dd433a1be747c96612c7a94"),
    ],
}

# Per-layer metrics that must read non-zero in a traced run of each
# workload: the layers whose work that workload is meant to exercise.  A
# zero here means a wrapper was patched into the wrong namespace.
LAYER_WORK: dict[str, list[str]] = {
    "nbb": [
        "partitions.nc_join.calls", "partitions.nc_join.s", "partitions.nc_closure.s",
        "partitions.SetPartition.created", "builders.pe_join.calls",
        "builders.pe_join.self_s", "nbb.enumerate_nbb_bases_top.s",
        "nbb.enumerate_nbb_bases_top.self_s", "nbb.enumerate_nbb_bases_top.count",
        "nbb.is_bb.calls", "nbb.is_bb.s", "nbb.classification_census.s", "nbb.yield",
        "cli.nbb.s", "cli.nbb.self_s", "trace.wall_s",
    ],
    "verify": [
        "posets.lattice_check.calls", "posets.lattice_check.s",
        "posets.is_left_modular_chain.calls", "posets.is_left_modular_chain.s",
        "posets.moebius_bottom_top.s", "posets.interval_maximal_chains.calls",
        "posets.interval_maximal_chains.count", "posets.iter_maximal_chains.count",
        "labelings.left_modular_labeling.self_s", "labelings.verify_el.self_s",
        "labelings.verify_sn_el.s", "labelings.count_decreasing_chains.s",
        "parking.build_pe_pchn.self_s", "cli.verify.s", "cli.verify.self_s",
        "cli.mobius.s", "cli.mobius.self_s", "cli.label.s", "cli.label.self_s",
        "trace.wall_s",
    ],
    "build": [
        "partitions.SetPartition.created", "partitions.leq_dref.calls",
        "builders.enumerate_noncrossing.s", "builders.pe_members.s",
        "builders.build.self_s", "posets.from_covers.calls", "posets.from_covers.s",
        "posets.from_covers.rss_mb", "posets.to_json.s", "labelings.parking_label.calls",
        "parking.count_D.self_s", "cli.build.s", "cli.build.self_s", "cli.chains.s",
        "cli.chains.self_s", "cli.probe-intervals.s", "cli.probe-intervals.self_s",
        "trace.wall_s",
    ],
}


def parse_report(stdout: bytes):
    """The report as a dict: JSON with --json, 'key: value' lines otherwise."""
    text = stdout.decode()
    if text.startswith("{"):
        return json.loads(text)
    report = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        report[key] = int(value) if value.lstrip("-").isdigit() else value
    return report


def _lookup(report, path: str):
    value = report
    for part in path.rstrip("#").split("."):
        value = value[part]
    return len(value) if path.endswith("#") else value


def check(job: Job, exit_code: int, stdout: bytes) -> list[str]:
    """Problems with one job's result; empty when it is correct."""
    problems = []
    if exit_code != job.exit:
        problems.append(f"exit code {exit_code}, expected {job.exit}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != job.sha256:
        problems.append(f"stdout sha256 {digest}, expected {job.sha256}")
    try:
        report = parse_report(stdout)
    except ValueError as exc:
        return problems + [f"unparsable output: {exc}"]
    for path, want in job.fields.items():
        try:
            got = _lookup(report, path)
        except (KeyError, TypeError) as exc:
            problems.append(f"{path}: missing ({exc!r})")
            continue
        if got != want:
            problems.append(f"{path}: got {got!r}, expected {want!r}")
    return problems


def self_check(job: Job, exit_code: int, stdout: bytes) -> list[str]:
    """Confirm that `check` rejects deliberately wrong expectations for a
    result it accepted: a wrong field, a wrong digest, a wrong exit code."""
    path, want = next(iter(job.fields.items()))
    wrong = {
        "field": replace(job, fields={path: [want]}),
        "digest": replace(job, sha256="0" * 64),
        "exit": replace(job, exit=job.exit + 1),
    }
    return [f"self-check: a wrong {kind} was not caught on {job.name}"
            for kind, bad in wrong.items() if not check(bad, exit_code, stdout)]
