"""Command-line front end: build the posets, run the verification
suites, compute Moebius values by every available method, and export
Hasse diagrams or noncrossing trees as DOT.

Exit codes: 0 all requested verdicts pass, 1 at least one verdict
fails, 2 usage error (including size caps).  With --json the report is
byte-identical across runs; timing goes to stderr in human mode only.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
import time
from math import comb

import click

from .builders import (BuildError, build_nc, build_pe_dref, build_pi, catalan,
                       distinguished_chain, pe_members)
from .labelings import (EdgeLabeling, count_decreasing_chains,
                        left_modular_labeling, parking_labeling,
                        usual_labeling, verify_el, verify_sn_el)
from .nbb import (Atom, base_to_tree, check_nbb_size, classification_census,
                  enumerate_nbb_bases_top, moebius_via_nbb)
from .parking import build_pe_pchn, count_D
from .partitions import PartitionError, parse_partition
from .posets import FinitePoset

TARGETS = ("pi", "nc", "pe-dref", "pe-pchn")

# After the exit handlers, CPython collects every object still alive:
# numpy's, click's and the posets'.  With this module imported, the time
# from `main` returning to the process being reaped was 0.04-0.06 s on a
# 2-vCPU Xeon, against 0.011 s for a bare interpreter, where most
# commands of the benchmark spend 0.02-0.2 s on their work (BENCH_17.json).
# Freezing those objects into the permanent generation, which no
# collection visits, cuts it to 0.008-0.016 s.  Exit codes, the other
# exit handlers and the flush of stdout and stderr are untouched.
# gc.disable() does not stop the final collection, and os._exit() would
# skip the other handlers and the flush.  Registered here, not in the
# package, so that importing the library alone leaves exit as it is.
atexit.register(gc.freeze)


def _build(target: str, n: int) -> FinitePoset:
    if target == "pi":
        return build_pi(n)
    if target == "nc":
        return build_nc(n)
    if target == "pe-dref":
        return build_pe_dref(n)
    return build_pe_pchn(n)


def _labeling(target: str, n: int, poset: FinitePoset, scheme: str) -> EdgeLabeling:
    """The requested edge labeling; the left-modular scheme on the
    chain-defined order is the restriction from the dref order."""
    if scheme == "parking":
        return parking_labeling(poset)
    if scheme == "usual":
        return usual_labeling(poset)
    if target == "pe-pchn":
        dref = build_pe_dref(n)
        lam = left_modular_labeling(dref, distinguished_chain(n))
        return lam.restrict(poset)
    return left_modular_labeling(poset, distinguished_chain(n))


def _emit(report: dict, as_json: bool, failed: bool, started: float) -> None:
    if as_json:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_human(report)
        click.echo(f"elapsed: {time.monotonic() - started:.2f}s", err=True)
    if failed:
        sys.exit(1)


def _print_human(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            click.echo(f"{pad}{key}:")
            _print_human(value, indent + 1)
        elif isinstance(value, list):
            click.echo(f"{pad}{key}: " + ", ".join(str(v) for v in value))
        else:
            click.echo(f"{pad}{key}: {value}")


class _Command(click.Command):
    """A subcommand that reports a size cap or malformed input, raised
    as `BuildError` or `PartitionError`, as a usage error (exit 2)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (BuildError, PartitionError) as exc:
            raise click.UsageError(str(exc), ctx) from None


def _output_file(ctx: click.Context, param: click.Parameter,
                 path: str | None) -> str | None:
    """Reject an output file that cannot be written, as a usage error,
    while the options are parsed and so before anything is built."""
    if path is not None:
        target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
        if not os.access(target, os.W_OK):
            raise click.BadParameter(f"cannot write to {path!r}: {target!r} "
                                     "does not exist or is not writable", ctx, param)
    return path


@click.group()
def main() -> None:
    """Exact computations on noncrossing-partition posets."""


main.command_class = _Command


@main.command()
@click.argument("target", type=click.Choice(TARGETS))
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False),
              callback=_output_file,
              help="Write the Hasse diagram as DOT to this file.")
def build(target: str, n: int, as_json: bool, dot_path: str | None) -> None:
    """Build a poset and report element/cover counts.

    Caps: pi n<=9, nc n<=10, pe-dref 3<=n<=10, pe-pchn 3<=n<=8.
    """
    started = time.monotonic()
    poset = _build(target, n)
    report = {
        "command": "build", "target": target, "n": n,
        "elements": len(poset.keys), "covers": len(poset.covers),
    }
    if as_json:
        report["poset"] = json.loads(poset.to_json())
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(poset.to_dot())
        report["dot"] = dot_path
    _emit(report, as_json, failed=False, started=started)


@main.command()
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--target", type=click.Choice(("nc", "pe-dref", "pe-pchn")),
              default="pe-dref", show_default=True)
@click.option("--suite", type=click.Choice(
    ("lattice", "graded", "leftmod", "el", "sn-el", "all")),
    default="all", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def verify(n: int, target: str, suite: str, as_json: bool) -> None:
    """Run structural verification suites (exit 1 on any failure).

    Caps follow the builders; 'leftmod' requires a lattice target and is
    skipped under 'all' for pe-pchn.
    """
    started = time.monotonic()
    if target == "pe-pchn" and suite == "leftmod":
        raise click.UsageError(
            "left-modularity needs a lattice; pe-pchn is not one for n>=5")
    poset = _build(target, n)
    verdicts: dict[str, object] = {}
    check = None
    if suite in ("lattice", "leftmod", "all"):
        check = poset.lattice_check()
        verdicts["lattice"] = check.is_lattice
        if not check.is_lattice and check.witness is not None:
            verdicts["lattice_witness"] = {
                "pair": [str(k) for k in check.witness],
                "reason": check.reason,
            }
    if suite in ("graded", "all"):
        verdicts["graded"] = poset.is_graded()[0]
    if suite in ("leftmod", "all") and target != "pe-pchn" and check.is_lattice:
        chain = [poset.index(x) for x in distinguished_chain(n)]
        verdicts["left_modular_chain"] = poset.is_left_modular_chain(chain)
    if suite in ("el", "sn-el", "all"):
        lam = _labeling(target, n, poset, "leftmod")
        if suite in ("el", "all"):
            verdict = verify_el(poset, lam)
            verdicts["el"] = verdict.el
            if verdict.witness:
                verdicts["el_witness"] = verdict.witness
        if suite in ("sn-el", "all"):
            verdicts["sn_el"] = verify_sn_el(poset, lam)
    failed = any(value is False for value in verdicts.values())
    report = {"command": "verify", "target": target, "n": n, "suite": suite,
              "verdicts": verdicts}
    _emit(report, as_json, failed=failed, started=started)


@main.command()
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--target", type=click.Choice(("nc", "pe-dref", "pe-pchn")),
              default="pe-dref", show_default=True)
@click.option("--method", type=click.Choice(
    ("recursion", "nbb", "chains", "all")), default="all", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def mobius(n: int, target: str, method: str, as_json: bool) -> None:
    """Moebius value between bottom and top, by independent methods.

    'nbb' sums signed NBB bases and needs a lattice, so it is rejected
    for pe-pchn; 'chains' counts weakly decreasing maximal chains of the
    left-modular labeling.  Exit 1 if methods or closed form disagree.
    """
    started = time.monotonic()
    if method == "nbb" and target == "pe-pchn":
        raise click.UsageError("the NBB method needs a lattice; pe-pchn is not one")
    ambient = "nc" if target == "nc" else "pe"
    use_nbb = method in ("nbb", "all") and target != "pe-pchn"
    if use_nbb:
        check_nbb_size(n, ambient)
    poset = _build(target, n)
    values: dict[str, int] = {}
    if method in ("recursion", "all"):
        values["recursion"] = poset.moebius_bottom_top()
    if use_nbb:
        values["nbb"] = moebius_via_nbb(n, ambient)
    if method in ("chains", "all"):
        lam = _labeling(target, n, poset, "leftmod")
        sign = (-1) ** poset.rank()
        values["chains"] = sign * count_decreasing_chains(poset, lam)
    closed = _closed_form(target, n)
    agree = len(set(values.values())) == 1 and (
        closed is None or closed == next(iter(values.values())))
    report = {"command": "mobius", "target": target, "n": n,
              "method": method, "values": values, "agree": agree}
    if closed is not None:
        report["closed_form"] = closed
    _emit(report, as_json, failed=not agree, started=started)


def _closed_form(target: str, n: int) -> int | None:
    if target == "nc":
        return (-1) ** (n - 1) * catalan(n - 1)
    if target == "pe-dref":
        if n < 4:
            return 0
        return (-1) ** (n - 1) * (4 * comb(2 * n - 5, n - 4) // n)
    if target == "pe-pchn":
        return 0
    return None


@main.command()
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--ambient", type=click.Choice(("nc", "pe")), default="nc",
              show_default=True)
@click.option("--classify", "do_classify", is_flag=True,
              help="Census of the discard classes (nc ambient only).")
@click.option("--trees", "trees_path", type=click.Path(dir_okay=False),
              callback=_output_file,
              help="Write all base trees as DOT to this file.")
@click.option("--json", "as_json", is_flag=True)
def nbb(n: int, ambient: str, do_classify: bool, trees_path: str | None,
        as_json: bool) -> None:
    """Enumerate NBB bases for the top element and their signed count."""
    started = time.monotonic()
    if do_classify and ambient != "nc":
        raise click.UsageError("--classify applies to the nc ambient")
    census = classification_census(n) if do_classify else None
    bases = enumerate_nbb_bases_top(n, ambient)
    report = {
        "command": "nbb", "ambient": ambient, "n": n,
        "bases": len(bases), "mobius": moebius_via_nbb(n, ambient),
        "base_atoms": [[f"{a.i},{a.j}" for a in base] for base in bases],
    }
    if do_classify:
        report["census"] = census
    if trees_path:
        with open(trees_path, "w") as fh:
            for base in bases:
                fh.write(base_to_tree(base, n).to_dot())
        report["trees"] = trees_path
    _emit(report, as_json, failed=False, started=started)


@main.command()
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--count-only", is_flag=True,
              help="Report only the count; no words even with --words.")
@click.option("--words", "show_words", is_flag=True,
              help="Include the parking words of the avoiding chains.")
@click.option("--json", "as_json", is_flag=True)
def chains(n: int, count_only: bool, show_words: bool, as_json: bool) -> None:
    """Maximal chains of the noncrossing lattice as parking functions,
    and the family avoiding the label n-1 (cap 3<=n<=8)."""
    started = time.monotonic()
    avoiding = count_D(n)  # checks the size cap before n ** (n - 2)
    report: dict = {"command": "chains", "n": n,
                    "all_chains": n ** (n - 2), "avoiding": avoiding}
    if show_words and not count_only:
        lam = parking_labeling(build_pe_pchn(n))
        words = sorted("".join(map(str, lam.word(c)))
                       for c in lam.poset.iter_maximal_chains())
        if len(words) != avoiding:
            raise AssertionError("chain count and enumeration disagree")
        report["words"] = words
    _emit(report, as_json, failed=False, started=started)


@main.command()
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--target", type=click.Choice(("nc", "pe-dref", "pe-pchn")),
              default="pe-dref", show_default=True)
@click.option("--scheme", type=click.Choice(("leftmod", "parking", "usual")),
              default="leftmod", show_default=True)
@click.option("--check-el", is_flag=True, help="Also verify the EL-property.")
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False),
              callback=_output_file,
              help="Write the labeled Hasse diagram as DOT to this file.")
@click.option("--json", "as_json", is_flag=True)
def label(n: int, target: str, scheme: str, check_el: bool,
          dot_path: str | None, as_json: bool) -> None:
    """Edge labelings of a poset; optionally verify EL-shellability."""
    started = time.monotonic()
    poset = _build(target, n)
    lam = _labeling(target, n, poset, scheme)
    names = [str(k) for k in poset.keys]
    report: dict = {
        "command": "label", "target": target, "n": n, "scheme": scheme,
        "labels": {f"{names[i]} -> {names[j]}": v
                   for (i, j), v in sorted(lam.labels.items())},
    }
    failed = False
    if check_el:
        verdict = verify_el(poset, lam)
        report["el"] = verdict.el
        if verdict.witness:
            report["el_witness"] = verdict.witness
        failed = not verdict.el
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(poset.to_dot(edge_labels=lam.labels))
        report["dot"] = dot_path
    _emit(report, as_json, failed=failed, started=started)


@main.command("probe-intervals")
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--lower", default=None,
              help="Lower endpoint, e.g. '1|23|4' (default: the atom with "
                   "block {n-2, n-1}, which is not in PE at n = 3).")
@click.option("--json", "as_json", is_flag=True)
def probe_intervals(n: int, lower: str | None, as_json: bool) -> None:
    """Cardinality of the interval [lower, top] in the PE family under
    dual refinement (membership filtering; no poset matrix needed)."""
    started = time.monotonic()
    members = pe_members(n)
    x = Atom(n - 2, n - 1).partition(n) if lower is None else parse_partition(lower, n)
    if x not in set(members):
        if lower is None:  # only at n = 3, where 12|3 is excluded
            raise click.UsageError(
                f"the default lower endpoint {x} (the atom {{{n - 2}, {n - 1}}}) "
                f"is not in the PE family for n={n}; give one with --lower")
        raise click.UsageError(f"{x} is not in the PE family for n={n}")
    count = sum(1 for z in members if x.leq_dref(z))
    report = {"command": "probe-intervals", "n": n, "lower": str(x),
              "interval_size": count}
    _emit(report, as_json, failed=False, started=started)


if __name__ == "__main__":
    main()
