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

from .builders import (CAPS, BuildError, build_nc, build_pe_dref, build_pi,
                       catalan, check_size, distinguished_chain, pe_members)
from .labelings import (EdgeLabeling, count_decreasing_chains,
                        left_modular_labeling, parking_labeling,
                        usual_labeling, verify_el, verify_sn_el)
from .nbb import (Atom, base_dot, classification_census,
                  enumerate_nbb_bases_top, moebius_via_nbb)
from .parking import build_pe_pchn, count_D
from .partitions import PartitionError, parse_partition
from .posets import FinitePoset

TARGETS = ("pi", "nc", "pe-dref", "pe-pchn")
# the chains method of `mobius` and the EL check walk every maximal chain:
# 66 M of PE_10 and 10^8 of NC_10, so they stop one below the builders' cap
CHAIN_WALK_MAX_N = 9

# After the exit handlers, CPython collects every object still alive:
# click's, the partitions' and the posets'.  With this module imported, the time
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


def _cap(kind: str) -> str:
    """The size cap of `kind` (a key of `CAPS`) as the help text gives it."""
    _, low, high = CAPS[kind]
    return f"n<={high}" if low == 1 else f"{low}<=n<={high}"


def _build(target: str, n: int) -> tuple[FinitePoset, FinitePoset | None]:
    """The target poset, and the PE-dref poset that pe-pchn is cut from."""
    if target == "pi":
        return build_pi(n), None
    if target == "nc":
        return build_nc(n), None
    if target == "pe-dref":
        return build_pe_dref(n), None
    check_size("pe-pchn", n)  # before the larger PE-dref build
    dref = build_pe_dref(n)
    return build_pe_pchn(n, dref), dref


def _labeling(n: int, poset: FinitePoset, dref: FinitePoset | None,
              scheme: str) -> EdgeLabeling:
    """The requested edge labeling; the left-modular scheme on the
    chain-defined order is the restriction from the dref order."""
    if scheme == "parking":
        return parking_labeling(poset)
    if scheme == "usual":
        return usual_labeling(poset)
    if dref is not None:
        return left_modular_labeling(dref, distinguished_chain(n)).restrict(poset)
    return left_modular_labeling(poset, distinguished_chain(n))


def _bound_chain_walk(option: str, target: str, n: int, walker: str, advice: str) -> None:
    """Refuse, before any build, a run whose `walker` would list every
    maximal chain of [0, 1]: n above `CHAIN_WALK_MAX_N` or below the
    target's cap.  pe-pchn keeps its own, lower cap."""
    low = CAPS[target][1]
    if target != "pe-pchn" and not low <= n <= CHAIN_WALK_MAX_N:
        raise click.UsageError(
            f"{option} supports {low} <= n <= {CHAIN_WALK_MAX_N}, got n={n}; "
            f"at n = {CHAIN_WALK_MAX_N + 1} {walker} would walk all "
            f"{'10^8' if target == 'nc' else '66 M'} maximal chains, "
            f"so {advice} there")


def _el_entries(poset: FinitePoset, lam: EdgeLabeling) -> dict:
    """The `el` verdict of a report, with `el_witness` when it fails."""
    verdict = verify_el(poset, lam)
    return {"el": verdict.el, **({"el_witness": verdict.witness} if verdict.witness else {})}


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
    """A subcommand whose callback returns (report, failed).  Prints the
    report, as JSON or as lines with the time on stderr; exits 1 if failed,
    and 2 on a size cap or malformed input (`BuildError`, `PartitionError`)."""

    def invoke(self, ctx: click.Context) -> None:
        start = time.monotonic()
        try:
            report, failed = super().invoke(ctx)
        except (BuildError, PartitionError) as exc:
            raise click.UsageError(str(exc), ctx) from None
        if ctx.params["as_json"]:
            click.echo(json.dumps(report, indent=2, sort_keys=True))
        else:
            _print_human(report)
            click.echo(f"elapsed: {time.monotonic() - start:.2f}s", err=True)
        if failed:
            sys.exit(1)


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


@main.command(help="Build a poset and report element/cover counts.\n\nCaps: "
              + ", ".join(f"{t} {_cap(t)}" for t in TARGETS) + ".")
@click.argument("target", type=click.Choice(TARGETS))
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.option("--dot", "dot_path", type=click.Path(dir_okay=False),
              callback=_output_file,
              help="Write the Hasse diagram as DOT to this file.")
def build(target: str, n: int, as_json: bool, dot_path: str | None) -> tuple[dict, bool]:
    poset = _build(target, n)[0]
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
    return report, False


@main.command(help=f"""Run structural verification suites (exit 1 on any failure).

    Caps follow the builders; 'leftmod' requires a lattice target and is
    skipped under 'all' for pe-pchn.  'el' and 'all' run to
    n = {CHAIN_WALK_MAX_N} on nc and pe-dref, as at n = {CHAIN_WALK_MAX_N + 1} the EL check
    would walk 66 M (PE) or 10^8 (NC) maximal chains.
    """)
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--target", type=click.Choice(("nc", "pe-dref", "pe-pchn")),
              default="pe-dref", show_default=True)
@click.option("--suite", type=click.Choice(
    ("lattice", "graded", "leftmod", "el", "sn-el", "all")),
    default="all", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def verify(n: int, target: str, suite: str, as_json: bool) -> tuple[dict, bool]:
    if target == "pe-pchn" and suite == "leftmod":
        raise click.UsageError(
            "left-modularity needs a lattice; pe-pchn is not one for n>=5")
    if suite in ("el", "all"):
        check_size(target, n)  # the builders' cap is reported first
        _bound_chain_walk(f"--suite {suite}", target, n, "the EL check",
                          "use --suite lattice, graded, leftmod or sn-el")
    poset, dref = _build(target, n)
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
        verdicts["graded"] = poset.is_graded()
    if suite in ("leftmod", "all") and target != "pe-pchn" and check.is_lattice:
        chain = [poset.index(x) for x in distinguished_chain(n)]
        verdicts["left_modular_chain"] = poset.is_left_modular_chain(chain)
    if suite in ("el", "sn-el", "all"):
        lam = _labeling(n, poset, dref, "leftmod")
        if suite in ("el", "all"):
            verdicts.update(_el_entries(poset, lam))
        if suite in ("sn-el", "all"):
            verdicts["sn_el"] = verify_sn_el(poset, lam)
    failed = any(value is False for value in verdicts.values())
    report = {"command": "verify", "target": target, "n": n, "suite": suite,
              "verdicts": verdicts}
    return report, failed


@main.command(help=f"""Moebius value between bottom and top, by independent methods.

    'nbb' sums signed NBB bases and needs a lattice, so it is rejected
    for pe-pchn; 'chains' counts weakly decreasing maximal chains of the
    left-modular labeling.  'chains' and 'all' run to n = {CHAIN_WALK_MAX_N}: at
    n = {CHAIN_WALK_MAX_N + 1} the chains method would walk 66 M (PE) or 10^8 (NC)
    maximal chains, so use 'recursion' or 'nbb' there.  Exit 1 if methods
    or closed form disagree.
    """)
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--target", type=click.Choice(("nc", "pe-dref", "pe-pchn")),
              default="pe-dref", show_default=True)
@click.option("--method", type=click.Choice(
    ("recursion", "nbb", "chains", "all")), default="all", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def mobius(n: int, target: str, method: str, as_json: bool) -> tuple[dict, bool]:
    if method == "nbb" and target == "pe-pchn":
        raise click.UsageError("the NBB method needs a lattice; pe-pchn is not one")
    ambient = "nc" if target == "nc" else "pe"
    use_nbb = method in ("nbb", "all") and target != "pe-pchn"
    if method in ("chains", "all"):
        _bound_chain_walk(f"--method {method}", target, n, "the chains method",
                          "use --method recursion or --method nbb")
    if use_nbb:
        check_size(f"nbb-{ambient}", n)
    if method != "nbb":  # the NBB search needs no poset
        poset, dref = _build(target, n)
    values: dict[str, int] = {}
    if method in ("recursion", "all"):
        values["recursion"] = poset.moebius_bottom_top()
    if use_nbb:
        values["nbb"] = moebius_via_nbb(n, ambient)
    if method in ("chains", "all"):
        lam = _labeling(n, poset, dref, "leftmod")
        sign = (-1) ** poset.rank()
        values["chains"] = sign * count_decreasing_chains(poset, lam)
    closed = _closed_form(target, n)
    agree = set(values.values()) == {closed}
    report = {"command": "mobius", "target": target, "n": n, "method": method,
              "values": values, "agree": agree, "closed_form": closed}
    return report, not agree


def _closed_form(target: str, n: int) -> int:
    """mu(0, 1) of a `mobius` target."""
    if target == "nc":
        return (-1) ** (n - 1) * catalan(n - 1)
    if target == "pe-dref" and n >= 4:
        return (-1) ** (n - 1) * (4 * comb(2 * n - 5, n - 4) // n)
    return 0  # pe-dref below n = 4, and pe-pchn


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
        as_json: bool) -> tuple[dict, bool]:
    """Enumerate NBB bases for the top element and their signed count."""
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
                fh.write(base_dot(base))
        report["trees"] = trees_path
    return report, False


@main.command(help="Maximal chains of the noncrossing lattice as parking "
              "functions, and the family avoiding the label n-1 "
              f"(cap {_cap('pe-pchn')}).")
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--count-only", is_flag=True,
              help="Report only the count; no words even with --words.")
@click.option("--words", "show_words", is_flag=True,
              help="Include the parking words of the avoiding chains.")
@click.option("--json", "as_json", is_flag=True)
def chains(n: int, count_only: bool, show_words: bool, as_json: bool) -> tuple[dict, bool]:
    report: dict = {"command": "chains", "n": n}
    if show_words and not count_only:
        poset = build_pe_pchn(n)  # checks the size cap
        report["avoiding"] = poset.maximal_chain_count()
        lam = parking_labeling(poset)
        report["words"] = sorted("".join(map(str, lam.word(c)))
                                 for c in poset.iter_maximal_chains())
        if len(report["words"]) != report["avoiding"]:
            raise AssertionError("chain count and enumeration disagree")
    else:
        report["avoiding"] = count_D(n)  # checks the size cap
    report["all_chains"] = n ** (n - 2)  # once n is known to be in the cap
    return report, False


@main.command(help="Edge labelings of a poset; optionally verify EL-shellability.\n\n"
              "With the leftmod scheme, or the usual scheme on nc, --check-el runs to "
              f"n = {CHAIN_WALK_MAX_N}, as at n = {CHAIN_WALK_MAX_N + 1} the EL check would walk "
              "66 M (PE) or 10^8 (NC) maximal chains.")
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
          dot_path: str | None, as_json: bool) -> tuple[dict, bool]:
    # at n = 10, parking on nc and pe-dref and usual on pe-dref fail EL on an
    # interval of length two above the bottom, so the EL check stops early
    if check_el and (scheme == "leftmod" or (scheme, target) == ("usual", "nc")):
        check_size(target, n)  # the builders' cap is reported first
        _bound_chain_walk(f"--check-el with --scheme {scheme}", target, n,
                          "the EL check", "leave out --check-el")
    poset, dref = _build(target, n)
    lam = _labeling(n, poset, dref, scheme)
    names = [str(k) for k in poset.keys]
    report: dict = {
        "command": "label", "target": target, "n": n, "scheme": scheme,
        "labels": {f"{names[i]} -> {names[j]}": v
                   for (i, j), v in sorted(lam.labels.items())},
    }
    if check_el:
        report.update(_el_entries(poset, lam))
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(poset.to_dot(edge_labels=lam.labels))
        report["dot"] = dot_path
    return report, check_el and not report["el"]


@main.command("probe-intervals")
@click.option("-n", "n", type=int, required=True, help="Ground-set size.")
@click.option("--lower", default=None,
              help="Lower endpoint, e.g. '1|23|4' (default: the atom with "
                   "block {n-2, n-1}, which is not in PE at n = 3).")
@click.option("--json", "as_json", is_flag=True)
def probe_intervals(n: int, lower: str | None, as_json: bool) -> tuple[dict, bool]:
    """Cardinality of the interval [lower, top] in the PE family under
    dual refinement (membership filtering; no poset matrix needed)."""
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
    return report, False


if __name__ == "__main__":
    main()
