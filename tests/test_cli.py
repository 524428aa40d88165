"""Command-line interface: subcommands, exit codes, determinism, DOT."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner

import ncpe
from ncpe.builders import CAPS as SRC_CAPS
from ncpe.builders import build_nc, distinguished_chain
from ncpe.cli import TARGETS, _closed_form, main
from ncpe.parking import build_pe_pchn
from ncpe.posets import FinitePoset
from reference import build_D, chain_parking_word


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, *args):
    result = runner.invoke(main, [*args, "--json"])
    assert result.exit_code in (0, 1), result.output
    return result.exit_code, json.loads(result.output)


class TestBuild:
    def test_counts(self, runner):
        code, report = run_json(runner, "build", "pe-dref", "-n", "4")
        assert code == 0
        assert report["elements"] == 10 and report["covers"] == 16
        code, report = run_json(runner, "build", "nc", "-n", "4")
        assert report["elements"] == 14
        code, report = run_json(runner, "build", "pi", "-n", "1")
        assert report["elements"] == 1

    def test_cap_is_usage_error(self, runner):
        result = runner.invoke(main, ["build", "pi", "-n", "10"])
        assert result.exit_code == 2
        assert "1 <= n <= 9" in result.output

    def test_json_poset_payload(self, runner):
        _, report = run_json(runner, "build", "pe-pchn", "-n", "4")
        assert len(report["poset"]["covers"]) == 15

    def test_dot_export(self, runner, tmp_path):
        out = tmp_path / "hasse.dot"
        result = runner.invoke(main, ["build", "nc", "-n", "3", "--dot", str(out)])
        assert result.exit_code == 0
        text = out.read_text()
        assert text.startswith("digraph") and "rankdir=BT" in text


class TestUnwritableOutput:
    """An output file that cannot be written is a usage error, found
    before anything is built or searched."""

    @pytest.mark.parametrize("args", [
        ["build", "nc", "-n", "4", "--dot"],
        ["label", "-n", "4", "--dot"],
        ["nbb", "-n", "4", "--trees"],
    ])
    def test_missing_directory(self, runner, monkeypatch, tmp_path, args):
        def no_work(*_):
            raise AssertionError("work started before the output path was checked")

        monkeypatch.setattr("ncpe.cli._build", no_work)
        monkeypatch.setattr("ncpe.cli.enumerate_nbb_bases_top", no_work)
        path = str(tmp_path / "missing" / "x.dot")
        result = runner.invoke(main, [*args, path])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"cannot write to {path!r}" in result.output
        assert "Traceback" not in result.output


class TestVerify:
    def test_all_pass_on_pe_dref(self, runner):
        code, report = run_json(runner, "verify", "-n", "5")
        assert code == 0
        verdicts = report["verdicts"]
        assert verdicts["lattice"] and verdicts["graded"]
        assert verdicts["left_modular_chain"]
        assert verdicts["el"] and verdicts["sn_el"]

    def test_smallest_case(self, runner):
        code, _ = run_json(runner, "verify", "-n", "3")
        assert code == 0

    def test_pchn_lattice_failure_has_witness(self, runner):
        code, report = run_json(runner, "verify", "-n", "5",
                                "--target", "pe-pchn", "--suite", "lattice")
        assert code == 1
        assert report["verdicts"]["lattice"] is False
        assert len(report["verdicts"]["lattice_witness"]["pair"]) == 2

    def test_pchn_builds_dref_once(self, runner, monkeypatch):
        """The chain-defined order and its restricted left-modular labeling
        are cut from one PE-dref poset."""
        built = []
        build_pe_dref = ncpe.builders.build_pe_dref

        def counted(n):
            built.append(n)
            return build_pe_dref(n)

        for module in ("ncpe.cli", "ncpe.parking"):
            monkeypatch.setattr(f"{module}.build_pe_dref", counted)
        code, report = run_json(runner, "verify", "-n", "5", "--target", "pe-pchn")
        assert code == 1 and report["verdicts"]["el"] is True
        assert built == [5]

    def test_graded_suite_builds_no_tables(self, runner, monkeypatch):
        def no_tables(self):
            raise AssertionError("lattice tables built for --suite graded")

        monkeypatch.setattr("ncpe.posets.FinitePoset._lattice", property(no_tables))
        code, report = run_json(runner, "verify", "-n", "5", "--suite", "graded")
        assert code == 0 and report["verdicts"] == {"graded": True}

    def test_chain_checked_once(self, runner, monkeypatch):
        """The left-modular labeling reuses the verdicts on the chain that
        the leftmod suite has just checked."""
        checked = []
        is_left_modular = FinitePoset.is_left_modular

        def counted(self, x):
            checked.append(x)
            return is_left_modular(self, x)

        monkeypatch.setattr(FinitePoset, "is_left_modular", counted)
        code, report = run_json(runner, "verify", "-n", "6")
        assert code == 0
        assert report["verdicts"]["left_modular_chain"] and report["verdicts"]["el"]
        assert len(checked) == len(set(checked)) == len(distinguished_chain(6))

    def test_leftmod_on_pchn_rejected(self, runner, monkeypatch):
        def no_build(target, n):
            raise AssertionError("poset built before the usage check")

        monkeypatch.setattr("ncpe.cli._build", no_build)
        result = runner.invoke(
            main, ["verify", "-n", "5", "--target", "pe-pchn",
                   "--suite", "leftmod"])
        assert result.exit_code == 2


class TestMobius:
    def test_pe_dref_agreement(self, runner):
        code, report = run_json(runner, "mobius", "-n", "6")
        assert code == 0
        assert report["agree"]
        assert set(report["values"].values()) == {-14}
        assert report["closed_form"] == -14

    def test_pchn_zero(self, runner):
        code, report = run_json(runner, "mobius", "-n", "5",
                                "--target", "pe-pchn")
        assert code == 0
        assert set(report["values"].values()) == {0}

    def test_nc_small(self, runner):
        code, report = run_json(runner, "mobius", "-n", "2", "--target", "nc")
        assert code == 0 and report["closed_form"] == -1

    def test_pe_closed_form_is_exact(self):
        """4 * C(2n-5, n-4) is divisible by n, and the integer form equals
        (-1)^(n-1) * (4/n) * C(2n-5, n-4) as an exact fraction."""
        for n in range(4, 61):
            assert 4 * comb(2 * n - 5, n - 4) % n == 0
            want = (-1) ** (n - 1) * Fraction(4, n) * comb(2 * n - 5, n - 4)
            got = _closed_form("pe-dref", n)
            assert type(got) is int and got == want, n

    def test_nbb_on_pchn_rejected(self, runner):
        result = runner.invoke(
            main, ["mobius", "-n", "5", "--target", "pe-pchn",
                   "--method", "nbb"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("target", ["nc", "pe-dref"])
    @pytest.mark.parametrize("method", ["nbb", "all"])
    def test_nbb_cap_checked_before_build(self, runner, monkeypatch,
                                          target, method):
        """NBB runs to n = 10, and `--method all` to n = 9 (below)."""
        def no_build(target, n):
            raise AssertionError("poset built before the NBB cap check")

        monkeypatch.setattr("ncpe.cli._build", no_build)
        result = runner.invoke(
            main, ["mobius", "-n", "11", "--target", target,
                   "--method", method])
        assert result.exit_code == 2
        assert ("n <= 10" if method == "nbb" else "n <= 9") in result.output

    @pytest.mark.parametrize("target, value", [("nc", -42), ("pe-dref", -14)])
    def test_nbb_method_builds_no_poset(self, runner, monkeypatch, target, value):
        """The NBB search reads no poset, so `--method nbb` builds none."""
        def no_build(target, n):
            raise AssertionError("poset built for --method nbb")

        monkeypatch.setattr("ncpe.cli._build", no_build)
        code, report = run_json(runner, "mobius", "-n", "6", "--target", target,
                                "--method", "nbb")
        assert code == 0 and report["agree"]
        assert report["values"] == {"nbb": value} and report["closed_form"] == value

    @pytest.mark.parametrize("target, walk", [("nc", "10^8"), ("pe-dref", "66 M")])
    @pytest.mark.parametrize("method", ["all", "chains"])
    def test_all_methods_refused_at_10_before_build(self, runner, monkeypatch,
                                                    target, walk, method):
        """At n = 10 the builders and the NBB cap admit `--method all` and
        `--method chains`, but the chains method would walk every maximal
        chain, so both are refused first."""
        def no_work(*_):
            raise AssertionError(f"work started before the --method {method} check")

        monkeypatch.setattr("ncpe.cli._build", no_work)
        monkeypatch.setattr("ncpe.cli.moebius_via_nbb", no_work)
        result = runner.invoke(main, ["mobius", "-n", "10", "--target", target,
                                      "--method", method])
        assert result.exit_code == 2
        assert f"--method {method} supports" in result.output
        assert "n <= 9, got n=10" in result.output
        assert f"walk all {walk} maximal chains" in result.output
        assert "--method recursion or --method nbb" in result.output


class TestChainWalkBound:
    """At n = 10 the EL check of `verify --suite el|all` and of
    `label --check-el` would list every maximal chain of [0, 1] before it
    judges the bottom, unless the labeling fails on an interval of length
    two above it: the left-modular labeling on nc and pe-dref, and the
    usual one on nc, do not.  Those runs are refused before any build."""

    @pytest.mark.parametrize("args, option, walk", [
        ("verify --suite el --target nc", "--suite el", "10^8"),
        ("verify --suite all --target nc", "--suite all", "10^8"),
        ("verify --suite el", "--suite el", "66 M"),
        ("verify", "--suite all", "66 M"),
        ("label --check-el --target nc", "--check-el with --scheme leftmod", "10^8"),
        ("label --check-el", "--check-el with --scheme leftmod", "66 M"),
        ("label --check-el --target nc --scheme usual", "--check-el with --scheme usual",
         "10^8"),
    ])
    def test_refused_at_10_before_build(self, runner, monkeypatch, args, option, walk):
        def no_build(*_):
            raise AssertionError(f"poset built before the {option} check")

        monkeypatch.setattr("ncpe.cli._build", no_build)
        result = runner.invoke(main, [*args.split(), "-n", "10", "--json"])
        assert result.exit_code == 2
        low = 1 if "nc" in args.split() else 3
        assert f"{option} supports {low} <= n <= 9, got n=10" in result.output
        assert f"the EL check would walk all {walk} maximal chains" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args", [
        "label --scheme parking --check-el",
        "label --scheme parking --check-el --target nc",
        "label --scheme usual --check-el",
        "label",
        "verify --suite sn-el",
        "verify --suite lattice --target nc",
    ])
    def test_runs_that_stop_early_or_walk_no_chains_reach_the_build(
            self, runner, monkeypatch, args):
        """The labelings that fail on an interval of length two above the
        bottom, and the suites without the EL check, still run at n = 10."""
        class Reached(Exception):
            pass

        def reached(*_):
            raise Reached

        monkeypatch.setattr("ncpe.cli._build", reached)
        result = runner.invoke(main, [*args.split(), "-n", "10", "--json"])
        assert isinstance(result.exception, Reached), result.output


class TestNbbChainsLabel:
    def test_nbb_census(self, runner):
        code, report = run_json(runner, "nbb", "-n", "5", "--classify")
        assert code == 0
        assert report["bases"] == 14 and report["mobius"] == 14
        assert report["census"] == {"S1": 2, "S2": 5, "R": 5, "kept": 4}

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_classify_small_n_is_usage_error(self, runner, monkeypatch, n):
        def no_search(n, ambient):
            raise AssertionError("bases enumerated before the size check")

        monkeypatch.setattr("ncpe.cli.enumerate_nbb_bases_top", no_search)
        result = runner.invoke(main, ["nbb", "-n", n, "--classify"])
        assert result.exit_code == 2
        assert "n >= 3" in result.output

    def test_nbb_trees_export(self, runner, tmp_path):
        out = tmp_path / "trees.dot"
        result = runner.invoke(main, ["nbb", "-n", "4", "--trees", str(out)])
        assert result.exit_code == 0
        assert out.read_text().count("graph nctree") == 5

    # sha256 of the `nbb -n 6 --trees` file, so that a change to the order
    # of the trees or of their edges shows up
    TREES_PINNED = {
        "nc": "0f426c680539d144f63ed909e9f9e4d37a586b6ca223d60d4585b5fa91e764e9",
        "pe": "8c029103e95409b1b7151a2620481dee0218791117b075e7fc001051c324a27b",
    }

    @pytest.mark.parametrize("ambient", sorted(TREES_PINNED))
    def test_nbb_trees_bytes(self, runner, tmp_path, ambient):
        out = tmp_path / "trees.dot"
        result = runner.invoke(main, ["nbb", "-n", "6", "--ambient", ambient,
                                      "--trees", str(out)])
        assert result.exit_code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.TREES_PINNED[ambient]

    def test_chains(self, runner):
        code, report = run_json(runner, "chains", "-n", "4", "--words")
        assert code == 0
        assert report["all_chains"] == 16 and report["avoiding"] == 7
        assert report["words"] == ["111", "112", "121", "122", "211",
                                   "212", "221"]

    def test_chains_words_build_once(self, runner, monkeypatch):
        """`--words` builds the chain-defined order once and counts the
        avoiding chains on it."""
        built = []

        def counted(n):
            built.append(n)
            return build_pe_pchn(n)

        monkeypatch.setattr("ncpe.cli.build_pe_pchn", counted)
        monkeypatch.setattr("ncpe.parking.build_pe_pchn", counted)
        code, report = run_json(runner, "chains", "-n", "5", "--words")
        assert code == 0 and built == [5]
        assert report["avoiding"] == len(report["words"]) == 5 ** 3 - 4 ** 3

    def test_chains_count_only(self, runner):
        code, report = run_json(runner, "chains", "-n", "7", "--count-only")
        assert code == 0 and report["avoiding"] == 9031

    @pytest.mark.parametrize("n", range(3, 8))
    def test_chains_words_equal_chain_words(self, runner, n):
        _, report = run_json(runner, "chains", "-n", str(n), "--words")
        want = sorted("".join(map(str, chain_parking_word(c))) for c in build_D(n))
        assert report["words"] == want
        assert len(report["words"]) == report["avoiding"]

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_chains_small_n_is_usage_error(self, runner, n):
        result = runner.invoke(main, ["chains", "-n", n, "--json"])
        assert result.exit_code == 2
        assert "3 <= n <= 8" in result.output

    def test_label_check_el_failure(self, runner):
        result = runner.invoke(
            main, ["label", "-n", "3", "--target", "pe-pchn",
                   "--scheme", "usual", "--check-el", "--json"])
        assert result.exit_code == 1
        assert json.loads(result.output)["el"] is False

    def test_label_leftmod(self, runner):
        code, report = run_json(runner, "label", "-n", "4", "--check-el")
        assert code == 0 and report["el"] is True
        assert report["labels"]["1|2|3|4 -> 14|2|3"] == 1


class TestProbeIntervals:
    def test_default_atom(self, runner):
        code, report = run_json(runner, "probe-intervals", "-n", "5")
        assert code == 0
        assert report["interval_size"] == 12
        assert report["lower"] == "1|2|34|5"

    def test_explicit_lower(self, runner):
        code, report = run_json(runner, "probe-intervals", "-n", "4",
                                "--lower", "14")
        assert code == 0 and report["interval_size"] > 0

    def test_non_member_rejected(self, runner):
        result = runner.invoke(main, ["probe-intervals", "-n", "4",
                                      "--lower", "34"])
        assert result.exit_code == 2

    def test_default_atom_outside_pe_asks_for_lower(self, runner):
        """At n = 3 the default atom 12|3 is excluded from PE; the error
        names the default, not input the user never gave, and an
        explicit --lower still works at n = 3."""
        result = runner.invoke(main, ["probe-intervals", "-n", "3"])
        assert result.exit_code == 2
        assert "default lower endpoint 12|3" in result.output
        assert "--lower" in result.output
        code, report = run_json(runner, "probe-intervals", "-n", "3",
                                "--lower", "13")
        assert code == 0
        assert report["lower"] == "13|2" and report["interval_size"] == 2

    def test_non_integer_lower_is_usage_error(self, runner):
        result = runner.invoke(main, ["probe-intervals", "-n", "5",
                                      "--lower", "1x|2"])
        assert result.exit_code == 2
        assert "non-integer" in result.output


# each command with the size cap it advertises: (arguments, low, high)
CAPS = [
    ("build pi", 1, 9), ("build nc", 1, 10), ("build pe-dref", 3, 10),
    ("build pe-pchn", 3, 8),
    ("verify", 3, 10), ("verify --target nc", 1, 10),
    ("verify --target pe-pchn", 3, 8), ("verify --suite el --target nc", 1, 10),
    ("mobius", 3, 9), ("mobius --target nc", 1, 9), ("mobius --target pe-pchn", 3, 8),
    ("mobius --method nbb", 3, 10), ("mobius --target nc --method nbb", 1, 10),
    ("mobius --method chains", 3, 9), ("mobius --target nc --method chains", 1, 9),
    ("nbb", 1, 10), ("nbb --ambient pe", 3, 10),
    ("chains", 3, 8), ("chains --words", 3, 8),
    ("label", 3, 10), ("label --target nc", 1, 10), ("label --target pe-pchn", 3, 8),
    ("label --check-el", 3, 10), ("label --check-el --target nc --scheme usual", 1, 10),
    ("probe-intervals", 3, 10),
]


@pytest.mark.parametrize("command,low,high,n", [
    (command, low, high, n) for command, low, high in CAPS for n in (low - 1, high + 1)])
def test_cap_refusal_is_usage_error(runner, command, low, high, n):
    result = runner.invoke(main, [*command.split(), "-n", str(n), "--json"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{low} <= n <= {high}, got n={n}" in result.output
    assert "Traceback" not in result.output


def test_readme_and_help_state_the_caps_table(runner):
    """The README's size-cap table, `build --help` and `chains --help`
    give the caps of `builders.CAPS`, and the table names every entry."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Size caps\n", 1)[1].split("\n#", 1)[0]
    named = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            command, target, span, entry = (c.strip() for c in line.split("|")[1:-1])
            _, low, high = SRC_CAPS[entry.strip("`")]
            assert span == f"{low} ≤ n ≤ {high}", line
            named.add(entry.strip("`"))
    assert named == set(SRC_CAPS)

    def stated(help_text):  # 'n<=9' or '3<=n<=8' as (low, high)
        low, _, high = help_text.rpartition("n<=")
        return int(low.rstrip("<=") or 1), int(high)

    text = " ".join(runner.invoke(main, ["build", "--help"]).output.split())
    caps = dict(item.split() for item in text.split("Caps: ")[1].split(".")[0].split(", "))
    assert list(caps) == list(TARGETS)
    assert {t: stated(c) for t, c in caps.items()} == {t: SRC_CAPS[t][1:] for t in TARGETS}
    text = " ".join(runner.invoke(main, ["chains", "--help"]).output.split())
    assert stated(text.split("(cap ")[1].split(")")[0]) == SRC_CAPS["pe-pchn"][1:]


def test_readme_examples_run(runner, tmp_path, monkeypatch):
    """Each `ncpe` line of the README's command-line example runs in a
    fresh directory: the two that report a failed verdict exit 1, the
    others exit 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    words = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [" ".join(w[1:]) for w in words if w[:1] == ["ncpe"]]
    failing = {"verify -n 5 --target pe-pchn --suite lattice",
               "label -n 4 --scheme parking --check-el"}
    assert len(commands) == 9 and failing <= set(commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        result = runner.invoke(main, command.split())
        assert result.exit_code == (1 if command in failing else 0), (command, result.output)


class TestDeterminism:
    # exit code and sha256 of the --json stdout, pinned so that a reordered
    # block, key or element, or a changed witness, shows up in the tests
    PINNED = {
        "build nc -n 5": (0,
            "45dd2ed50446557eea1d2ffd391558a9428197d6baf33ffba3d23d1b1ebb090f"),
        "verify -n 5": (0,
            "b3879458aa414bf84c18461027132d944c7d20e8e704627c9524453fc38faf15"),
        "verify -n 6 --target pe-pchn": (1,
            "4215424e0af1e39a3663cc60f14fced8119773874389fa0b03acabbe98c1a750"),
        "mobius -n 6": (0,
            "3270f341615c56b8271c51a19fddfb67be093d30c50ac3a7f57501afb7fdf687"),
        "nbb -n 6 --classify": (0,
            "aba93fc0c12b7ce4ed1392f41c8135fd9d584f8f938698291186c673a884547e"),
        "label -n 5 --scheme parking": (0,
            "93562b1a71c0ef1b136f5766fb61c534c315418bd54af7acb11077fbed62d9fe"),
        "probe-intervals -n 7": (0,
            "a24f9cf4f40e1d113a6b9801c1ce100f557844b3efd0a53e82b2b6bfddb134d2"),
        "build pe-dref -n 6": (0,
            "a38a9ad700bfb02abe39b0179effd0d1f77e89bd7ea8e3e7caa897c77194d373"),
        "build pi -n 5": (0,
            "78958e77cf31feb0ee03d2b3b3444c0604b2d297c287235db0a73a6e2939a3a0"),
        "label -n 6 --target nc --scheme usual --check-el": (0,
            "3920f40c4aa6697b98795ac4b823346bf3eb70073e4c140a0d4a789df652140b"),
        # exit 1 with the EL witness: the first interval that fails
        "label -n 5 --target pe-dref --scheme usual --check-el": (1,
            "aa631d75baa964955ca3d9828b9ed61bc912a7641699b2918fa198642431a33a"),
        "build pe-pchn -n 6": (0,
            "41457caffb60e04dd130f1ea57cde1d223b63945564bcdfde90f6dedbd5f27e7"),
        "chains -n 6 --words": (0,
            "0cd88e7e6d2de01726182d5686d300e36e0c75d81b5c16d63d16427eb0e16693"),
        "mobius -n 6 --target pe-pchn": (0,
            "0393a69d8650e72d343a05e4d7a68572bc223bb535a49663f18b90f4babada45"),
        "label -n 6 --target pe-pchn": (0,
            "204039e7b016774a43e7730650316817169added1979559a0d0aa96e29de53e3"),
        "chains -n 7 --words": (0,
            "b9acd4a6b3d28dc301d905dd9a36b12b49a6010469560f249aaa9ecce687bc76"),
        "chains -n 8": (0,
            "b98e4966e518f6b95f62b1b926012df445e1fb9452c86fb42a3e75f49ec0a212"),
        "label -n 6 --target pe-pchn --scheme parking": (0,
            "ccf6aec52e2279330654a0a4e339db6911d79d56269b6e11023c62023c382904"),
        "label -n 6 --target pe-pchn --scheme usual": (0,
            "a65d64ddb095f85cf84da7760d85b1d914f29d308bf3a5cf0550927195e5f02c"),
    }

    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_pinned_json_digest(self, runner, command):
        result = runner.invoke(main, [*command.split(), "--json"])
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert (result.exit_code, digest) == self.PINNED[command]

    def test_byte_identical_json(self, runner):
        args = ["verify", "-n", "4", "--target", "pe-dref", "--json"]
        first = runner.invoke(main, args).output
        second = runner.invoke(main, args).output
        assert first == second

    def test_human_mode_timing_on_stderr_only(self, runner):
        result = runner.invoke(main, ["build", "nc", "-n", "3"])
        assert "elapsed" not in result.stdout or result.stderr_bytes is None

    def test_human_mode_failure_exits_1(self, runner):
        """Without --json the report is printed as sorted `key: value`
        lines, the time goes to stderr, and a failed verdict exits 1."""
        result = runner.invoke(main, ["verify", "-n", "5", "--target", "pe-pchn",
                                      "--suite", "lattice"])
        assert result.exit_code == 1
        lines = result.stdout.splitlines()
        assert lines[:2] == ["command: verify", "n: 5"] and "  lattice: False" in lines
        assert result.stderr.startswith("elapsed: ") and "elapsed" not in result.stdout


class TestHelpPages:
    """Every --help page, pinned at 80 columns, so that a change to the
    command layer shows any change to the text a user reads."""

    PAGES = {
        "--help": """\
Usage: main [OPTIONS] COMMAND [ARGS]...

  Exact computations on noncrossing-partition posets.

Options:
  --help  Show this message and exit.

Commands:
  build            Build a poset and report element/cover counts.
  chains           Maximal chains of the noncrossing lattice as parking...
  label            Edge labelings of a poset; optionally verify...
  mobius           Moebius value between bottom and top, by independent...
  nbb              Enumerate NBB bases for the top element and their signed...
  probe-intervals  Cardinality of the interval [lower, top] in the PE...
  verify           Run structural verification suites (exit 1 on any failure).
""",
        "build --help": """\
Usage: main build [OPTIONS] {pi|nc|pe-dref|pe-pchn}

  Build a poset and report element/cover counts.

  Caps: pi n<=9, nc n<=10, pe-dref 3<=n<=10, pe-pchn 3<=n<=8.

Options:
  -n INTEGER  Ground-set size.  [required]
  --json      Machine-readable output.
  --dot FILE  Write the Hasse diagram as DOT to this file.
  --help      Show this message and exit.
""",
        "chains --help": """\
Usage: main chains [OPTIONS]

  Maximal chains of the noncrossing lattice as parking functions, and the family
  avoiding the label n-1 (cap 3<=n<=8).

Options:
  -n INTEGER    Ground-set size.  [required]
  --count-only  Report only the count; no words even with --words.
  --words       Include the parking words of the avoiding chains.
  --json
  --help        Show this message and exit.
""",
        "label --help": """\
Usage: main label [OPTIONS]

  Edge labelings of a poset; optionally verify EL-shellability.

  With the leftmod scheme, or the usual scheme on nc, --check-el runs to n = 9,
  as at n = 10 the EL check would walk 66 M (PE) or 10^8 (NC) maximal chains.

Options:
  -n INTEGER                      Ground-set size.  [required]
  --target [nc|pe-dref|pe-pchn]   [default: pe-dref]
  --scheme [leftmod|parking|usual]
                                  [default: leftmod]
  --check-el                      Also verify the EL-property.
  --dot FILE                      Write the labeled Hasse diagram as DOT to this
                                  file.
  --json
  --help                          Show this message and exit.
""",
        "mobius --help": """\
Usage: main mobius [OPTIONS]

  Moebius value between bottom and top, by independent methods.

  'nbb' sums signed NBB bases and needs a lattice, so it is rejected for pe-
  pchn; 'chains' counts weakly decreasing maximal chains of the left-modular
  labeling.  'chains' and 'all' run to n = 9: at n = 10 the chains method would
  walk 66 M (PE) or 10^8 (NC) maximal chains, so use 'recursion' or 'nbb' there.
  Exit 1 if methods or closed form disagree.

Options:
  -n INTEGER                      Ground-set size.  [required]
  --target [nc|pe-dref|pe-pchn]   [default: pe-dref]
  --method [recursion|nbb|chains|all]
                                  [default: all]
  --json
  --help                          Show this message and exit.
""",
        "nbb --help": """\
Usage: main nbb [OPTIONS]

  Enumerate NBB bases for the top element and their signed count.

Options:
  -n INTEGER         Ground-set size.  [required]
  --ambient [nc|pe]  [default: nc]
  --classify         Census of the discard classes (nc ambient only).
  --trees FILE       Write all base trees as DOT to this file.
  --json
  --help             Show this message and exit.
""",
        "probe-intervals --help": """\
Usage: main probe-intervals [OPTIONS]

  Cardinality of the interval [lower, top] in the PE family under dual
  refinement (membership filtering; no poset matrix needed).

Options:
  -n INTEGER    Ground-set size.  [required]
  --lower TEXT  Lower endpoint, e.g. '1|23|4' (default: the atom with block
                {n-2, n-1}, which is not in PE at n = 3).
  --json
  --help        Show this message and exit.
""",
        "verify --help": """\
Usage: main verify [OPTIONS]

  Run structural verification suites (exit 1 on any failure).

  Caps follow the builders; 'leftmod' requires a lattice target and is skipped
  under 'all' for pe-pchn.  'el' and 'all' run to n = 9 on nc and pe-dref, as at
  n = 10 the EL check would walk 66 M (PE) or 10^8 (NC) maximal chains.

Options:
  -n INTEGER                      Ground-set size.  [required]
  --target [nc|pe-dref|pe-pchn]   [default: pe-dref]
  --suite [lattice|graded|leftmod|el|sn-el|all]
                                  [default: all]
  --json
  --help                          Show this message and exit.
""",
    }

    @pytest.mark.parametrize("args", sorted(PAGES))
    def test_help_page_is_pinned(self, runner, args):
        result = runner.invoke(main, args.split(), terminal_width=80)
        assert result.exit_code == 0
        assert result.output == self.PAGES[args]

    def test_every_command_is_pinned(self):
        assert {args.split()[0] for args in self.PAGES} == {"--help", *main.commands}



# a fresh interpreter's environment, importing this copy of the package
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(ncpe.__file__).resolve().parents[1])}


def run_process(args, cwd):
    """`python -m ncpe.cli ARGS` in a fresh interpreter, so that it goes
    through interpreter shutdown, which CliRunner never does."""
    return subprocess.run([sys.executable, "-m", "ncpe.cli", *args], cwd=cwd,
                          env=CHILD_ENV, capture_output=True, timeout=120)


class TestRealProcess:
    @pytest.mark.parametrize("args,code", [
        (["build", "nc", "-n", "4", "--json"], 0),
        (["verify", "-n", "5", "--target", "pe-pchn", "--suite", "lattice", "--json"], 1),
        (["build", "pi", "-n", "10"], 2),
    ])
    def test_same_exit_and_stdout_as_cli_runner(self, runner, tmp_path, args, code):
        done = run_process(args, tmp_path)
        result = runner.invoke(main, args)
        assert done.returncode == result.exit_code == code, done.stderr
        assert done.stdout == result.stdout_bytes
        if code == 2:
            assert done.stderr.startswith(b"Usage: ")
            assert b"1 <= n <= 9, got n=10" in done.stderr
        else:
            assert done.stderr == b""

    def test_dot_file_written_in_full(self, tmp_path):
        done = run_process(["build", "nc", "-n", "6", "--json", "--dot", "hasse.dot"],
                           tmp_path)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["dot"] == "hasse.dot"
        assert (tmp_path / "hasse.dot").read_text() == build_nc(6).to_dot()


def test_exit_hook_registered_by_cli_only():
    """`ncpe.cli` freezes the live objects at exit, so that the final
    collection skips them; `import ncpe` alone leaves exit as it is."""
    script = ("import atexit, gc, sys\n"
              "import ncpe\n"
              "assert 'ncpe.cli' not in sys.modules\n"
              "atexit._run_exitfuncs()\n"
              "assert gc.get_freeze_count() == 0\n"
              "import ncpe.cli\n"
              "atexit._run_exitfuncs()\n"
              "assert gc.get_freeze_count() > 0\n")
    done = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_runs_without_numpy():
    """The package needs only the standard library and click: with numpy
    made unimportable, every subcommand runs and prints what it prints
    here."""
    commands = [["build", "nc", "-n", "5", "--json"], ["verify", "-n", "5", "--json"],
                ["mobius", "-n", "5", "--json"], ["nbb", "-n", "5", "--json"],
                ["chains", "-n", "5", "--words", "--json"],
                ["label", "-n", "5", "--check-el", "--json"]]
    script = ("import json, sys\n"
              "sys.modules['numpy'] = None\n"
              "import ncpe.cli\n"
              "from click.testing import CliRunner\n"
              "results = [CliRunner().invoke(ncpe.cli.main, args)\n"
              "           for args in json.loads(sys.argv[1])]\n"
              "print(json.dumps([[r.exit_code, r.output] for r in results]))\n")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    runner = CliRunner()
    assert json.loads(done.stdout) == [[0, runner.invoke(main, args).output]
                                       for args in commands]
