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
from ncpe.builders import build_nc, distinguished_chain
from ncpe.cli import _closed_form, main
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
        def no_build(target, n):
            raise AssertionError("poset built before the NBB cap check")

        monkeypatch.setattr("ncpe.cli._build", no_build)
        result = runner.invoke(
            main, ["mobius", "-n", "10", "--target", target,
                   "--method", method])
        assert result.exit_code == 2
        assert "n <= 9" in result.output


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

    def test_chains(self, runner):
        code, report = run_json(runner, "chains", "-n", "4", "--words")
        assert code == 0
        assert report["all_chains"] == 16 and report["avoiding"] == 7
        assert report["words"] == ["111", "112", "121", "122", "211",
                                   "212", "221"]

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
    ("verify --target pe-pchn", 3, 8),
    ("mobius", 3, 9), ("mobius --target nc", 1, 9), ("mobius --target pe-pchn", 3, 8),
    ("nbb", 1, 9), ("nbb --ambient pe", 3, 9),
    ("chains", 3, 8), ("chains --words", 3, 8),
    ("label", 3, 10), ("label --target nc", 1, 10), ("label --target pe-pchn", 3, 8),
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
