import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN, GOLDEN_ERRORS

from jcouple import cli, coupling
from jcouple.cli import main
from jcouple.coupling import count_coupling_trees
from jcouple.numerics import DomainError, HalfInt


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCgCommand:
    def test_json_output(self, capsys):
        code, out, err = run_cli(
            capsys,
            "cg", "--j1", "1/2", "--m1", "1/2", "--j2", "1/2", "--m2", "-1/2",
            "--j", "0", "--m", "0",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload == {
            "sign": 1,
            "num": "1",
            "den": "2",
            "approx": pytest.approx(0.7071067811865476),
        }

    def test_plain_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cg", "--j1", "1/2", "--m1", "1/2", "--j2", "1", "--m2", "0",
            "--j", "1/2", "--m", "1/2", "--format", "plain",
        )
        assert code == 0
        assert out.startswith("sqrt(1/3)")

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys,
            "cg", "--j1", "1/2", "--m1", "3/2", "--j2", "1/2", "--m2", "-1/2",
            "--j", "0", "--m", "0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_unparsable_momentum_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "cg", "--j1", "5/3", "--m1", "0", "--j2", "0", "--m2", "0",
            "--j", "0", "--m", "0",
        )
        assert code == 1
        assert "5/3" in err

    @pytest.mark.parametrize("text", ["1e1000000000", "1.5e-999999999"])
    def test_exponent_notation_is_refused_at_once(self, text):
        # Fraction would build 10**exponent first, which never finishes
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "jcouple", "cg", "--j1", text, "--m1", "0",
             "--j2", "0", "--m2", "0", "--j", "0", "--m", "0"],
            capture_output=True,
            timeout=10,
        )
        elapsed = time.perf_counter() - start
        assert run.returncode == 1 and run.stdout == b""
        assert run.stderr.startswith(b"error:") and run.stderr.count(b"\n") == 1
        assert elapsed < 2.0

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cg", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestGlobalFlags:
    def test_quiet_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "--quiet", "schemes", "--n", "2", "--count-only")
        assert code == 0 and out == "1\n"


def _digest_argvs():
    """Every argv of the benchmark's recorded digests, in file order."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected_digests.json"
    return [tuple(key.split(" ")) for key in json.loads(path.read_text(encoding="utf-8"))]


def _benchmark_argvs():
    """One argv of each option shape in the benchmark's recorded digests, in file order."""
    shapes = {}
    for argv in _digest_argvs():
        shapes.setdefault((argv[0], *(a for a in argv if a.startswith("--"))), argv)
    return list(shapes.values())


KEPLER_ARGV = ("kepler", "--z", "1", "--jcut", "0", "--stats", "boson")
DISPATCH_ARGVS = [
    (),
    ("-h",),
    ("--help",),
    ("--quiet",),
    ("--quiet", "-h"),
    ("--quiet", "schemes", "--n", "2", "--count-only"),
    ("--quiet", "--quiet", "schemes", "--n", "2", "--count-only"),
    ("--qu", "schemes", "--n", "2", "--count-only"),
    ("--quiet=1", "schemes", "--n", "2", "--count-only"),
    ("schemes", "--n", "2", "--count-only", "--quiet"),
    (*KEPLER_ARGV, "--quiet"),
    ("kepler", "--quiet"),
    ("kepler", "-h"),
    ("kepler", "--help"),
    ("cg", "--help"),
    ("schemes", "--n", "2", "-h"),
    ("nosuch",),
    ("nosuch", "--n", "2"),
    ("kep", "--z", "1", "--jcut", "0", "--stats", "boson"),
    ("schem", "--n", "2"),
    (*KEPLER_ARGV, "--bogus"),
    (*KEPLER_ARGV, "--bogus", "1", "extra"),
    (*KEPLER_ARGV, "--stats", "fermion"),
    ("schemes", "--n", "2", "--n", "3", "--count-only"),
    ("schemes", "--n", "3", "--count"),
    ("schemes", "--n=3", "--count-only"),
    ("diagram", "--n=3", "--labels=a,b,c", "--scheme=1"),
    ("--", "schemes", "--n", "2", "--count-only"),
    ("schemes", "--", "--n", "2"),
    (*KEPLER_ARGV, "--"),
    ("kepler", "--z", "1"),
    ("kepler", "--z", "x", "--jcut", "0", "--stats", "boson"),
    ("kepler", "--z", "1", "--jcut", "0", "--stats", "anyon"),
    ("cg", "--j1", "-1/2", "--m1", "-0.5"),
    # a value that starts with "-" is one only as argparse's negative numbers
    ("kepler", "--z", "1", "--jcut", "-.5", "--stats", "boson"),
    ("kepler", "--z", "1", "--jcut", "-1x", "--stats", "boson"),
    ("classify", "[-1]", "[-1]"),
]


# valid values of the options that take no choices; the rest take "1/2", "0" or "1"
GOOD_VALUES = {
    "--n": ["2", "3"],
    "--scheme": ["0", "1"],
    "--z": ["1", "2"],
    "--jcut": ["0", "1/2", "1"],
    "--grid": ["n=2,jmax=1/2"],
    "--js": ["1/2,1/2"],
    "--intermediates": ["", "1"],
    "--labels": ["a,b", "a,b,c"],
    "particle": ["[-1]", "[[-1,-1],-1]"],
}
# negative, empty and malformed values; "-.5" is a negative number to argparse, "-1x" is not
ODD_VALUES = ["-1", "-1/2", "-0.5", "-.5", "", "x", "-x", "-1x", "-", "1e3", "--", "--n", "-h"]
STRAY_TOKENS = ["-h", "--help", "--", "--quiet", "--bogus", "x"]


@st.composite
def _table_argvs(draw):
    """A well-formed argv from one subcommand's table, then up to two edits that may break it."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, options = cli._COMMANDS[name]
    argv = [name]
    for option in options:
        if option.required or draw(st.booleans()):
            good = GOOD_VALUES.get(option.flag) or option.choices or ["1/2", "0", "1"]
            value = draw(st.sampled_from(good))
            if option.store_true:
                argv.append(option.flag)
            elif option.flag.startswith("--"):
                argv += [option.flag, value]
            else:
                argv.insert(1, value)
    takes_value = [o.flag for o in options if o.flag.startswith("--") and not o.store_true]
    edits = st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(STRAY_TOKENS)),
        st.tuples(st.just("repeat"), st.sampled_from(takes_value)),
        st.tuples(st.just("value"), st.sampled_from(takes_value)),
        st.tuples(st.just("equals"), st.sampled_from(takes_value)),
        st.tuples(st.just("abbreviate"), st.sampled_from(takes_value)),
        st.tuples(st.just("drop"), st.none()),
        st.tuples(st.just("name"), st.sampled_from(["", "kep", "nosuch", "--quiet"])),
    )
    for kind, arg in draw(st.lists(edits, max_size=2)):
        at = draw(st.integers(min_value=1, max_value=len(argv)))
        i = argv.index(arg) if arg in argv[:-1] else None
        if kind == "insert":
            argv.insert(at, arg)
        elif kind == "repeat":
            argv += [arg, draw(st.sampled_from(["1", *ODD_VALUES[:4]]))]
        elif kind == "value" and i is not None:
            argv[i + 1] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "equals" and i is not None:
            argv[i : i + 2] = [f"{arg}={argv[i + 1]}"]
        elif kind == "abbreviate" and i is not None and len(arg) > 3:
            argv[i] = arg[: draw(st.integers(min_value=3, max_value=len(arg) - 1))]
        elif kind == "drop" and at < len(argv):
            del argv[at]
        elif kind == "name":
            argv[0:1] = [arg, name] if arg == "--quiet" else [arg]
    return argv


@functools.cache
def _full_parser():
    return cli.build_parser()


def _outcome(parse, argv):
    """(vars of each namespace main got, exit code, stdout, stderr) with parse as main's parse."""
    seen = []

    def spy(args):
        ns = parse(args)
        seen.append(dict(vars(ns)))
        return ns

    out, err, saved = io.StringIO(), io.StringIO(), (cli._parse_args, sys.stdin)
    # classify without a particle reads stdin
    cli._parse_args, sys.stdin = spy, io.StringIO("[-1]")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        cli._parse_args, sys.stdin = saved
    return seen, code, out.getvalue(), err.getvalue()


class TestDispatch:
    """main walks a well-formed subcommand argv against the option table and builds no parser.

    Every argv gives what the full parser's parse_args gives: the same
    namespace, exit code, stdout and stderr, for every golden argv, one argv
    of each shape the benchmark runs, the help, usage and error cases above,
    and argvs built from each subcommand's table and then edited.  A
    top-level option whose default the walk does not set fails here.
    """

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in GOLDEN]
        + [argv for _, argv, _ in GOLDEN_ERRORS]
        + _benchmark_argvs()
        + DISPATCH_ARGVS,
    )
    def test_matches_the_full_parser(self, monkeypatch, argv):
        monkeypatch.delenv("JCOUPLE_MAX_TREES", raising=False)
        assert _outcome(cli._parse_args, argv) == _outcome(_full_parser().parse_args, argv)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_table_argvs())
    def test_table_argvs_match_the_full_parser(self, argv):
        assert _outcome(cli._parse_args, argv) == _outcome(_full_parser().parse_args, argv)

    def test_subcommand_argv_skips_the_top_level_parse(self, capsys, monkeypatch):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        cli._shared_parser.cache_clear()
        assert main(list(KEPLER_ARGV)) == 0
        assert main(["diagram", "--n", "3"]) == 0
        assert main(["schemes", "--n", "3", "--count-only"]) == 0
        assert main(["classify", "[-1]", "--format", "json"]) == 0
        assert calls == [] and cli._shared_parser.cache_info().currsize == 0
        # the counter sees both parses of an argv that needs them: a top-level
        # option before the name, or one after it, which is a usage error
        assert main(["--quiet", "schemes", "--n", "2", "--count-only"]) == 0
        with pytest.raises(SystemExit):
            main([*KEPLER_ARGV, "--quiet"])
        assert calls == ["jcouple", "jcouple schemes", "jcouple", "jcouple kepler"]
        assert cli._shared_parser.cache_info().currsize == 1
        capsys.readouterr()

    def test_golden_and_benchmark_argvs_are_walked(self):
        argvs = [argv for argv, _ in GOLDEN] + _digest_argvs()
        walked = [cli._walk(argv) for argv in argvs]
        assert [argv for argv, ns in zip(argvs, walked) if ns is None] == []
        assert [vars(ns) for ns in walked] == [vars(_full_parser().parse_args(a)) for a in argvs]


class TestThreeJCommand:
    def test_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "threej", "--j1", "1", "--m1", "1", "--j2", "1", "--m2", "1",
            "--j", "2", "--m", "-2",
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["sign"], payload["num"], payload["den"]) == (1, "1", "5")


class TestReggeAuditCommand:
    def test_divergence_reported(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "regge-audit", "--a", "1", "--alpha", "1", "--b", "1", "--beta", "1",
            "--c", "2", "--gamma", "-2",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12
        verdicts = {row["transform"]: row["verdict"] for row in rows}
        assert verdicts["rows:213"] == "diverge"
        assert verdicts["transpose"] == "agree"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "regge-audit", "--a", "1/2", "--alpha", "1/2", "--b", "1/2",
            "--beta", "-1/2", "--c", "0", "--gamma", "0", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "transform,claimed,actual,verdict"
        assert len(lines) == 13

    def test_zero_base_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "regge-audit", "--a", "1", "--alpha", "0", "--b", "1", "--beta", "0",
            "--c", "1", "--gamma", "0",
        )
        assert code == 1 and "nonzero" in err


class TestCoupleCommand:
    def test_expansion(self, capsys):
        code, out, _ = run_cli(
            capsys, "couple", "--js", "1/2,1/2", "--j", "1", "--m", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["chain"] == {"js": ["1/2", "1/2"], "intermediates": [], "j": "1"}
        assert [term["ms"] for term in payload["terms"]] == [
            ["-1/2", "1/2"],
            ["1/2", "-1/2"],
        ]

    def test_three_momenta_need_intermediates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "couple", "--js", "1/2,1/2,1/2", "--intermediates", "1",
            "--j", "3/2", "--m", "3/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == [
            {
                "ms": ["1/2", "1/2", "1/2"],
                "amp": {"sign": 1, "num": "1", "den": "1", "approx": 1.0},
            }
        ]


class TestSchemesCommand:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "schemes", "--n", "3", "--count-only")
        assert code == 0
        assert out == "3\n"

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "schemes", "--n", "3")
        assert code == 0
        assert json.loads(out) == [[[1, 2], 3], [[1, 3], 2], [1, [2, 3]]]

    def test_guard_env_override(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, "schemes", "--n", "11", "--count-only")
        assert code == 1 and "guard" in err
        monkeypatch.setenv("JCOUPLE_MAX_TREES", "4")
        code, _, err = run_cli(capsys, "schemes", "--n", "5", "--count-only")
        assert code == 1
        monkeypatch.setenv("JCOUPLE_MAX_TREES", "5")
        code, out, _ = run_cli(capsys, "schemes", "--n", "5", "--count-only")
        assert code == 0 and out == "105\n"

    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_is_listing_length(self, capsys, n):
        code, out, _ = run_cli(capsys, "schemes", "--n", str(n))
        assert code == 0
        assert count_coupling_trees(n) == len(json.loads(out))


class TestDiagramCommand:
    def test_dot_structure(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--n", "2")
        assert code == 0
        assert out.startswith("digraph coupling {")
        assert out.count("->") == 3

    def test_custom_labels(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--n", "2", "--labels", "a,b")
        assert code == 0
        assert 'label="jabmab"' in out

    def test_scheme_index_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "diagram", "--n", "3", "--scheme", "9")
        assert code == 1 and "out of range" in err


# prints the child's own peak RSS in KiB (Linux) to stderr, after running argv if any;
# ru_maxrss would also count the RSS of the process that started it, here pytest's
PEAK_HWM_CHILD = """
import sys
from jcouple.cli import main
if sys.argv[1:]:
    main(sys.argv[1:])
with open("/proc/self/status") as status:
    sys.stderr.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _peak_kib(*argv):
    """The peak RSS in KiB of a child that runs main on argv, or only imports it."""
    run = subprocess.run(
        [sys.executable, "-c", PEAK_HWM_CHILD, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=60,
    )
    assert run.returncode == 0
    return int(run.stderr)


# runs main under a 256 MB address-space cap, so a request that tries to build
# a huge table fails with this child's MemoryError, not the test run's
CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
from jcouple.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestNoEnumerationCliff:
    """At the guard (n=10, 34,459,425 schemes), building every tree would take about 11 GB.

    A single diagram, the count and the streamed listing need none of them.
    The subprocess timeout turns a regression into a failure instead of a
    memory blow-up.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagram", "--n", "10", "--scheme", "34459424"],
            ["schemes", "--n", "10", "--count-only"],
        ],
        ids=["diagram-last-n10", "count-n10"],
    )
    def test_finishes_quickly(self, argv):
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "jcouple", *argv], capture_output=True, timeout=10
        )
        elapsed = time.perf_counter() - start
        assert run.returncode == 0 and run.stdout
        assert elapsed < 2.0

    def test_listing_streams_to_a_closed_pipe(self):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "jcouple", "schemes", "--n", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            head = proc.stdout.read(64)
            proc.stdout.close()
            code = proc.wait(timeout=10)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        elapsed = time.perf_counter() - start
        assert head.startswith(b"[[[[[[[[[[1, 2], 3], 4], 5], 6], 7], 8], 9], 10], ")
        assert code == 0 and err == b""
        assert elapsed < 2.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_listing_memory_is_flat(self):
        floor = _peak_kib()
        # 135,135 trees; building them all peaks about 60 MB above the floor
        assert _peak_kib("schemes", "--n", "8") - floor < 16 * 1024


class TestKeplerCliff:
    """kepler --z 4 --jcut 15/2 has 65,536 levels but only 3,876 j-multisets.

    Building every level before one json.dumps took about 2.3 s and peaked
    about 140 MB above the import floor for json (1.4 s and 25 MB for csv).
    The streamed spectrum evaluates each multiset once and writes as it goes,
    keeping one record per multiset.
    """

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    @pytest.mark.parametrize(
        "fmt, max_s, max_mb", [("json", 1.0, 24), ("csv", 0.7, 8)], ids=["json", "csv"]
    )
    def test_large_spectrum_streams(self, fmt, max_s, max_mb):
        def run(*argv):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_HWM_CHILD, *argv],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=60,
            )
            assert proc.returncode == 0
            return time.perf_counter() - start, int(proc.stderr)

        _, floor = run()
        argv = ["kepler", "--z", "4", "--jcut", "15/2", "--stats", "fermion", "--format", fmt]
        elapsed, peak = run(*argv)
        assert elapsed < max_s
        assert peak - floor < max_mb * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    @pytest.mark.parametrize(
        "fmt, max_s, max_mb", [("json", 10, 320), ("csv", 5, 64)], ids=["json", "csv"]
    )
    def test_largest_pair_cutoff(self, fmt, max_s, max_mb):
        # jcut=353 is the largest the guard admits at z=2: 499,849 levels over
        # 250,986 multisets.  Making a record per ordering as the walk met it
        # peaked about 302 MB above the floor in 3.4 s as json and 53 MB in
        # 1.1 s as csv; one record per multiset and a join per prefix row, about
        # 269 MB in 2.3 s and 31 MB in 0.8 s (Python 3.11); the bounds admit both
        start = time.perf_counter()
        argv = ["kepler", "--z", "2", "--jcut", "353", "--stats", "boson", "--format", fmt]
        peak = _peak_kib(*argv)
        elapsed = time.perf_counter() - start
        assert elapsed < max_s
        assert peak - _peak_kib() < max_mb * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_one_record_per_multiset(self):
        # at z=1 each of the 100,000 levels is its own multiset, so the walk's
        # memo holds one csv row tail per level; with HalfInt values and
        # Fraction energies beside it the run peaked about 53 MB above the
        # floor, on twice integers about 31 MB (Python 3.11); the bound sits
        # between the two to leave room for other versions' object sizes
        floor = _peak_kib()
        argv = ["kepler", "--z", "1", "--jcut", "99999/2", "--stats", "boson", "--format", "csv"]
        assert _peak_kib(*argv) - floor < 42 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_no_per_level_state_at_z1(self):
        # each of the 200,000 levels is printed once, so z=1 renders a level's
        # name as the walk reaches it; a table of every name peaked about
        # 14 MB above the floor, rendering as it goes about 0.1 MB (Python 3.11)
        floor = _peak_kib()
        argv = ["kepler", "--z", "1", "--jcut", "199999/2", "--stats", "boson", "--format", "csv"]
        assert _peak_kib(*argv) - floor < 4 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_no_merged_table_at_z1(self):
        # at z=1 each level is a merged group of its own, so json lists every
        # level twice; keeping each level's group for the merged section peaked
        # about 160 MB above the floor at 200,000 levels, a second pass in
        # descending j about as much as csv (Python 3.11)
        floor = _peak_kib()
        argv = ["kepler", "--z", "1", "--jcut", "199999/2", "--stats", "fermion"]
        assert _peak_kib(*argv) - floor < 4 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    @pytest.mark.parametrize("fmt, max_mb", [("json", 48), ("csv", 32)], ids=["json", "csv"])
    def test_one_prefix_at_jcut_zero(self, fmt, max_mb):
        # one level of 10^6 zeros has one prefix of 999,999 names; building it with
        # itertools.product over 999,999 one-name pools peaked about 109 MB above
        # the floor as json and 48 MB as csv, by repetition of the one name about
        # 33 and 23 MB (Python 3.11)
        floor = _peak_kib()
        argv = ["kepler", "--z", "1000000", "--jcut", "0", "--stats", "boson", "--format", fmt]
        assert _peak_kib(*argv) - floor < max_mb * 1024

    def test_a_million_particles_at_jcut_zero(self):
        # one level of 10^6 zeros; an energy denominator multiplied by 4 (t+1)^2
        # once per particle ran past 30 s, against about 2.6 s for Fraction sums
        argv = ["kepler", "--z", "1000000", "--jcut", "0", "--stats", "boson", "--format", "csv"]
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "jcouple", *argv], capture_output=True, text=True, timeout=60
        )
        elapsed = time.perf_counter() - start
        assert run.returncode == 0 and run.stderr == ""
        assert run.stdout.splitlines()[1:] == [";".join(["0"] * 10**6) + ",0,1,2,1,not_inferable"]
        assert elapsed < 10.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_largest_printable_count(self, capsys, fmt):
        # 2^14284 has 4300 digits, the interpreter's default int-to-str limit;
        # z=14285 is refused (tests/test_golden.py)
        argv = ["kepler", "--z", "14284", "--jcut", "0", "--stats", "fermion", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert str(2**14284) in out

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps RLIMIT_AS")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_huge_cutoff_is_refused_at_once(self, fmt):
        # 2*10^12 + 1 j values: the guard must refuse before a table of their
        # names is built, which under the 256 MB cap ends in MemoryError
        argv = ["kepler", "--z", "1", "--jcut", "1000000000000", "--stats", "boson"]
        run = subprocess.run(
            [sys.executable, "-c", CAPPED_CHILD, *argv, "--format", fmt],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == "error: spectrum request exceeds the enumeration guard\n"


class TestClassifyCommand:
    def test_argument(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "[[-1,-1,-1],-1]")
        assert code == 0
        assert json.loads(out) == {"fermion": False}

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("[-1,[-1,-1]]"))
        code, out, _ = run_cli(capsys, "classify")
        assert code == 0
        assert json.loads(out) == {"fermion": True}

    def test_bad_json(self, capsys):
        code, _, err = run_cli(capsys, "classify", "[[")
        assert code == 1 and "JSON" in err

    @staticmethod
    def _classify_child(text):
        # stdin, not argv: one argument is capped at 128 KiB on Linux
        return subprocess.run(
            [sys.executable, "-m", "jcouple", "classify"],
            input=text.encode(),
            capture_output=True,
            timeout=30,
        )

    @pytest.mark.parametrize("atoms, fermion", [("-1", True), ("-1,[1,-1]", False)])
    def test_deep_nesting_classifies(self, atoms, fermion):
        run = self._classify_child("[" * 800 + atoms + "]" * 800)
        assert run.returncode == 0 and run.stderr == b""
        assert json.loads(run.stdout) == {"fermion": fermion}

    def test_nesting_past_the_parser_is_a_one_line_error(self):
        run = self._classify_child("[" * 100_000 + "-1" + "]" * 100_000)
        assert run.returncode == 1 and run.stdout == b""
        message = b"error: invalid JSON particle description: nested too deeply to parse\n"
        assert run.stderr == message


    @pytest.mark.parametrize(
        "text",
        [
            '["' + "x" * 200_000 + '"]',
            '[{"a": ' + "[" * 900 + "]" * 900 + "}]",
            "[" + "2" * 4000 + "]",
            "[" + "1" * 5000 + "]",
        ],
        ids=["long-string", "deep-object", "long-int", "int-past-digit-limit"],
    )
    def test_error_line_is_bounded(self, text):
        run = self._classify_child(text)
        assert run.returncode == 1 and run.stdout == b""
        assert run.stderr.startswith(b"error: ") and run.stderr.count(b"\n") == 1
        assert len(run.stderr) < 200


class TestLongArgumentEcho:
    """A long argument is echoed in a bounded error line, not in full.

    Either 100,000 characters that fail to parse, or a 4000-digit number that
    parses and is then rejected by a validity rule.
    """

    ZEROS = ("--m1", "0", "--j2", "0", "--m2", "0", "--j", "0", "--m", "0")
    DIGITS = "7" * 4000  # a valid number, below the interpreter's int-to-str limit

    @pytest.mark.parametrize(
        "argv",
        [
            ("cg", "--j1", "x" * 100_000, *ZEROS),
            ("cg", "--j1", "1/3" + " " * 100_000, *ZEROS),
            ("cg", "--j1", "1e" + "9" * 100_000, *ZEROS),
            ("verify", "--prop", "first-sym", "--grid", "x" * 100_000),
            ("verify", "--prop", "first-sym", "--grid", "n=" + "1" * 100_000 + ",jmax=1"),
            ("couple", "--js", "1,1", "--j", "2", "--m", DIGITS),
            ("couple", "--js", "1,1,1", "--intermediates", DIGITS, "--j", "1", "--m", "0"),
            ("diagram", "--n", "2", "--labels", '"' + "x" * 100_000 + ",b"),
        ],
        ids=[
            "j1-unparsable", "j1-not-half-integer", "j1-exponent", "grid-entry", "grid-n",
            "total-projection", "intermediate", "unsafe-label",
        ],
    )
    def test_error_line_is_bounded(self, argv):
        run = subprocess.run(
            [sys.executable, "-m", "jcouple", *argv], capture_output=True, timeout=30
        )
        assert run.returncode == 1 and run.stdout == b""
        assert run.stderr.startswith(b"error: ") and run.stderr.count(b"\n") == 1
        assert len(run.stderr) < 200


class TestLargeJCliff:
    """The radical prefactor at j1 = j = 100000 multiplies four 456,574-digit factorials.

    It took about 12 s when the prefactor went through prime-factorized
    factorials and their exponent merge; the binomial form takes about 2 s.
    """

    def test_stretched_coupling_with_zero(self):
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "jcouple", "cg", "--j1", "100000", "--m1", "0",
             "--j2", "0", "--m2", "0", "--j", "100000", "--m", "0"],
            capture_output=True,
            timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert run.returncode == 0 and run.stderr == b""
        payload = json.loads(run.stdout)
        assert (payload["sign"], payload["num"], payload["den"]) == (1, "1", "1")
        assert elapsed < 5.0


class TestLongChainCliff:
    """Chains of about a thousand momenta are walked without recursion.

    Chain enumeration and the coupled-state walk each recursed once per
    momentum, so both commands ended in a RecursionError traceback.
    """

    def _run(self, *argv):
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "jcouple", *argv], capture_output=True, timeout=30
        )
        elapsed = time.perf_counter() - start
        assert run.returncode == 0 and run.stderr == b""
        assert elapsed < 5.0
        return run.stdout

    def test_first_sym_grid_of_a_thousand_zeros(self):
        out = self._run("verify", "--prop", "first-sym", "--grid", "n=1000,jmax=0")
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["input"]["ms"] == ["0"] * 1000
        assert (record["actual"], record["verdict"]) == (1, "agree")

    def test_couple_twelve_hundred_zeros(self):
        out = self._run(
            "couple", "--js", ",".join(["0"] * 1200), "--intermediates", ",".join(["0"] * 1198),
            "--j", "0", "--m", "0",
        )
        assert json.loads(out)["terms"] == [
            {"ms": ["0"] * 1200, "amp": {"sign": 1, "num": "1", "den": "1", "approx": 1.0}}
        ]


class TestDeepSchemeDiagram:
    """A scheme of any depth is decoded, walked, drawn and listed without recursion.

    Decoding the index, listing the leaves and drawing each recursed once per
    tree level, so a 1200-leaf diagram under a raised guard ended in a
    RecursionError traceback.  Scheme 0 is the sequential chain; the last
    scheme pairs the last two leaves first and nests to the right.  The
    listing walk recursed once per leaf, so a 1000-leaf listing failed the
    same way before its first byte.
    """

    @pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
    def test_twelve_hundred_leaves(self, last):
        n = 1200
        index = count_coupling_trees(n, max_leaves=n) - 1 if last else 0
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "jcouple", "diagram", "--n", str(n), "--scheme", str(index)],
            capture_output=True,
            timeout=30,
            env={**os.environ, "JCOUPLE_MAX_TREES": str(n)},
        )
        elapsed = time.perf_counter() - start
        assert run.returncode == 0 and run.stderr == b""
        assert elapsed < 5.0
        lines = run.stdout.decode().splitlines()
        assert (lines[0], lines[-1]) == ("digraph coupling {", "}")
        assert sum("[shape=box" in line for line in lines) == n - 1
        first_pair = (n - 1, n) if last else (1, 2)
        for leaf in first_pair:
            assert any(line.startswith(f"    in{leaf} -> cg1 ") for line in lines)

    def test_thousand_leaf_listing_starts(self):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", "jcouple", "schemes", "--n", "1000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "JCOUPLE_MAX_TREES": "1200"},
        ) as child:
            head = child.stdout.read(4096)
            elapsed = time.perf_counter() - start
            running = child.poll() is None  # (2n-3)!! schemes: the listing never ends
            child.kill()
            err = child.stderr.read()
        assert running and err == b""
        assert len(head) == 4096 and head.startswith(b"[" * 1000 + b"1, 2], 3], ")
        assert elapsed < 5.0


class TestCoupleCliff:
    """600 spin-1/2 momenta, stretched to j=300, at m=299: 600 terms of 600 projections.

    Rebuilding every term as HalfInt keys, a surd and a dict for one
    json.dumps peaked about 69 MB above the import floor.  The terms are
    rendered from the walk's twice-integer table and written in chunks.
    """

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_long_chain_streams(self):
        n = 600
        # the stretched intermediates 2/2, 3/2, ..., 599/2
        intermediates = ",".join(f"{t}/2" for t in range(2, n))
        argv = ["couple", "--js", ",".join(["1/2"] * n), "--intermediates", intermediates]
        floor = _peak_kib()
        assert _peak_kib(*argv, "--j", "300", "--m", "299") - floor < 24 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_many_terms_stream_in_flat_memory(self):
        """Seven j=3 momenta at J=21, M=0: 8.3 MB of terms, none of them held.

        Collecting the walk into one table before rendering peaked about
        30 MB above the import floor; the terms are rendered as the walk
        yields them.
        """
        argv = ["couple", "--js", ",".join(["3"] * 7), "--intermediates", "6,9,12,15,18"]
        floor = _peak_kib()
        assert _peak_kib(*argv, "--j", "21", "--m", "0") - floor < 12 * 1024


class TestVerifyStreams:
    """verify writes each record as soon as it is rendered.

    A reader that takes the first line of a large grid and closes the pipe
    sees the command end at once, quietly; a verify that held the grid's
    records back would still be evaluating.
    """

    @pytest.mark.parametrize("prop", ["first-sym", "kramers"])
    def test_first_record_then_closed_pipe(self, prop):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "jcouple", "verify", "--prop", prop, "--grid", "n=6,jmax=1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=10)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        elapsed = time.perf_counter() - start
        assert json.loads(line)["verdict"] in ("agree", "diverge")
        assert code == 0 and err == b""
        assert elapsed < 2.0


class TestKramersCliff:
    """The kramers grid n=5, jmax=3/2: 50,016 records, each the empty sum.

    Walking every state's amplitude table and dotting it with its reversal
    took about 5 s as a subprocess; one contraction per chain takes about 1 s
    (2-vCPU x86 VM, Python 3.11).
    """

    def test_finishes_quickly(self):
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "jcouple", "verify", "--prop", "kramers", "--grid"]
            + ["n=5,jmax=3/2"],
            capture_output=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert run.returncode == 0 and run.stderr == b""
        assert run.stdout.count(b"\n") == 50016
        assert elapsed < 3.0


class TestVerifyCommand:
    def test_first_sym_contains_divergence(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--prop", "first-sym", "--grid", "n=2,jmax=1")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert any(r["verdict"] == "diverge" for r in records)
        singlet = [
            r
            for r in records
            if r["input"]["js"] == ["1/2", "1/2"] and r["input"]["j"] == "0"
        ]
        assert singlet and any(r["verdict"] == "diverge" for r in singlet)

    def test_univalence_all_agree(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--prop", "univalence", "--grid", "n=3,jmax=1")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["verdict"] == "agree" for r in records)

    def test_kramers_all_agree(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--prop", "kramers", "--grid", "n=2,jmax=1")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["verdict"] == "agree" for r in records)

    def test_second_sym_paper_literal_diverges(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--prop", "second-sym", "--grid", "n=2,jmax=1"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["verdict"] == "diverge" for r in records)

    def test_second_sym_same_state_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--prop", "second-sym", "--grid", "n=2,jmax=1",
            "--interpretation", "same-state",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["verdict"] == "agree" for r in records)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--prop", "first-sym", "--grid", "n=3,jmax=1"],
            ["--prop", "first-sym", "--grid", "n=2,jmax=3/2"],
            ["--prop", "second-sym", "--grid", "n=3,jmax=1"],
            ["--prop", "second-sym", "--grid", "n=2,jmax=3/2", "--interpretation", "same-state"],
            ["--prop", "kramers", "--grid", "n=3,jmax=1"],
        ],
    )
    def test_chain_grids_build_no_chain(self, monkeypatch, capsys, argv):
        """The chain grids walk twice-integer partial totals: no CouplingChain is built or checked."""
        checked = []
        init = coupling.CouplingChain.__init__

        def counting(chain, *args):
            checked.append(chain)
            init(chain, *args)

        monkeypatch.setattr(coupling.CouplingChain, "__init__", counting)
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0 and out.count("\n") > 10
        assert checked == []
        # the count is live: the HalfInt view of the same walk builds and checks each chain
        assert len(coupling.enumerate_chains([HalfInt(2)] * 3)) == len(checked) == 7

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--prop", "compat", "--grid", "n=2")
        assert code == 1 and "grid" in err

    @pytest.mark.parametrize(
        "grid, entries",
        [
            ("n=2,jmax=353", 2 * 707**2),
            ("n=2,jmax=707/2", 2 * 708**2),
            ("n=1000000,jmax=0", 10**6),
            ("n=1000001,jmax=0", 10**6 + 1),
            ("n=5,jmax=7", 5 * 15**5),
            ("n=6,jmax=7", 6 * 15**6),
        ],
    )
    def test_grid_guard_bound(self, grid, entries):
        # n * (2 jmax + 1)**n js-tuple entries are allowed up to 10**6, the kepler bound
        if entries <= 10**6:
            assert cli._parse_grid(grid)[0] == int(grid.split(",")[0][2:])
        else:
            with pytest.raises(DomainError, match="^grid request exceeds the enumeration guard$"):
                cli._parse_grid(grid)


class TestKeplerCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "kepler", "--z", "1", "--jcut", "1", "--stats", "boson",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "j_tuple,energy_num,energy_den,deg_paper,deg_enum,kramers"
        assert lines[1] == "0,0,1,2,1,not_inferable"
        assert lines[2] == "1/2,-1,16,4,4,not_inferable"
        assert lines[3] == "1,-1,9,6,9,not_inferable"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "kepler", "--z", "1", "--jcut", "1/2", "--stats", "fermion"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kramers"] == "guaranteed_double"
        half = next(l for l in payload["levels"] if l["js"] == ["1/2"])
        assert half["deg_paper"] == 6 and half["deg_enum"] == 8 and half["diverges"]


    def test_merged_order_is_exact_where_floats_tie(self):
        # -N/(N+1) and -(N+1)/(N+2) round to one float; the larger is inserted first
        big = 10**17
        energies = [(-1, 2), (-big, big + 1), (-(big + 1), big + 2)]
        assert energies[1][0] / energies[1][1] == energies[2][0] / energies[2][1]
        groups = {e: [cli._energy_fields(*e), [], 0, 0] for e in energies}
        merged = json.loads("[" + ", ".join(cli._merged_groups(groups)) + "]")
        assert [(int(m["energy"]["num"]), int(m["energy"]["den"])) for m in merged] == [
            (-(big + 1), big + 2),
            (-big, big + 1),
            (-1, 2),
        ]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        commands = [
            ["cg", "--j1", "1", "--m1", "0", "--j2", "1", "--m2", "0", "--j", "2", "--m", "0"],
            ["schemes", "--n", "4", "--count-only"],
            ["kepler", "--z", "2", "--jcut", "1/2", "--stats", "fermion"],
            ["verify", "--prop", "compat", "--grid", "n=2,jmax=1"],
        ]
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "jcouple", *argv],
                    capture_output=True,
                    check=True,
                )
                for _ in range(2)
            ]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout
