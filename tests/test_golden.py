"""Golden stdout: SHA-256 of the CLI output for a fixed set of argv.

The digests were recorded before the shared sparse-sum refactor, the
scheme and diagram digests and error messages before scheme indices were
decoded directly, and the listings for n=2..4, 6 and 7 and the listing's
guard errors before the listing was streamed, and the kepler spectra at
z=1..4 (z=2, jcut=5/2 is the first case where two j-multisets share an
energy) and the kepler errors before the spectrum was streamed, and the
first-sym grids at n=2..4 before each ±ms pair shared its evaluation, and
the kramers grid at n=4 and the second-sym grids at n=3, jmax=3/2 and n=4
under both readings before the overlaps ran on the pruned walk, and the
five-momentum couple expansions at m=0 and m=-1 before couple stopped
sorting the walk's terms, and the univalence and compat grids at n=4,
jmax=2 and the second-sym grid at n=2, jmax=5/2 before verify records were
written as spliced text, and the regge-audit tables in all three formats,
a classify verdict and the cg and 3j zero values before every subcommand
returned its text for main to write; any change to what these commands print, byte
for byte, fails here.  Every error case also checks that nothing reached
stdout.  The unsafe-label and total-projection error
messages pin the wording of the DOT label check and of the shared (j, m)
validity rule; the classify case pins the one-line error for nesting deeper
than the JSON parser accepts (it printed a RecursionError traceback before),
and the 5000-digit projection case the out-of-range wording for a number
past the interpreter's int-to-str digit limit.  The last three cases pin the
cut echo of a long JCOUPLE_MAX_TREES and the wording for a scheme count past
that digit limit ((2n-3)!! first is at n=1425), which ended in a ValueError
traceback before.  The next case pins the cut echo of a 4001-character
negative kepler cutoff (the whole argument was echoed before); the grid and
momentum-list refusals of verify and couple after it, and the digest of a
grid with an empty entry, which is skipped, were recorded before the kepler
walk took over the per-multiset memo.  The n=8 listing was recorded before
the listing was rendered from skeleton templates, and the two grid refusals
at n = 10^12 and 10^30 (a MemoryError and an OverflowError traceback before)
pin the grid's enumeration guard.  The two cases before the last pin the
refusal of a fermion count 2^z past the int-to-str digit limit, in json and
csv, which ended in a ValueError traceback before.  The last case pins the
one nonnegativity message for a list of momenta, recorded when it replaced
"momenta must be nonnegative".
Everything runs in-process and takes well under a second.
"""

import hashlib

import pytest

from jcouple.cli import main

CG = ("--j1", "3/2", "--m1", "1/2", "--j2", "1", "--m2", "-1", "--j", "3/2", "--m", "-1/2")
# a base whose Regge orbit has both verdicts, and a zero coefficient (cg and 3j)
REGGE = ("--a", "2", "--alpha", "1", "--b", "1", "--beta", "-1", "--c", "1", "--gamma", "0")
ZERO = ("--j1", "1", "--m1", "0", "--j2", "1", "--m2", "0", "--j", "1", "--m", "0")

GOLDEN = [
    (("cg", *CG), "03e635582e74661916f30f6b0b116a06f697841ae35733a7c338d42c3b0999d8"),
    (("cg", *CG, "--format", "plain"), "aa75e0e256691014804a4d8879ab09044979546b6b039acd3d686e38aed5fcfe"),
    (("threej", *CG), "9dbe9a5cb694ed18ae8e9f1fc7fc1695cfe62a7bd0cb20dbdf78c2ca08d740b0"),
    (("threej", *CG, "--format", "plain"), "9b7e1c213e3f54ab5f28472f23d8c0c4a22f6e04088a0aa3ce025c4b50c62332"),
    (
        ("couple", "--js", "1/2,1,3/2", "--intermediates", "3/2", "--j", "2", "--m", "1"),
        "8c3b425077ea54622c4b0507affd6bbbde573701cab107e67843ef1a045a4b5d",
    ),
    (
        ("verify", "--prop", "univalence", "--grid", "n=3,jmax=1"),
        "b0bb1e0b7c27dba3e9f30fe568ee50a44c3c761066ce475d0ab8600d037ec012",
    ),
    (
        ("verify", "--prop", "compat", "--grid", "n=3,jmax=1"),
        "214aca50f58a36e0fe0d6d130de20c09c0dac4854485de29b17521c6e80ef1e0",
    ),
    (
        ("verify", "--prop", "first-sym", "--grid", "n=3,jmax=1"),
        "f3a6f66abf3ddeae36d8e240c5bf8d300c0308909bd19edae81bdc8490243b8a",
    ),
    (
        ("verify", "--prop", "second-sym", "--grid", "n=3,jmax=1"),
        "81ce3163d9ea570e591790b43b0a30e640807c2c108c6057085589d313700791",
    ),
    (
        ("verify", "--prop", "second-sym", "--grid", "n=3,jmax=1", "--interpretation", "same-state"),
        "5191bc6075ab5c7c8f3ec6a1e5f0a4cdaae6ebebb05c84b3252a31342420140c",
    ),
    (
        ("verify", "--prop", "kramers", "--grid", "n=3,jmax=1"),
        "6fbb196d640408d8a3341ebe793c2aa28385102cbc94733fd79b9e099fd9e7d5",
    ),
    (
        ("kepler", "--z", "2", "--jcut", "1", "--stats", "fermion"),
        "a1fc1e0e7ac11d7874851bd5df43685a4299b3474b8c1de25ca0931d76a9996b",
    ),
    (
        ("kepler", "--z", "2", "--jcut", "1", "--stats", "boson", "--format", "csv"),
        "59df7ba1fe1e2f88158d18bdd09a800427d415f9f022c30e1e5f75b2c93730fe",
    ),
    (("schemes", "--n", "5"), "ad9d9cca2b8d45af16101e8c29c7355160ee58a1c9af69714f70101024622a53"),
    (
        ("schemes", "--n", "5", "--count-only"),
        "2fcae9c346ff9530cd3b7303a6456e3a296ff1876b18b50c324343638ec2bdf3",
    ),
    (
        ("diagram", "--n", "6", "--scheme", "104", "--labels", "a,b,c,d,e,f"),
        "ff29c8e3d22d870da9c079495102c1ccc369849163746213cb3707a762acc159",
    ),
    (
        ("diagram", "--n", "8", "--scheme", "135134"),
        "966f6dfd01538411633532b062f91300fba47d0af2c98a0aeda6fcb5cb52df7e",
    ),
    (("schemes", "--n", "2"), "0e07dd018c8035cab15acbdf0e189f468da730703df618701e3a5c3bc0c1f5a7"),
    (("schemes", "--n", "3"), "71b0e56cf4e3e378947f5d8ca56b830249645910f84eecaed57f9ed241a618ea"),
    (("schemes", "--n", "4"), "dcb64547103d6d23e97bb57aa76c8157be328eeb6123555d293a496819fab785"),
    (("schemes", "--n", "6"), "ec7ea1d346196b53dd358a9722ba5e691b3206cfdc12936a9cc3d656cfc24886"),
    (("schemes", "--n", "7"), "f0f083b4734ad3aea27a4ee4361eab6a9f73d44f69335ce44cf1ef569e7c1bd7"),
    (
        ("kepler", "--z", "2", "--jcut", "5/2", "--stats", "boson"),
        "e33cf6b01e8754042c8957dfd0eeb9a575c4d4606dc1585bacb02394c0c4feaf",
    ),
    (
        ("kepler", "--z", "2", "--jcut", "5/2", "--stats", "boson", "--format", "csv"),
        "2267136d0d880f2337e3f3c38af6ee3a21fddf7befd2ef6f4b738830bcb80d09",
    ),
    (
        ("kepler", "--z", "2", "--jcut", "5/2", "--stats", "fermion"),
        "2e8fc453e074802a9b7889eacfcb34359fe0336c10d91e7a711f2c60745039cd",
    ),
    (
        ("kepler", "--z", "2", "--jcut", "5/2", "--stats", "fermion", "--format", "csv"),
        "223ab0ecbdb8572f065279ba55ac341957b3243225092c79d62efec41ffd9f88",
    ),
    (
        ("kepler", "--z", "4", "--jcut", "3/2", "--stats", "fermion"),
        "4c5556bd3b98c8271de61659058da7e786ea9ff1cfde93d7fd11a30ac02e5524",
    ),
    (
        ("kepler", "--z", "1", "--jcut", "0", "--stats", "boson"),
        "37e86e9d7f6634c555b857ac58ba278d57605cc587c5678c505f9bada9674339",
    ),
    (
        ("kepler", "--z", "3", "--jcut", "1", "--stats", "boson", "--format", "csv"),
        "7b5e01cfb8545dffd583c3cd174a28ad96ed2e78b9f1a5663db0b23677acdcf9",
    ),
    (
        ("verify", "--prop", "first-sym", "--grid", "n=2,jmax=3/2"),
        "0813ab75a567a459606a6a478aa55d05a774e5bcb8235717fb87563f9b318fca",
    ),
    (
        ("verify", "--prop", "first-sym", "--grid", "n=3,jmax=3/2"),
        "bb1e1a6b96fca39f19d5e48a32f863de8ed40ded3ae1f728bc9e089fa0132228",
    ),
    (
        ("verify", "--prop", "first-sym", "--grid", "n=4,jmax=1"),
        "c898cb2d8fdfb8ce7695cf4357faa86c6de224f4e366d032df470546267169b3",
    ),
    (
        ("verify", "--prop", "kramers", "--grid", "n=4,jmax=1"),
        "884e977cb995767cdf95317e8ae0b672b90b39693010ead0a525df207647b3f2",
    ),
    (
        ("verify", "--prop", "second-sym", "--grid", "n=3,jmax=3/2"),
        "f8b4d5931978d41e9a44e5bd73d7fdb746ff95b67d3ebc31a5d225c11bb4a0a5",
    ),
    (
        ("verify", "--prop", "second-sym", "--grid", "n=3,jmax=3/2", "--interpretation", "same-state"),
        "4a43579382ba74e8bb4398f9d563c726b693717694830580431daac6664c2157",
    ),
    (
        ("verify", "--prop", "second-sym", "--grid", "n=4,jmax=1"),
        "aa56dd38164f10ae53031bd70773b58f60fc4aa1c375ed2463bdc24c18fd1b98",
    ),
    (
        ("verify", "--prop", "second-sym", "--grid", "n=4,jmax=1", "--interpretation", "same-state"),
        "cd85647a82d4e4a9b414fecb9c910fa677d88efacd768688e54f916fe6b1de77",
    ),
    (
        ("couple", "--js", "1,1/2,1/2,1,1", "--intermediates", "3/2,1,2", "--j", "2", "--m", "0"),
        "5fa644e60a39d2f8d468469810fd92c6dc2d6f61130604e2bafaefd13cecb3cb",
    ),
    (
        ("couple", "--js", "1,1/2,1/2,1,1", "--intermediates", "3/2,1,2", "--j", "2", "--m", "-1"),
        "740811c12094697bb290bfb860f76d4c2bf3139e58bda5c5672cf6334fd3fd5f",
    ),
    (
        ("verify", "--prop", "univalence", "--grid", "n=4,jmax=2"),
        "bb6e698599147514e55b1d7783771a47f8596365cbfdf1bf36be082a44939897",
    ),
    (
        ("verify", "--prop", "compat", "--grid", "n=4,jmax=2"),
        "6eee6068da761f0486fe52c0863dabb68a16a15ecab656a9a9195d57fa9ddab5",
    ),
    (
        ("verify", "--prop", "second-sym", "--grid", "n=2,jmax=5/2"),
        "0deea92dc4544fd57a9bf2c51da2e9a6103f2c6961c8669961e99a94240ca8f9",
    ),
    (("regge-audit", *REGGE), "8d67f803adb356c54666fa4656f983be48838c5f4a12bb499685d3ccf33c40cd"),
    (
        ("regge-audit", *REGGE, "--format", "csv"),
        "8b73441e5b88bb146703c05bcc0473cb4aa60e79e1547490c51bb58d7effb896",
    ),
    (
        ("regge-audit", *REGGE, "--format", "plain"),
        "3c0d82fe1344321d5f1174d65da468a7fb90b4965221092aba477780e274ca95",
    ),
    (("classify", "[[-1,-1,-1],-1]"), "84617205c01f92ce42e792f675e11ccb6bc2648be6808772078f6f26da0321b5"),
    (("cg", *ZERO), "9dbe9a5cb694ed18ae8e9f1fc7fc1695cfe62a7bd0cb20dbdf78c2ca08d740b0"),
    (("cg", *ZERO, "--format", "plain"), "9b7e1c213e3f54ab5f28472f23d8c0c4a22f6e04088a0aa3ce025c4b50c62332"),
    (("threej", *ZERO), "9dbe9a5cb694ed18ae8e9f1fc7fc1695cfe62a7bd0cb20dbdf78c2ca08d740b0"),
    (("threej", *ZERO, "--format", "plain"), "9b7e1c213e3f54ab5f28472f23d8c0c4a22f6e04088a0aa3ce025c4b50c62332"),
    (
        ("verify", "--prop", "univalence", "--grid", "n=2,,jmax=0"),
        "d85e4ee6a169c1f7ca67ccbb24eec90bc6b0cd7ba297055a7bf15eff9b465ef4",
    ),
    (("schemes", "--n", "8"), "f72cc82ff76f3df2f6e25c0aa8a40d1a719084df1d9bd039cf451387cc5550b5"),
]


IDS = [
    "cg-json", "cg-plain", "threej-json", "threej-plain", "couple",
    "verify-univalence", "verify-compat", "verify-first-sym",
    "verify-second-sym-paper-literal", "verify-second-sym-same-state", "verify-kramers",
    "kepler-json", "kepler-csv",
    "schemes-n5", "schemes-n5-count", "diagram-n6-labels", "diagram-n8-last",
    "schemes-n2", "schemes-n3", "schemes-n4", "schemes-n6", "schemes-n7",
    "kepler-z2-shared-energy-boson-json", "kepler-z2-shared-energy-boson-csv",
    "kepler-z2-shared-energy-fermion-json", "kepler-z2-shared-energy-fermion-csv",
    "kepler-z4-fermion-json", "kepler-z1-zero-energy-json", "kepler-z3-boson-csv",
    "verify-first-sym-n2-jmax3/2", "verify-first-sym-n3-jmax3/2", "verify-first-sym-n4-jmax1",
    "verify-kramers-n4-jmax1",
    "verify-second-sym-paper-literal-n3-jmax3/2", "verify-second-sym-same-state-n3-jmax3/2",
    "verify-second-sym-paper-literal-n4-jmax1", "verify-second-sym-same-state-n4-jmax1",
    "couple-n5-m0", "couple-n5-m-1",
    "verify-univalence-n4-jmax2", "verify-compat-n4-jmax2",
    "verify-second-sym-paper-literal-n2-jmax5/2",
    "regge-audit-json", "regge-audit-csv", "regge-audit-plain", "classify-boson",
    "cg-zero-json", "cg-zero-plain", "threej-zero-json", "threej-zero-plain",
    "verify-univalence-grid-empty-chunk", "schemes-n8",
]

GUARD = "exceeds the enumeration guard ({}); raise the guard explicitly to proceed"
LABEL = "may not contain a double quote, a backslash or a line break"
KEPLER_COUNTS = "the degeneracy counts at z=14285, jcut=0"

# (JCOUPLE_MAX_TREES or None, argv, exact stderr); every case exits with code 1
GOLDEN_ERRORS = [
    (None, ("diagram", "--n", "3", "--scheme", "9"), "error: scheme index 9 out of range 0..2\n"),
    (None, ("diagram", "--n", "3", "--scheme", "-1"), "error: scheme index -1 out of range 0..2\n"),
    (None, ("diagram", "--n", "2", "--scheme", "1"), "error: scheme index 1 out of range 0..0\n"),
    (None, ("diagram", "--n", "3", "--labels", "a,b"), "error: expected 3 labels, got 2\n"),
    (None, ("diagram", "--n", "11"), f"error: n=11 {GUARD.format(10)}\n"),
    (None, ("diagram", "--n", "1"), "error: coupling needs at least two momenta\n"),
    (None, ("schemes", "--n", "11", "--count-only"), f"error: n=11 {GUARD.format(10)}\n"),
    (None, ("schemes", "--n", "1"), "error: coupling needs at least two momenta\n"),
    (None, ("schemes", "--n", "0", "--count-only"), "error: coupling needs at least two momenta\n"),
    ("4", ("schemes", "--n", "5", "--count-only"), f"error: n=5 {GUARD.format(4)}\n"),
    ("4", ("diagram", "--n", "5"), f"error: n=5 {GUARD.format(4)}\n"),
    ("many", ("diagram", "--n", "3"), "error: JCOUPLE_MAX_TREES must be an integer, got 'many'\n"),
    (
        "many",
        ("schemes", "--n", "3", "--count-only"),
        "error: JCOUPLE_MAX_TREES must be an integer, got 'many'\n",
    ),
    (None, ("diagram", "--n", "2", "--labels", 'a"b,c'), f"error: label 'a\"b' {LABEL}\n"),
    (None, ("diagram", "--n", "2", "--labels", "a,b\\c"), f"error: label 'b\\\\c' {LABEL}\n"),
    (None, ("diagram", "--n", "2", "--labels", "a\nb,c"), f"error: label 'a\\nb' {LABEL}\n"),
    (None, ("diagram", "--n", "2", "--labels", "a,b\r\n"), f"error: label 'b\\r\\n' {LABEL}\n"),
    (
        None,
        ("diagram", "--n", "2", "--labels", "a\u2028b,c"),
        f"error: label 'a\\u2028b' {LABEL}\n",
    ),
    (
        None,
        ("couple", "--js", "1,1", "--j", "2", "--m", "3"),
        "error: total (j, m): |m|=3 exceeds j=2\n",
    ),
    (
        None,
        ("couple", "--js", "1,1", "--j", "2", "--m", "1/2"),
        "error: total (j, m): m=1/2 not reachable from -j=-2 in unit steps\n",
    ),
    (None, ("schemes", "--n", "11"), f"error: n=11 {GUARD.format(10)}\n"),
    ("4", ("schemes", "--n", "5"), f"error: n=5 {GUARD.format(4)}\n"),
    ("many", ("schemes", "--n", "3"), "error: JCOUPLE_MAX_TREES must be an integer, got 'many'\n"),
    (
        None,
        ("kepler", "--z", "0", "--jcut", "1", "--stats", "boson"),
        "error: need at least one particle\n",
    ),
    (
        None,
        ("kepler", "--z", "1", "--jcut", "-1/2", "--stats", "boson"),
        "error: cutoff must be nonnegative, got -1/2\n",
    ),
    (
        None,
        ("kepler", "--z", "2", "--jcut", "1000", "--stats", "boson"),
        "error: spectrum request exceeds the enumeration guard\n",
    ),
    (
        None,
        ("verify", "--prop", "univalence", "--grid", "n=2,n=3,jmax=0"),
        "error: grid key 'n' given twice\n",
    ),
    (
        None,
        ("classify", "[" * 100_000 + "-1" + "]" * 100_000),
        "error: invalid JSON particle description: nested too deeply to parse\n",
    ),
    (
        None,
        ("couple", "--js", "1,1", "--j", "2", "--m", "7" * 5000),
        f"error: number out of range, too many digits: '{'7' * 59}... (5002 characters)\n",
    ),
    (
        "x" * 300,
        ("diagram", "--n", "3"),
        f"error: JCOUPLE_MAX_TREES must be an integer, got '{'x' * 59}... (302 characters)\n",
    ),
    (
        "5000",
        ("schemes", "--n", "3000", "--count-only"),
        "error: number out of range, too many digits: the scheme count (2n-3)!! at n=3000\n",
    ),
    (
        "5000",
        ("diagram", "--n", "3000", "--scheme", "-1"),
        "error: scheme index -1 out of range 0..(2n-3)!!-1, too many digits to print\n",
    ),
    (
        None,
        ("kepler", "--z", "1", "--jcut", "-" + "9" * 4000, "--stats", "boson"),
        f"error: cutoff must be nonnegative, got -{'9' * 59}... (4001 characters)\n",
    ),
    (
        None,
        ("verify", "--prop", "univalence", "--grid", "n=2,jmax"),
        "error: grid entries look like key=value, got 'jmax'\n",
    ),
    (
        None,
        ("verify", "--prop", "univalence", "--grid", "n=two,jmax=1"),
        "error: grid n must be an integer, got 'two'\n",
    ),
    (
        None,
        ("verify", "--prop", "univalence", "--grid", "n=1,jmax=1"),
        "error: grid needs n >= 2 and jmax >= 0\n",
    ),
    (
        None,
        ("verify", "--prop", "univalence", "--grid", "n=2,jmax=-1/2"),
        "error: grid needs n >= 2 and jmax >= 0\n",
    ),
    (
        None,
        ("couple", "--js", ",", "--j", "0", "--m", "0"),
        "error: expected a comma-separated list of momenta\n",
    ),
    (
        None,
        ("verify", "--prop", "univalence", "--grid", "n=1000000000000,jmax=0"),
        "error: grid request exceeds the enumeration guard\n",
    ),
    (
        None,
        ("verify", "--prop", "univalence", "--grid", "n=1000000000000000000000000000000,jmax=0"),
        "error: grid request exceeds the enumeration guard\n",
    ),
    (
        None,
        ("kepler", "--z", "14285", "--jcut", "0", "--stats", "fermion"),
        f"error: number out of range, too many digits: {KEPLER_COUNTS}\n",
    ),
    (
        None,
        ("kepler", "--z", "14285", "--jcut", "0", "--stats", "fermion", "--format", "csv"),
        f"error: number out of range, too many digits: {KEPLER_COUNTS}\n",
    ),
    (
        None,
        ("couple", "--js", "1,-1", "--j", "0", "--m", "0"),
        "error: momentum must be nonnegative, got -1\n",
    ),
    (
        None,
        ("cg", "--j1", "-1", "--m1", "0", "--j2", "0", "--m2", "0", "--j", "1", "--m", "0"),
        "error: momentum must be nonnegative, got -1\n",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=IDS)
def test_stdout_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("max_trees, argv, stderr", GOLDEN_ERRORS)
def test_error_message(capsys, monkeypatch, max_trees, argv, stderr):
    if max_trees is None:
        monkeypatch.delenv("JCOUPLE_MAX_TREES", raising=False)
    else:
        monkeypatch.setenv("JCOUPLE_MAX_TREES", max_trees)
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr
