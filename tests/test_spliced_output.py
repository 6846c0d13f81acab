"""Spliced `verify` and `couple` text against json.dumps of the objects it stands for.

Both commands render their JSON by hand, from parts rendered once and
joined with f-strings.  The references here build each verify record as
the dict it stands for (the builder `verify` used before its records were
spliced) and each couple payload from `expand_coupled_state`; the output
must equal json.dumps of the reference byte for byte, line by line.
"""

import contextlib
import functools
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcouple import (
    HalfInt,
    audit_second_symmetry,
    check_compatibility,
    coupled_univalence,
    coupling,
    enumerate_chains,
    expand_coupled_state,
    first_symmetry_audits,
    halfint_range,
    jmax,
    jmin,
    kramers_overlap,
    parse_halfint,
    projection_range,
    t_squared_sign,
)
from jcouple.cli import main


def reference_records(prop, n, top, interpretation):
    """Every record of `verify --prop prop --grid n=..,jmax=top` as a dict, in output order."""
    values = [HalfInt(t) for t in range(top.twice + 1)]
    grid = itertools.product(values, repeat=n)
    if prop in ("univalence", "compat"):
        for js in grid:
            for j in halfint_range(jmin(js), jmax(js)):
                if prop == "univalence":
                    claimed, actual = coupled_univalence(js), t_squared_sign(j)
                else:
                    claimed, actual = 1, 1 if check_compatibility(js, j) else -1
                yield {
                    "input": {"js": [str(x) for x in js], "j": str(j)},
                    "claimed": claimed,
                    "actual": actual,
                    "verdict": "agree" if claimed == actual else "diverge",
                }
        return
    if prop == "second-sym":
        overlap = functools.partial(audit_second_symmetry, interpretation=interpretation)
        extra = {"interpretation": interpretation}
    else:
        overlap, extra = kramers_overlap, {}
    for js in grid:
        for chain in enumerate_chains(js):
            base = chain.to_json_dict()
            if prop == "first-sym":
                for tms, total, audit in first_symmetry_audits(*coupling._twices(chain)):
                    yield {
                        "input": dict(
                            base, ms=[str(HalfInt(t)) for t in tms], m=str(HalfInt(total))
                        ),
                        "claimed": 1,
                        "actual": audit.ratio,
                        "verdict": audit.verdict,
                    }
            elif chain.total_j.is_half_odd:
                for m in projection_range(chain.total_j):
                    value = overlap(chain, m)
                    yield {
                        "input": dict(base, m=str(m), **extra),
                        "claimed": "0",
                        "actual": {
                            "terms": [
                                {"root": str(r), "re": str(c.re), "im": str(c.im)}
                                for r, c in value.items()
                            ]
                        },
                        "verdict": "agree" if value.is_zero else "diverge",
                    }


class CountingSink(io.StringIO):
    """stdout stand-in that keeps each write's text."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def run_cli(*argv) -> CountingSink:
    sink = CountingSink()
    with contextlib.redirect_stdout(sink):
        assert main(list(argv)) == 0
    return sink


PROPS = [
    ("first-sym", None),
    ("kramers", None),
    ("second-sym", "paper-literal"),
    ("second-sym", "same-state"),
    ("univalence", None),
    ("compat", None),
]
GRIDS = [(2, "3"), (3, "3/2"), (4, "1")]
# every prop on every grid, and the two cheap props on the benchmark's larger grid
CASES = [(*p, *g) for p in PROPS for g in GRIDS] + [
    ("univalence", None, 4, "2"),
    ("compat", None, 4, "2"),
]


def _verify_argv(prop, interpretation, n, top):
    argv = ["verify", "--prop", prop, "--grid", f"n={n},jmax={top}"]
    if interpretation:
        argv += ["--interpretation", interpretation]
    return argv


@pytest.mark.parametrize(
    "prop, interpretation, n, top",
    CASES,
    ids=[f"{p}-n{n}-jmax{top}" + (f"-{i}" if i else "") for p, i, n, top in CASES],
)
def test_verify_lines_are_json_dumps_of_the_records(prop, interpretation, n, top):
    sink = run_cli(*_verify_argv(prop, interpretation, n, top))
    lines = sink.getvalue().splitlines(keepends=True)
    expected = [
        json.dumps(record) + "\n"
        for record in reference_records(prop, n, parse_halfint(top), interpretation)
    ]
    assert expected
    assert len(lines) == len(expected)
    for got, want in zip(lines, expected):
        assert got == want
    # one write per record, each a whole line, written as the record is reached
    assert sink.writes == lines


def test_grids_reach_every_field_form():
    """The grids above print every form a spliced field takes.

    compat is a theorem on admissible totals, so it never diverges.
    """
    seen = set()
    for prop, interpretation in PROPS:
        for n, top in GRIDS:
            out = run_cli(*_verify_argv(prop, interpretation, n, top)).getvalue()
            for line in out.splitlines():
                record = json.loads(line)
                actual = record["actual"]
                form = len(actual["terms"]) if isinstance(actual, dict) else actual
                seen.add((prop, form, record["verdict"]))
    assert {
        ("first-sym", 1, "agree"),
        ("first-sym", -1, "diverge"),
        ("first-sym", None, "agree"),
        ("second-sym", 0, "agree"),
        ("second-sym", 1, "diverge"),
        ("kramers", 0, "agree"),
        ("univalence", 1, "agree"),
        ("univalence", -1, "agree"),
        ("compat", 1, "agree"),
    } <= seen


@st.composite
def _states(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    js = draw(st.lists(st.integers(min_value=0, max_value=4).map(HalfInt), min_size=n, max_size=n))
    chain = draw(st.sampled_from(enumerate_chains(js)))
    return chain, draw(st.sampled_from(list(projection_range(chain.total_j))))


@settings(max_examples=80, deadline=None)
@given(_states())
def test_couple_output_is_the_expansion(state):
    chain, m = state
    text = run_cli(
        "couple",
        "--js",
        ",".join(str(j) for j in chain.js),
        "--intermediates",
        ",".join(str(j) for j in chain.intermediates),
        "--j",
        str(chain.total_j),
        "--m",
        str(m),
    ).getvalue()
    expansion = expand_coupled_state(chain, m)
    expected = {
        "chain": chain.to_json_dict(),
        "m": str(m),
        "terms": [
            {"ms": [str(x) for x in ms], "amp": {**amp.to_json_dict(), "approx": amp.approx()}}
            for ms, amp in expansion.amplitudes.items()
        ],
    }
    assert json.loads(text) == expected
    assert text == json.dumps(expected) + "\n"
