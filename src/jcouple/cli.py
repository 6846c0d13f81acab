"""Command-line interface: one subcommand per operation family.

Exit codes: 0 success, 1 domain errors (bad quantum numbers, with a one-line
diagnostic on stderr), 2 usage errors.  Output is byte-deterministic for a
fixed argv: no timestamps, sorted iteration everywhere, exact values as
decimal strings with floats only under explicit "approx" keys.

Every subcommand returns its output as an iterable of texts and ``main`` is
the one writer.  A handler checks its input when it is called, or, for
``verify``, before its first text, so an error leaves stdout empty.

Only ``numerics`` is imported with this module.  Each handler imports the
modules it runs when it is called, so a subcommand loads only those.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .numerics import (
    DomainError,
    HalfInt,
    check_table_size,
    halfint_range,
    parse_halfint,
    short_repr,
    twice_text,
)

if TYPE_CHECKING:
    from .coupling import CouplingChain


def _parse_intermediates(text: str) -> tuple[HalfInt, ...]:
    items = [s for s in text.split(",") if s.strip()]
    return tuple(parse_halfint(s) for s in items)


def _parse_js(text: str) -> tuple[HalfInt, ...]:
    js = _parse_intermediates(text)
    if not js:
        raise DomainError("expected a comma-separated list of momenta")
    return js


def _max_trees() -> int:
    raw = os.environ.get("JCOUPLE_MAX_TREES")
    if raw is None:
        return 10
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"JCOUPLE_MAX_TREES must be an integer, got {short_repr(raw)}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_coefficient(ns: argparse.Namespace) -> list[str]:
    """cg and threej: one coefficient of the six parsed arguments."""
    from .wigner import CgArgs, cg, three_j

    evaluate = three_j if ns.command == "threej" else lambda *q: cg(CgArgs(*q))
    value = evaluate(
        parse_halfint(ns.j1),
        parse_halfint(ns.m1),
        parse_halfint(ns.j2),
        parse_halfint(ns.m2),
        parse_halfint(ns.j),
        parse_halfint(ns.m),
    )
    if ns.format == "plain":
        return [f"{value} ~= {value.approx()}\n"]
    return [_surd_text(value.signed_square()) + "\n"]


def cmd_regge_audit(ns: argparse.Namespace) -> list[str]:
    from .wigner import regge_orbit_audit

    entries = regge_orbit_audit(
        parse_halfint(ns.a),
        parse_halfint(ns.alpha),
        parse_halfint(ns.b),
        parse_halfint(ns.beta),
        parse_halfint(ns.c),
        parse_halfint(ns.gamma),
    )
    keys = ("transform", "claimed", "actual", "verdict")
    rows = [(e.transform, e.claimed, e.actual, "agree" if e.agrees else "diverge") for e in entries]
    if ns.format == "csv":
        # no field can hold a comma, a quote or a line break, so the rows are plain joins
        return [",".join(keys) + "\n"] + [f"{t},{c},{a},{v}\n" for t, c, a, v in rows]
    if ns.format == "plain":
        return [f"{t}\t{c:+d}\t{a:+d}\t{v}\n" for t, c, a, v in rows]
    return [json.dumps([dict(zip(keys, row)) for row in rows]) + "\n"]


def _names(top: int) -> dict[int, str]:
    """{twice m: str(m)} for every |twice m| <= top."""
    return {t: twice_text(t) for t in range(-top, top + 1)}


def _list_text(texts: list[str]) -> str:
    """json.dumps of a nonempty list of strings that need no escaping."""
    return '["' + '", "'.join(texts) + '"]'


def _surd_text(value: Fraction) -> str:
    """The JSON object of the surd whose signed square is value, with its "approx" float."""
    sign = (value > 0) - (value < 0)
    square = abs(value)
    return (
        f'{{"sign": {sign}, "num": "{square.numerator}", "den": "{square.denominator}", '
        f'"approx": {sign * math.sqrt(square)!r}}}'
    )


def _couple_json(
    chain: CouplingChain, total_m: HalfInt, amplitudes: Iterator[tuple[tuple[int, ...], Fraction]]
) -> Iterator[str]:
    """json.dumps of the couple payload, written as the terms are rendered.

    The terms are the walk's (twice ms, signed square) pairs, taken one at a
    time in walk order; no table, HalfInt or Surd is built for them.
    """
    names = _names(max(j.twice for j in chain.js))
    yield f'{{"chain": {json.dumps(chain.to_json_dict())}, "m": "{total_m}", "terms": ['
    sep = ""
    for tms, value in amplitudes:
        yield f'{sep}{{"ms": {_list_text([names[t] for t in tms])}, "amp": {_surd_text(value)}}}'
        sep = ", "
    yield "]}\n"


def cmd_couple(ns: argparse.Namespace) -> Iterator[str]:
    from .coupling import CouplingChain, _state_amplitudes

    chain = CouplingChain(
        _parse_js(ns.js), _parse_intermediates(ns.intermediates), parse_halfint(ns.j)
    )
    total_m = parse_halfint(ns.m)
    amplitudes = _state_amplitudes(chain, total_m)  # raises before any output
    return _batched(_couple_json(chain, total_m, amplitudes))


def cmd_schemes(ns: argparse.Namespace) -> Iterable[str]:
    from .coupling import count_coupling_trees, coupling_trees_json

    max_leaves = _max_trees()
    if ns.count_only:
        count = count_coupling_trees(ns.n, max_leaves=max_leaves)
        try:
            return [f"{count}\n"]
        except ValueError as exc:
            # past the interpreter's int-to-str digit limit; (2n-3)!! first is at n=1425
            raise DomainError(
                f"number out of range, too many digits: the scheme count (2n-3)!! at n={ns.n}"
            ) from exc
    return itertools.chain(coupling_trees_json(ns.n, max_leaves=max_leaves), ["\n"])


def cmd_diagram(ns: argparse.Namespace) -> list[str]:
    from .coupling import coupling_tree, export_dot

    tree = coupling_tree(ns.n, ns.scheme, max_leaves=_max_trees())
    labels = ns.labels.split(",") if ns.labels else [str(i) for i in range(1, ns.n + 1)]
    return [export_dot(tree, labels)]


def cmd_classify(ns: argparse.Namespace) -> list[str]:
    from .particles import is_fermion, particle_from_json

    raw = sys.stdin.read() if ns.particle in (None, "-") else ns.particle
    try:
        obj = json.loads(raw)
    except ValueError as exc:
        # a decode error, or an integer past the interpreter's digit limit
        raise DomainError(f"invalid JSON particle description: {exc}") from exc
    except RecursionError as exc:
        # the parser recurses once per nested array; its depth limit is not ours
        raise DomainError("invalid JSON particle description: nested too deeply to parse") from exc
    return [json.dumps({"fermion": is_fermion(particle_from_json(obj))}) + "\n"]


def _batched(texts: Iterator[str]) -> Iterator[str]:
    """Joins up to 1024 consecutive texts per chunk, so each write carries many."""
    while chunk := "".join(itertools.islice(texts, 1024)):
        yield chunk


def _energy_fields(num: int, den: int) -> str:
    """The "energy" and "approx" members as json.dumps writes them (a float as its repr).

    num / den is the float that Fraction(num, den) converts to.
    """
    return f'"energy": {{"num": "{num}", "den": "{den}"}}, "approx": {num / den!r}'


def _ascending(energies: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The (num, den) pairs, den > 0, in ascending exact order of num / den.

    The float num / den rounds monotonically, so it never orders two
    energies against their exact order; only when two floats are equal is
    a Fraction built per energy, to order the equal ones exactly.
    """
    approx = {e: e[0] / e[1] for e in energies}
    if len(set(approx.values())) == len(approx):
        return sorted(approx, key=approx.__getitem__)
    return sorted(approx, key=lambda e: (approx[e], Fraction(*e)))


def _kepler_json(header: dict, names: list[str], walk: Iterator, groups: dict) -> Iterator[str]:
    """json.dumps of the kepler payload, written in chunks as the walk goes.

    Each multiset's level text after "js" is spliced after every tuple's "js"
    text.  groups is {(energy num, energy den): [energy text, js texts in
    walk order, deg_paper sum, deg_enum sum]}; level_tail in cmd_kepler
    makes each entry, and renders its energy text, once per distinct energy,
    and this loop fills it, so each merged group lists its tuples in product
    order and sums the counts once per tuple.
    """
    yield json.dumps(header)[:-1] + ', "levels": ['
    sep = ""
    for ts, (tail, group, paper, enum) in walk:
        text = _list_text([names[t] for t in ts])
        group[1].append(text)
        group[2] += paper
        group[3] += enum
        yield f'{sep}{{"js": {text}{tail}'
        sep = ", "
    yield '], "merged": ['
    sep = ""
    for energy in _ascending(groups):
        energy_text, texts, paper, enum = groups[energy]
        yield (
            f'{sep}{{{energy_text}, "deg_paper": {paper}, "deg_enum": {enum}, '
            f'"tuples": [{", ".join(texts)}]}}'
        )
        sep = ", "
    yield "]}\n"


def cmd_kepler(ns: argparse.Namespace) -> Iterator[str]:
    """The spectrum as csv rows or one json payload; each multiset's text is rendered once.

    The walk runs on twice integers and calls row_tail or level_tail once per
    multiset with the energy's reduced numerator and denominator and both
    counts, and yields its result with every ordering.  The fields are
    decimal strings, integers, a float and a bool, rendered as csv.writer
    and json.dumps write them (no csv field needs quoting), because a
    json.dumps call per multiset costs more than the rest of its work.
    """
    from .kepler import Statistics, _check_count_digits, _spectrum_walk, kramers_applicability

    statistics = Statistics.BOSON0 if ns.stats == "boson" else Statistics.FERMION_HALF
    j_cut = parse_halfint(ns.jcut)
    # refuses z < 1 in the walk's words, so every refusal still precedes any output
    verdict = kramers_applicability(ns.z, statistics).value
    groups: dict[tuple[int, int], list] = {}

    def row_tail(num: int, den: int, paper: int, enum: int) -> str:
        return f",{num},{den},{paper},{enum},{verdict}\n"

    def level_tail(num: int, den: int, paper: int, enum: int) -> tuple:
        group = groups.get((num, den))
        if group is None:
            group = groups[num, den] = [_energy_fields(num, den), [], 0, 0]
        tail = (
            f', {group[0]}, "deg_paper": {paper}, "deg_enum": {enum}, '
            f'"diverges": {"true" if paper != enum else "false"}}}'
        )
        return tail, group, paper, enum

    walk = _spectrum_walk(ns.z, j_cut, statistics, row_tail if ns.format == "csv" else level_tail)
    # both refuse before names is built
    _check_count_digits(ns.z, j_cut, statistics is Statistics.FERMION_HALF)
    names = [twice_text(t) for t in range(j_cut.twice + 1)]
    if ns.format == "csv":
        rows = (";".join([names[t] for t in ts]) + tail for ts, tail in walk)
        header = "j_tuple,energy_num,energy_den,deg_paper,deg_enum,kramers\n"
        return _batched(itertools.chain([header], rows))
    header = {"z": ns.z, "jcut": str(j_cut), "statistics": statistics.value, "kramers": verdict}
    return _batched(_kepler_json(header, names, walk, groups))


# ---------------------------------------------------------------------------
# verify grids


def _parse_grid(text: str) -> tuple[int, HalfInt]:
    pairs = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        if "=" not in chunk:
            raise DomainError(f"grid entries look like key=value, got {short_repr(chunk)}")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key in pairs:
            raise DomainError(f"grid key {short_repr(key)} given twice")
        pairs[key] = value
    if set(pairs) != {"n", "jmax"}:
        raise DomainError(f"grid needs exactly n=... and jmax=..., got {short_repr(sorted(pairs))}")
    try:
        n = int(pairs["n"])
    except ValueError as exc:
        raise DomainError(f"grid n must be an integer, got {short_repr(pairs['n'])}") from exc
    top = parse_halfint(pairs["jmax"])
    if n < 2 or top.twice < 0:
        raise DomainError("grid needs n >= 2 and jmax >= 0")
    check_table_size(n, top.twice + 1, "grid")  # n per js tuple, (2jmax+1)**n tuples
    return n, top


def _js_tuples(n: int, top: HalfInt) -> Iterator[tuple[HalfInt, ...]]:
    values = [HalfInt(t) for t in range(0, top.twice + 1)]
    return itertools.product(values, repeat=n)


def cmd_verify(ns: argparse.Namespace) -> Iterator[str]:
    """The audit records, each json.dumps of its record dict plus a newline.

    A record is {"input": {...}, "claimed": ..., "actual": ..., "verdict": ...}.
    Its text is spliced with f-strings: the momenta's text is rendered once
    per js tuple, the chain's members once per chain, and every member and
    projection comes from a table of twice-integer names.  The chain grids
    walk each js tuple's chains as twice-integer partial totals, so no chain
    object is built.  Every value is a decimal string, a small integer or
    null, so nothing needs escaping.  main writes each record as soon as it
    is rendered, so a reader sees each line at once.
    """
    from .coupling import _chain_partials, jmax, jmin
    from .timerev import (
        check_compatibility,
        coupled_univalence,
        first_symmetry_audits,
        overlap_audits,
        t_squared_sign,
    )

    n, top = _parse_grid(ns.grid)
    if ns.prop in ("univalence", "compat"):
        names = _names(top.twice)
        for js in _js_tuples(n, top):
            head = f'{{"input": {{"js": {_list_text([names[x.twice] for x in js])}, "j": "'
            univalence = coupled_univalence(js) if ns.prop == "univalence" else None
            for j in halfint_range(jmin(js), jmax(js)):
                if univalence is None:
                    claimed, actual = 1, 1 if check_compatibility(js, j) else -1
                else:
                    claimed, actual = univalence, t_squared_sign(j)
                verdict = "agree" if claimed == actual else "diverge"
                yield (
                    f'{head}{j}"}}, "claimed": {claimed}, "actual": {actual}, '
                    f'"verdict": "{verdict}"}}\n'
                )
        return
    if ns.prop == "second-sym":
        kind, extra = ns.interpretation, f', "interpretation": "{ns.interpretation}"'
    else:
        kind, extra = "kramers", ""
    names = _names(n * top.twice)  # the largest |twice m| a first-sym record prints
    for tjs in itertools.product(range(top.twice + 1), repeat=n):
        js_head = f'{{"input": {{"js": {_list_text([names[t] for t in tjs])}, "intermediates": '
        for partials in _chain_partials(tjs):
            middle = _list_text([names[t] for t in partials[1:-1]]) if n > 2 else "[]"
            head = f'{js_head}{middle}, "j": "{names[partials[-1]]}"'
            if ns.prop == "first-sym":
                for tms, total, audit in first_symmetry_audits(tjs, partials):
                    actual = "null" if audit.ratio is None else audit.ratio
                    yield (
                        f'{head}, "ms": {_list_text([names[t] for t in tms])}, '
                        f'"m": "{names[total]}"}}, "claimed": 1, "actual": {actual}, '
                        f'"verdict": "{audit.verdict}"}}\n'
                    )
            elif partials[-1] % 2:  # second-sym, kramers: half-odd totals only
                for m, value in overlap_audits(tjs, partials, kind):
                    terms = ", ".join(
                        [
                            f'{{"root": "{r}", "re": "{c.re!s}", "im": "{c.im!s}"}}'
                            for r, c in value.items()
                        ]
                    )
                    verdict = "agree" if value.is_zero else "diverge"
                    yield (
                        f'{head}, "m": "{m}"{extra}}}, "claimed": "0", '
                        f'"actual": {{"terms": [{terms}]}}, "verdict": "{verdict}"}}\n'
                    )


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that treats -1/2 and -0.5 as values, not option names."""

    subparsers: dict[str, argparse.ArgumentParser]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _add_cg_like(sub: argparse.ArgumentParser) -> None:
    for flag in ("--j1", "--m1", "--j2", "--m2", "--j", "--m"):
        sub.add_argument(flag, required=True, metavar="J", help="half-integer, e.g. 3/2")
    sub.add_argument("--format", choices=["json", "plain"], default="json")


def build_parser() -> _Parser:
    """The top-level parser; its subparsers map each subcommand name to that command's parser."""
    parser = _Parser(
        prog="jcouple",
        description="Exact angular-momentum coupling coefficients, scheme "
        "combinatorics, and time-reversal audits.",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress banners (output carries none)"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cg", help="one Clebsch-Gordan coefficient, exactly")
    _add_cg_like(p)
    p.set_defaults(handler=cmd_coefficient)

    p = subs.add_parser("threej", help="one Wigner 3j symbol, exactly")
    _add_cg_like(p)
    p.set_defaults(handler=cmd_coefficient)

    p = subs.add_parser("regge-audit", help="audit the 12 Regge orbit transforms")
    for flag in ("--a", "--alpha", "--b", "--beta", "--c", "--gamma"):
        p.add_argument(flag, required=True, metavar="J")
    p.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    p.set_defaults(handler=cmd_regge_audit)

    p = subs.add_parser("couple", help="expand a sequentially coupled state")
    p.add_argument("--js", required=True, help="comma-separated momenta, e.g. 1/2,1/2,1")
    p.add_argument("--intermediates", default="", help="comma-separated j12,j123,...")
    p.add_argument("--j", required=True, help="total momentum")
    p.add_argument("--m", required=True, help="total projection")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(handler=cmd_couple)

    p = subs.add_parser("schemes", help="enumerate binary coupling schemes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(handler=cmd_schemes)

    p = subs.add_parser("diagram", help="DOT diagram of one coupling scheme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--labels", default="", help="comma-separated edge labels (default 1..n)")
    p.add_argument("--scheme", type=int, default=0, help="scheme index (0 = sequential)")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.set_defaults(handler=cmd_diagram)

    p = subs.add_parser("verify", help="audit a proposition over a grid, one JSON line each")
    p.add_argument(
        "--prop",
        required=True,
        choices=["univalence", "compat", "first-sym", "second-sym", "kramers"],
    )
    p.add_argument("--grid", required=True, help="e.g. n=2,jmax=1")
    p.add_argument(
        "--interpretation",
        choices=["paper-literal", "same-state"],
        default="paper-literal",
        help="reading of the second coefficient chain (second-sym only)",
    )
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("classify", help="boson/fermion classification of a compound")
    p.add_argument(
        "particle",
        nargs="?",
        help='JSON nested array, e.g. "[[-1,-1,-1],-1]" (reads stdin when omitted)',
    )
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(handler=cmd_classify)

    p = subs.add_parser("kepler", help="exact Kepler spectrum and degeneracy audit")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--jcut", required=True, help="largest single-particle j")
    p.add_argument("--stats", choices=["boson", "fermion"], required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=cmd_kepler)

    parser.subparsers = dict(subs.choices)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """One parser per process: building it costs more than most commands."""
    return build_parser()


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The top-level parse_args, with one walk of an argv led by a subcommand name.

    The top-level parser would hand everything after the name to that
    subcommand's parser, so that parser alone parses it, into a namespace
    that holds the top-level defaults, and the top-level parser reports what
    it leaves.  Every other argv (empty, led by an option, an unknown or
    abbreviated name, or "--") goes through the top-level parser, so help,
    usage and error texts stay its own.
    """
    parser = _shared_parser()
    sub = parser.subparsers.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    ns, extras = sub.parse_known_args(argv[1:], argparse.Namespace(quiet=False, command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return ns


def main(argv: Sequence[str] | None = None) -> int:
    ns = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        texts = ns.handler(ns)
        write = sys.stdout.write
        for text in texts:
            write(text)
        sys.stdout.flush()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. `| head`); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
