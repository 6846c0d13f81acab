"""Command-line interface: one subcommand per operation family.

Exit codes: 0 success, 1 domain errors (bad quantum numbers, with a one-line
diagnostic on stderr), 2 usage errors.  Output is byte-deterministic for a
fixed argv: no timestamps, sorted iteration everywhere, exact values as
decimal strings with floats only under explicit "approx" keys.

Every subcommand returns its output as an iterable of texts and ``main`` is
the one writer.  A handler checks its input when it is called, or, for
``verify``, before its first text, so an error leaves stdout empty.

Only ``numerics`` is imported with this module.  Each handler imports the
modules it runs when it is called, so a subcommand loads only those.  The
output is spliced text, so ``json`` is imported only where arbitrary JSON is
written or read: regge-audit's json table, couple's chain member and
classify.

Each subcommand's options are declared once, as data, in ``_COMMANDS``.
``build_parser`` adds exactly those to argparse, and ``main`` reads a
well-formed argv straight from the table into the namespace argparse would
give, so it loads neither argparse nor a parser.  Any other argv goes to
the one full parser, so help, usage and error texts are argparse's own.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

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
    import argparse

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
    import json

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
    import json

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
    import json

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


def _batched(texts: Iterator[str], sep: str = "", size: int = 1024) -> Iterator[str]:
    """Up to size texts per chunk, joined by sep as are the chunks, so each write carries many."""
    lead = ""
    while chunk := sep.join(itertools.islice(texts, size)):
        yield lead + chunk
        lead = sep


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


def _level_tail(energy_text: str, paper: int, enum: int) -> str:
    """A kepler level's json members after "js", and its closing brace."""
    diverges = "true" if paper != enum else "false"
    return f', {energy_text}, "deg_paper": {paper}, "deg_enum": {enum}, "diverges": {diverges}}}'


def _grouped_tail(groups: dict, num: int, den: int, paper: int, enum: int, key: tuple) -> tuple:
    """A multiset's level tail at z >= 2, and the js text list of its group in groups,
    {(num, den): [energy text, js texts, deg_paper sum, deg_enum sum]}: each
    energy text is rendered once, and the sums take the counts times the orderings."""
    group = groups.get((num, den))
    if group is None:
        group = groups[num, den] = [_energy_fields(num, den), [], 0, 0]
    orderings = run = 1  # z! over the multiplicities' factorials, one sorted value at a time
    for i in range(1, len(key)):
        run = run + 1 if key[i] == key[i - 1] else 1
        orderings = orderings * (i + 1) // run
    group[2] += paper * orderings
    group[3] += enum * orderings
    return _level_tail(group[0], paper, enum), group[1]


def _merged_text(energy_text: str, paper: int, enum: int, tuples: str) -> str:
    """A merged kepler group's json object; tuples is its members' js texts, joined."""
    return f'{{{energy_text}, "deg_paper": {paper}, "deg_enum": {enum}, "tuples": [{tuples}]}}'


def _merged_groups(groups: dict) -> Iterator[str]:
    """Each merged group's json object, in ascending energy; groups is {(num, den): group}."""
    for energy in _ascending(groups):
        energy_text, texts, paper, enum = groups[energy]
        yield _merged_text(energy_text, paper, enum, ", ".join(texts))


def _prefixes(head: str, texts: list[str], z: int) -> Iterator[str]:
    """head and each (z - 1)-tuple of texts, joined, in product order.

    At jcut=0 there is one text and one prefix, made by repetition:
    itertools.product would keep z - 1 pools of it.
    """
    if len(texts) == 1:
        return iter([head + texts[0] * (z - 1)])
    return map("".join, itertools.product([head], *[texts] * (z - 1)))


def _json_rows(walk: Iterator, names: list[str], z: int) -> Iterator[str]:
    """Each prefix's row of json levels at z >= 2 as one text; each js text joins its group."""
    lasts = [f'"{name}"]' for name in names]
    prefixes = _prefixes("[", [f'"{name}", ' for name in names], z)
    for prefix, (_, row) in zip(prefixes, walk):
        levels = []
        for last, (tail, group) in zip(lasts, row):
            group.append(prefix + last)
            levels.append(group[-1] + tail)
        yield '{"js": ' + ', {"js": '.join(levels)


def cmd_kepler(ns: argparse.Namespace) -> Iterator[str]:
    """The spectrum as csv rows or one json payload; each multiset's text is rendered once.

    The walk makes each multiset's tail once, then yields each prefix's row
    of tails.  The fields are rendered as csv.writer and json.dumps write
    them (none needs csv quoting): a json.dumps call per multiset costs more
    than the rest of its work.  At z >= 2 a row is one join after its
    prefix's text; at z=1 each name is rendered as the walk reaches it.
    """
    from .kepler import (
        Statistics,
        _check_count_digits,
        _row,
        _spectrum_walk,
        kramers_applicability,
    )

    statistics = Statistics.BOSON0 if ns.stats == "boson" else Statistics.FERMION_HALF
    fermion = statistics is Statistics.FERMION_HALF
    j_cut = parse_halfint(ns.jcut)
    # refuses z < 1 in the walk's words, so every refusal still precedes any output
    verdict = kramers_applicability(ns.z, statistics).value
    groups: dict[tuple[int, int], list] = {}
    if ns.format == "csv":
        make = f",{{}},{{}},{{}},{{}},{verdict}\n".format  # drops the multiset
    elif ns.z > 1:
        make = functools.partial(_grouped_tail, groups)
    else:
        make = lambda num, den, paper, enum, _: _level_tail(_energy_fields(num, den), paper, enum)
    walk = _spectrum_walk(ns.z, j_cut, statistics, make)
    # both refuse before any name is rendered
    _check_count_digits(ns.z, j_cut, fermion)
    names = map(twice_text, range(j_cut.twice + 1))
    size = 1024  # texts per write: levels at z=1, rows of 2 jcut + 1 levels at z >= 2
    if ns.z > 1:
        names = list(names)
        size = max(1, size // len(names))
    if ns.format == "csv":
        if ns.z == 1:
            rows = map(operator.add, names, next(walk)[1])
        else:
            prefixes = _prefixes("", [n + ";" for n in names], ns.z)
            rows = (p + p.join(map(operator.add, names, r)) for p, (_, r) in zip(prefixes, walk))
        header = "j_tuple,energy_num,energy_den,deg_paper,deg_enum,kramers\n"
        return _batched(itertools.chain([header], rows), size=size)
    if ns.z > 1:
        levels, merged = _json_rows(walk, names, ns.z), _merged_groups(groups)
    else:
        levels = map('{{"js": ["{}"]{}'.format, names, next(walk)[1])
        # each level is a merged group of its own, and the energy -t^2 / (4 (t+1)^2) falls
        # strictly as t grows, so the merged section is the levels again in descending t
        merged = _row(
            1,
            range(j_cut.twice, -1, -1),
            fermion,
            lambda num, den, paper, enum, key: _merged_text(
                _energy_fields(num, den), paper, enum, f'["{twice_text(key[0])}"]'
            ),
        )
    head = f'{{"z": {ns.z}, "jcut": "{j_cut!s}", "statistics": "{statistics.value}", '
    head += f'"kramers": "{verdict}", "levels": ['
    chunks = [[head], _batched(levels, ", ", size), ['], "merged": ['], _batched(merged, ", ")]
    return _batched(itertools.chain(*chunks, ["]}\n"]), size=5)  # a short payload is one write


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


def cmd_verify(ns: argparse.Namespace) -> Iterator[str]:
    """The audit records, each json.dumps of its record dict plus a newline.

    A record is {"input": {...}, "claimed": ..., "actual": ..., "verdict": ...}.
    Every proposition walks one grid of twice-integer js tuples and takes
    every momentum and projection text from one table of twice-integer names;
    the chain grids walk each tuple's chains as twice-integer partial totals,
    so no chain object is built.  Every value is a decimal string, a small
    integer or null, so nothing needs escaping.  main writes each record as
    soon as it is rendered, so a reader sees each line at once.
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
    if ns.prop == "second-sym":
        kind, extra = ns.interpretation, f', "interpretation": "{ns.interpretation}"'
    else:
        kind, extra = "kramers", ""
    names = _names(n * top.twice)  # bounds every |twice m| and twice j a record prints
    for tjs in itertools.product(range(top.twice + 1), repeat=n):
        head = f'{{"input": {{"js": {_list_text([names[t] for t in tjs])}'
        if ns.prop in ("univalence", "compat"):
            js = tuple(map(HalfInt, tjs))
            univalence = coupled_univalence(js) if ns.prop == "univalence" else None
            for j in halfint_range(jmin(js), jmax(js)):
                if univalence is None:
                    claimed, actual = 1, 1 if check_compatibility(js, j) else -1
                else:
                    claimed, actual = univalence, t_squared_sign(j)
                verdict = "agree" if claimed == actual else "diverge"
                yield (
                    f'{head}, "j": "{names[j.twice]}"}}, "claimed": {claimed}, "actual": {actual}, '
                    f'"verdict": "{verdict}"}}\n'
                )
            continue
        for partials in _chain_partials(tjs):
            middle = _list_text([names[t] for t in partials[1:-1]]) if n > 2 else "[]"
            chain_head = f'{head}, "intermediates": {middle}, "j": "{names[partials[-1]]}"'
            if ns.prop == "first-sym":
                for tms, total, ratio, verdict in first_symmetry_audits(tjs, partials):
                    actual = "null" if ratio is None else ratio
                    yield (
                        f'{chain_head}, "ms": {_list_text([names[t] for t in tms])}, '
                        f'"m": "{names[total]}"}}, "claimed": 1, "actual": {actual}, '
                        f'"verdict": "{verdict}"}}\n'
                    )
            elif partials[-1] % 2:  # second-sym, kramers: half-odd totals only
                for tm, value in overlap_audits(tjs, partials, kind):
                    terms = ", ".join(
                        [
                            f'{{"root": "{r}", "re": "{c.re!s}", "im": "{c.im!s}"}}'
                            for r, c in value.items()
                        ]
                    )
                    verdict = "agree" if value.is_zero else "diverge"
                    yield (
                        f'{chain_head}, "m": "{names[tm]}"{extra}}}, "claimed": "0", '
                        f'"actual": {{"terms": [{terms}]}}, "verdict": "{verdict}"}}\n'
                    )


# ---------------------------------------------------------------------------
# parser

# argparse reads an argument that starts with "-" as an option name unless it matches this
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


class _Option:
    """One argument of a subcommand: build_parser adds it and _walk reads it.

    flag is "--name", or the name of an optional positional; dest is the
    namespace attribute argparse names after it.  A store_true option is a
    flag that takes no value.
    """

    __slots__ = (
        "flag", "dest", "type", "choices", "default", "required", "store_true", "metavar", "help"
    )

    def __init__(
        self,
        flag: str,
        *,
        type: Callable[[str], object] | None = None,
        choices: tuple[str, ...] | None = None,
        default: object = None,
        required: bool = False,
        store_true: bool = False,
        metavar: str | None = None,
        help: str | None = None,
    ) -> None:
        self.flag, self.dest = flag, flag.lstrip("-").replace("-", "_")
        self.type, self.choices, self.default = type, choices, default
        self.required, self.store_true = required, store_true
        self.metavar, self.help = metavar, help


def _format(*choices: str) -> _Option:
    """--format, defaulting to its first choice."""
    return _Option("--format", choices=choices, default=choices[0])


def _momenta(*flags: str, help: str | None = None) -> tuple[_Option, ...]:
    return tuple(_Option(flag, required=True, metavar="J", help=help) for flag in flags)


_CG_LIKE = (
    *_momenta("--j1", "--m1", "--j2", "--m2", "--j", "--m", help="half-integer, e.g. 3/2"),
    _format("json", "plain"),
)
# {name: (help, handler, options)} for every subcommand, in the order of the help text
_COMMANDS = {
    "cg": ("one Clebsch-Gordan coefficient, exactly", cmd_coefficient, _CG_LIKE),
    "threej": ("one Wigner 3j symbol, exactly", cmd_coefficient, _CG_LIKE),
    "regge-audit": (
        "audit the 12 Regge orbit transforms",
        cmd_regge_audit,
        (
            *_momenta("--a", "--alpha", "--b", "--beta", "--c", "--gamma"),
            _format("json", "csv", "plain"),
        ),
    ),
    "couple": (
        "expand a sequentially coupled state",
        cmd_couple,
        (
            _Option("--js", required=True, help="comma-separated momenta, e.g. 1/2,1/2,1"),
            _Option("--intermediates", default="", help="comma-separated j12,j123,..."),
            _Option("--j", required=True, help="total momentum"),
            _Option("--m", required=True, help="total projection"),
            _format("json"),
        ),
    ),
    "schemes": (
        "enumerate binary coupling schemes",
        cmd_schemes,
        (
            _Option("--n", type=int, required=True),
            _Option("--count-only", default=False, store_true=True),
            _format("json"),
        ),
    ),
    "diagram": (
        "DOT diagram of one coupling scheme",
        cmd_diagram,
        (
            _Option("--n", type=int, required=True),
            _Option("--labels", default="", help="comma-separated edge labels (default 1..n)"),
            _Option("--scheme", type=int, default=0, help="scheme index (0 = sequential)"),
            _format("dot"),
        ),
    ),
    "verify": (
        "audit a proposition over a grid, one JSON line each",
        cmd_verify,
        (
            _Option(
                "--prop",
                choices=("univalence", "compat", "first-sym", "second-sym", "kramers"),
                required=True,
            ),
            _Option("--grid", required=True, help="e.g. n=2,jmax=1"),
            _Option(
                "--interpretation",
                choices=("paper-literal", "same-state"),
                default="paper-literal",
                help="reading of the second coefficient chain (second-sym only)",
            ),
            _format("json"),
        ),
    ),
    "classify": (
        "boson/fermion classification of a compound",
        cmd_classify,
        (
            _Option(
                "particle",
                help='JSON nested array, e.g. "[[-1,-1,-1],-1]" (reads stdin when omitted)',
            ),
            _format("json"),
        ),
    ),
    "kepler": (
        "exact Kepler spectrum and degeneracy audit",
        cmd_kepler,
        (
            _Option("--z", type=int, required=True),
            _Option("--jcut", required=True, help="largest single-particle j"),
            _Option("--stats", choices=("boson", "fermion"), required=True),
            _format("json", "csv"),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with one subparser per entry of _COMMANDS; only it imports argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """ArgumentParser that treats -1/2 and -0.5 as values, not option names."""

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

    parser = _Parser(
        prog="jcouple",
        description="Exact angular-momentum coupling coefficients, scheme "
        "combinatorics, and time-reversal audits.",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress banners (output carries none)"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for option in options:
            kwargs = {"default": option.default, "help": option.help}
            if option.store_true:
                kwargs["action"] = "store_true"
            elif not option.flag.startswith("-"):
                kwargs["nargs"] = "?"
            else:
                kwargs.update(
                    type=option.type,
                    choices=option.choices,
                    required=option.required,
                    metavar=option.metavar,
                )
            sub.add_argument(option.flag, **kwargs)
        sub.set_defaults(handler=handler)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs more than most commands."""
    return build_parser()


def _is_value(token: str) -> bool:
    """Whether argparse reads token as a value rather than as an option name."""
    return not token.startswith("-") or _NEGATIVE_NUMBER.match(token) is not None


def _walk(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace parse_args gives for a well-formed subcommand argv, else None.

    Well-formed is: a subcommand name, then its optional positional if it
    has one, then exact "--opt value" pairs and store_true flags, each
    option at most once, every value converted and checked through the
    option's type and choices, and every required option given.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, handler, options = command
    flags = {option.flag: option for option in options}
    values: dict[str, object] = {}  # by flag
    i = 1
    while i < len(argv):
        token = argv[i]
        if token.startswith("--"):
            option = flags.get(token)
            if option is None or token in values:
                return None
            if option.store_true:
                values[token] = True
                i += 1
                continue
            if i + 1 == len(argv) or not _is_value(argv[i + 1]):
                return None
            value = argv[i + 1]
            i += 2
            if option.type is not None:
                try:
                    value = option.type(value)
                except ValueError:
                    return None
            if option.choices is not None and value not in option.choices:
                return None
        else:
            # argparse takes an optional positional directly after the name the same
            # way in every version; elsewhere it does not
            option = next((o for o in options if not o.flag.startswith("-")), None)
            if i > 1 or option is None or not _is_value(token):
                return None
            value = token
            i += 1
        values[option.flag] = value
    ns = SimpleNamespace(quiet=False, command=argv[0])
    for option in options:
        if option.flag in values:
            value = values[option.flag]
        elif option.required:
            return None
        else:
            value = option.default
        setattr(ns, option.dest, value)
    ns.handler = handler
    return ns


def _parse_args(argv: Sequence[str]) -> argparse.Namespace | SimpleNamespace:
    """build_parser().parse_args(argv), with no parser built for a well-formed argv.

    _walk reads a well-formed subcommand argv from _COMMANDS alone; every
    other argv (help, "=" forms, abbreviations, stray positionals, "--",
    repeats, bad values, missing options, a top-level option) goes to the
    one shared parser, so help, usage and error texts are argparse's own.
    """
    return _walk(argv) or _shared_parser().parse_args(argv)


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
