"""Command-line interface: one subcommand per operation family.

Exit codes: 0 success, 1 domain errors (bad quantum numbers, with a one-line
diagnostic on stderr), 2 usage errors.  Output is byte-deterministic for a
fixed argv: no timestamps, sorted iteration everywhere, exact values as
decimal strings with floats only under explicit "approx" keys.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Iterator, Sequence

from .coupling import (
    CouplingChain,
    count_coupling_trees,
    coupling_tree,
    coupling_trees_json,
    enumerate_chains,
    expand_coupled_state,
    export_dot,
    jmax,
    jmin,
)
from .kepler import Statistics, _spectrum_walk, kramers_applicability
from .numerics import (
    DomainError,
    HalfInt,
    PhasedSurdSum,
    Surd,
    halfint_range,
    parse_halfint,
    projection_range,
    short_repr,
)
from .particles import is_fermion, particle_from_json
from .timerev import (
    audit_second_symmetry,
    check_compatibility,
    coupled_univalence,
    first_symmetry_audits,
    kramers_overlap,
    t_squared_sign,
)
from .wigner import CgArgs, cg, regge_orbit_audit, three_j


def _surd_json(value: Surd) -> dict:
    out = value.to_json_dict()
    out["approx"] = value.approx()
    return out


def _sum_json(value: PhasedSurdSum) -> dict:
    return {
        "terms": [
            {"root": str(r), "re": str(c.re), "im": str(c.im)} for r, c in value.items()
        ]
    }


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
        raise DomainError(f"JCOUPLE_MAX_TREES must be an integer, got {raw!r}") from exc


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_coefficient(ns: argparse.Namespace) -> int:
    """cg and threej; each subparser sets ``evaluate`` to its six-argument evaluator."""
    value = ns.evaluate(
        parse_halfint(ns.j1),
        parse_halfint(ns.m1),
        parse_halfint(ns.j2),
        parse_halfint(ns.m2),
        parse_halfint(ns.j),
        parse_halfint(ns.m),
    )
    if ns.format == "plain":
        _emit(f"{value} ~= {value.approx()}")
    else:
        _emit(json.dumps(_surd_json(value)))
    return 0


def cmd_regge_audit(ns: argparse.Namespace) -> int:
    entries = regge_orbit_audit(
        parse_halfint(ns.a),
        parse_halfint(ns.alpha),
        parse_halfint(ns.b),
        parse_halfint(ns.beta),
        parse_halfint(ns.c),
        parse_halfint(ns.gamma),
    )
    rows = [
        {
            "transform": e.transform,
            "claimed": e.claimed,
            "actual": e.actual,
            "verdict": "agree" if e.agrees else "diverge",
        }
        for e in entries
    ]
    if ns.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["transform", "claimed", "actual", "verdict"])
        for row in rows:
            writer.writerow([row["transform"], row["claimed"], row["actual"], row["verdict"]])
    elif ns.format == "plain":
        for row in rows:
            _emit(f"{row['transform']}\t{row['claimed']:+d}\t{row['actual']:+d}\t{row['verdict']}")
    else:
        _emit(json.dumps(rows))
    return 0


def cmd_couple(ns: argparse.Namespace) -> int:
    chain = CouplingChain(
        _parse_js(ns.js), _parse_intermediates(ns.intermediates), parse_halfint(ns.j)
    )
    expansion = expand_coupled_state(chain, parse_halfint(ns.m))
    # the walk yields ascending projection tuples, so the terms need no sort
    terms = [
        {"ms": [str(m) for m in ms], "amp": _surd_json(amp)}
        for ms, amp in expansion.amplitudes.items()
    ]
    _emit(
        json.dumps({"chain": chain.to_json_dict(), "m": str(expansion.total_m), "terms": terms})
    )
    return 0


def cmd_schemes(ns: argparse.Namespace) -> int:
    max_leaves = _max_trees()
    if ns.count_only:
        _emit(str(count_coupling_trees(ns.n, max_leaves=max_leaves)))
    else:
        sys.stdout.writelines(coupling_trees_json(ns.n, max_leaves=max_leaves))
        sys.stdout.write("\n")
    return 0


def cmd_diagram(ns: argparse.Namespace) -> int:
    tree = coupling_tree(ns.n, ns.scheme, max_leaves=_max_trees())
    labels = ns.labels.split(",") if ns.labels else [str(i) for i in range(1, ns.n + 1)]
    _emit(export_dot(tree, labels))
    return 0


def cmd_classify(ns: argparse.Namespace) -> int:
    raw = sys.stdin.read() if ns.particle in (None, "-") else ns.particle
    try:
        obj = json.loads(raw)
    except ValueError as exc:
        # a decode error, or an integer past the interpreter's digit limit
        raise DomainError(f"invalid JSON particle description: {exc}") from exc
    except RecursionError as exc:
        # the parser recurses once per nested array; its depth limit is not ours
        raise DomainError("invalid JSON particle description: nested too deeply to parse") from exc
    _emit(json.dumps({"fermion": is_fermion(particle_from_json(obj))}))
    return 0


def _batched(texts: Iterator[str]) -> Iterator[str]:
    """Joins up to 1024 consecutive texts per chunk, so each write carries many."""
    while chunk := "".join(itertools.islice(texts, 1024)):
        yield chunk


def _energy_fields(energy: Fraction) -> str:
    """The "energy" and "approx" members as json.dumps writes them (a float as its repr)."""
    return (
        f'"energy": {{"num": "{energy.numerator}", "den": "{energy.denominator}"}}, '
        f'"approx": {float(energy)!r}'
    )


def _kepler_csv(names: list[str], verdict: str, walk: Iterator) -> Iterator[str]:
    """The kepler table, one row per level; each orbit's columns are rendered once.

    No field can hold a comma, a quote or a line break, so csv.writer would
    quote none of them and the rows are plain joins.
    """
    yield "j_tuple,energy_num,energy_den,deg_paper,deg_enum,kramers\n"
    tails: dict = {}  # orbit -> its row after the tuple column
    for js, orbit in walk:
        tail = tails.get(orbit)
        if tail is None:
            energy = orbit.energy
            tail = tails[orbit] = (
                f",{energy.numerator},{energy.denominator},{orbit.degeneracy_paper},"
                f"{orbit.degeneracy_enumerated},{verdict}\n"
            )
        yield ";".join([names[j.twice] for j in js]) + tail


def _kepler_json(header: dict, names: list[str], walk: Iterator) -> Iterator[str]:
    """json.dumps of the kepler payload, written in chunks as the walk goes.

    Each orbit's members after "js" are rendered once and spliced after every
    tuple's "js" text; they are decimal strings, integers, a float and a
    bool, rendered here as json.dumps writes them because a json.dumps call
    per orbit costs more than the rest of the orbit's work.  The merged
    groups keep the "js" texts in walk order, so each group lists its tuples
    in product order, and sum the counts once per tuple.
    """
    seen: dict = {}  # orbit -> (its level text after "js", its energy's group)
    groups: dict[Fraction, tuple[list[str], list]] = {}  # energy -> (js texts, orbit of each)
    yield json.dumps(header)[:-1] + ', "levels": ['
    sep = ""
    for js, orbit in walk:
        text = '["' + '", "'.join([names[j.twice] for j in js]) + '"]'
        entry = seen.get(orbit)
        if entry is None:
            tail = (
                f", {_energy_fields(orbit.energy)}, "
                f'"deg_paper": {orbit.degeneracy_paper}, '
                f'"deg_enum": {orbit.degeneracy_enumerated}, '
                f'"diverges": {"true" if orbit.diverges else "false"}}}'
            )
            entry = seen[orbit] = (tail, groups.setdefault(orbit.energy, ([], [])))
        tail, (texts, members) = entry
        texts.append(text)
        members.append(orbit)
        yield f'{sep}{{"js": {text}{tail}'
        sep = ", "
    yield '], "merged": ['
    sep = ""
    # float() rounds monotonically, so it never orders two energies against
    # their exact order; equal floats fall back to the exact comparison
    for energy in sorted(groups, key=lambda e: (float(e), e)):
        texts, members = groups[energy]
        yield (
            f"{sep}{{{_energy_fields(energy)}, "
            f'"deg_paper": {sum(o.degeneracy_paper for o in members)}, '
            f'"deg_enum": {sum(o.degeneracy_enumerated for o in members)}, '
            f'"tuples": [{", ".join(texts)}]}}'
        )
        sep = ", "
    yield "]}\n"


def cmd_kepler(ns: argparse.Namespace) -> int:
    statistics = Statistics.BOSON0 if ns.stats == "boson" else Statistics.FERMION_HALF
    j_cut = parse_halfint(ns.jcut)
    walk = _spectrum_walk(ns.z, j_cut, statistics)  # raises before any output
    verdict = kramers_applicability(ns.z, statistics).value
    names = [str(HalfInt(t)) for t in range(j_cut.twice + 1)]
    if ns.format == "csv":
        sys.stdout.writelines(_batched(_kepler_csv(names, verdict, walk)))
    else:
        header = {"z": ns.z, "jcut": str(j_cut), "statistics": statistics.value, "kramers": verdict}
        sys.stdout.writelines(_batched(_kepler_json(header, names, walk)))
    return 0


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
    return n, top


def _js_tuples(n: int, top: HalfInt) -> Iterator[tuple[HalfInt, ...]]:
    values = [HalfInt(t) for t in range(0, top.twice + 1)]
    return itertools.product(values, repeat=n)


def _univalence_claim(js: Sequence[HalfInt], j: HalfInt) -> tuple[int, int]:
    """(claimed, actual): the coupled univalence of js against (-1)^(2j)."""
    return coupled_univalence(js), t_squared_sign(j)


def _compat_claim(js: Sequence[HalfInt], j: HalfInt) -> tuple[int, int]:
    """(claimed, actual): +1 against (-1)^(2(sum js - j))."""
    return 1, 1 if check_compatibility(js, j) else -1


def _verify_records(ns: argparse.Namespace) -> Iterator[dict]:
    n, top = _parse_grid(ns.grid)
    if ns.prop in ("univalence", "compat"):
        claim = _univalence_claim if ns.prop == "univalence" else _compat_claim
        for js in _js_tuples(n, top):
            for j in halfint_range(jmin(js), jmax(js)):
                claimed, actual = claim(js, j)
                yield {
                    "input": {"js": [str(x) for x in js], "j": str(j)},
                    "claimed": claimed,
                    "actual": actual,
                    "verdict": "agree" if claimed == actual else "diverge",
                }
        return
    if ns.prop == "second-sym":
        overlap = functools.partial(audit_second_symmetry, interpretation=ns.interpretation)
        extra = {"interpretation": ns.interpretation}
    else:
        overlap, extra = kramers_overlap, {}
    span = n * top.twice  # the largest |twice m| a first-sym record prints
    names = {t: str(HalfInt(t)) for t in range(-span, span + 1)}
    for js in _js_tuples(n, top):
        for chain in enumerate_chains(js):
            base = chain.to_json_dict()
            if ns.prop == "first-sym":
                for tms, total, audit in first_symmetry_audits(chain):
                    yield {
                        "input": dict(base, ms=[names[t] for t in tms], m=names[total]),
                        "claimed": 1,
                        "actual": audit.ratio,
                        "verdict": audit.verdict,
                    }
            elif chain.total_j.is_half_odd:  # second-sym, kramers
                for m in projection_range(chain.total_j):
                    value = overlap(chain, m)
                    yield {
                        "input": dict(base, m=str(m), **extra),
                        "claimed": "0",
                        "actual": _sum_json(value),
                        "verdict": "agree" if value.is_zero else "diverge",
                    }


def cmd_verify(ns: argparse.Namespace) -> int:
    for record in _verify_records(ns):
        _emit(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that treats -1/2 and -0.5 as values, not option names."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _add_cg_like(sub: argparse.ArgumentParser) -> None:
    for flag in ("--j1", "--m1", "--j2", "--m2", "--j", "--m"):
        sub.add_argument(flag, required=True, metavar="J", help="half-integer, e.g. 3/2")
    sub.add_argument("--format", choices=["json", "plain"], default="json")


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(handler=cmd_coefficient, evaluate=lambda *q: cg(CgArgs(*q)))

    p = subs.add_parser("threej", help="one Wigner 3j symbol, exactly")
    _add_cg_like(p)
    p.set_defaults(handler=cmd_coefficient, evaluate=three_j)

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

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs more than most commands."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    ns = _shared_parser().parse_args(argv)
    try:
        code = ns.handler(ns)
        sys.stdout.flush()
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. `| head`); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
