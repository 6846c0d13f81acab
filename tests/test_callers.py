"""Names that code outside the package reaches, and no definition that nothing reaches.

The tracer in perfbench/tracing.py wraps jcouple functions by name, and
README's library example imports and calls public API; both break silently
if a name they use is deleted, so tier-1 checks them here.

In the other direction, every module-level definition in src/jcouple and
every public name must be reached from a root: the CLI's `main`, a layer
the tracer wraps, or a reference oracle listed in ORACLES that tests check
a program path against.  A definition no root reaches is dead code.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import jcouple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jcouple"

# (module, name) of each definition that no CLI path runs but that tests use as
# the reference for one, and what it is checked against; the tracer wraps some
# of them too, and they stay listed for when it no longer does
ORACLES = {
    ("numerics", "factorial_factorized"): "the factorized radical prefactor reference",
    ("numerics", "projection_range"): "the twice-integer projections the overlap audits walk",
    ("coupling", "generalized_coupling_coefficient"): "the chain product on HalfInt arguments",
    ("coupling", "expand_coupled_state"): "the HalfInt/Surd view of the walk that couple prints",
    ("coupling", "enumerate_coupling_trees"): "the listing and the index decoder",
    ("timerev", "audit_first_symmetry"): "first_symmetry_audits, one tuple at a time",
    ("timerev", "apply_time_reversal"): "T on a StateExpansion: the T^2 and double-reversal tests",
    ("kepler", "spectrum"): "the HalfInt/Fraction view of the walk that kepler prints",
    ("kepler", "merge_spectrum"): "the merged levels that kepler prints",
    ("kepler", "energy_level"): "the walk's integer energy pair",
    ("kepler", "degeneracy_paper"): "the walk's closed-form count",
    ("kepler", "degeneracy_enumerated"): "the walk's enumerated count",
    ("wigner", "cg_normalization_sum"): "acceptance criterion 2, the CG normalization",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tracing():
    # loaded by path: perfbench is a directory of scripts, not a package on sys.path
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _loads(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def reachability(
    sources: dict[str, str], roots: set[tuple[str, str]]
) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """(definitions, reached): the (module, name) of each module-level definition, and those roots reach.

    sources maps each module of one flat package to its text.  A def, a
    class or an assignment at module level is linked to every name its
    statement loads (bodies, decorators, defaults and annotations included);
    a loaded name resolves to the module-level definition of that name in
    its module, or through the relative imports that bind it anywhere in the
    module (the CLI's handler-local imports included), re-exports followed.
    Names loaded by other module-level statements, and module-level dunders
    (`__getattr__`, `__all__`), run on import and are roots too.
    """
    edges: dict[tuple[str, str], set[str]] = {}
    imports: dict[tuple[str, str], set[tuple[str, str]]] = {}
    todo = set(roots)
    for module, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports.setdefault((module, alias.asname or alias.name), set()).add(
                        (node.module, alias.name)
                    )
        for stmt in tree.body:
            if isinstance(stmt, _DEFINITIONS):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            else:
                todo |= {(module, name) for name in _loads(stmt)}
                continue
            for name in names:
                edges.setdefault((module, name), set()).update(_loads(stmt))
                if name.startswith("__") and name.endswith("__"):
                    todo.add((module, name))

    seen: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        if key in edges:
            todo |= {(key[0], name) for name in edges[key]}
        else:
            todo |= imports.get(key, set())
    return set(edges), seen & set(edges)


def unreached(sources: dict[str, str], roots: set[tuple[str, str]]) -> set[tuple[str, str]]:
    definitions, reached = reachability(sources, roots)
    return definitions - reached


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def _program_roots() -> set[tuple[str, str]]:
    """cli.main, each layer the tracer wraps, and the class whose method it counts trees with."""
    layers = {(module, attr.split(".")[0]) for _, module, attr in _tracing().LAYER_FUNCTIONS}
    return {("cli", "main"), ("coupling", "CouplingTree")} | layers


def test_traced_layers_resolve():
    layers = _tracing().LAYER_FUNCTIONS
    assert layers
    for span, module, attr in layers:
        owner = importlib.import_module(f"jcouple.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), span
    # the tracer also counts emitted trees through this method
    assert callable(importlib.import_module("jcouple.coupling").CouplingTree.to_nested)


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in example
    exec(compile(example, "README.md", "exec"), {})


def test_every_definition_is_reached():
    dead = unreached(_sources(), _program_roots() | set(ORACLES))
    assert not dead, f"no root reaches {sorted(dead)}"


def test_every_export_is_reached():
    _, reached = reachability(_sources(), _program_roots() | set(ORACLES))
    # the export table names each defining module, so an export is a definition
    dead = {(jcouple._EXPORTS[name], name) for name in jcouple.__all__} - reached
    assert not dead, f"no root reaches {sorted(dead)}"


def test_oracles_are_off_the_cli_path():
    # an oracle that main reaches is a program path and needs no entry
    assert unreached(_sources(), {("cli", "main")}) >= set(ORACLES)


def test_every_oracle_is_imported_by_a_test():
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jcouple."):
                imported |= {(node.module.split(".", 1)[1], a.name) for a in node.names}
    assert set(ORACLES) - imported == set()


def test_planted_dead_definition_is_reported():
    sources = {
        "cli": (
            "def main():\n"
            "    from .kernel import used\n"
            "    return used()\n"
        ),
        "kernel": (
            "from .numbers import helper\n"
            "LIMIT = 3\n"
            "def used():\n"
            "    return helper(LIMIT)\n"
            "def planted():\n"
            "    return used()\n"
        ),
        "numbers": "def helper(n):\n    return n\n",
    }
    assert unreached(sources, {("cli", "main")}) == {("kernel", "planted")}
    # a name reached only through a re-export still counts
    sources["cli"] = "from .kernel import helper\ndef main():\n    return helper(1)\n"
    dead = unreached(sources, {("cli", "main")})
    assert dead == {("kernel", "LIMIT"), ("kernel", "used"), ("kernel", "planted")}
