"""What `import jcouple` and each subcommand load, and the package's public names.

The package resolves its public names on first access, and each CLI handler
imports the modules it runs when it is called.  A start-up import that
creeps back shows here as an extra module; a handler whose own import is
wrong shows as a failing run.
"""

import importlib
import json
import subprocess
import sys

import pytest

import jcouple

# the names the package re-exports, by defining module
EXPORTS = {
    "coupling": [
        "CouplingChain",
        "CouplingTree",
        "StateExpansion",
        "count_coupling_trees",
        "coupling_tree",
        "coupling_trees_json",
        "double_factorial",
        "enumerate_chains",
        "enumerate_coupling_trees",
        "expand_coupled_state",
        "export_dot",
        "generalized_coupling_coefficient",
        "jmax",
        "jmin",
    ],
    "kepler": [
        "KeplerLevel",
        "KramersVerdict",
        "MergedKeplerLevel",
        "Statistics",
        "degeneracy_enumerated",
        "degeneracy_paper",
        "energy_level",
        "kramers_applicability",
        "merge_spectrum",
        "spectrum",
    ],
    "numerics": [
        "DomainError",
        "FactorizedFactorial",
        "GaussianRational",
        "HalfInt",
        "PhasedSurdSum",
        "Surd",
        "factorial_factorized",
        "halfint_range",
        "parse_halfint",
        "projection_range",
        "squarefree_decomposition",
    ],
    "particles": [
        "Leaf",
        "Node",
        "ParticleTree",
        "is_fermion",
        "particle_from_json",
    ],
    "timerev": [
        "FirstSymmetryAudit",
        "apply_time_reversal",
        "audit_first_symmetry",
        "audit_second_symmetry",
        "check_compatibility",
        "coupled_univalence",
        "first_symmetry_audits",
        "kramers_overlap",
        "t_squared_sign",
    ],
    "wigner": [
        "CgArgs",
        "ReggeAuditEntry",
        "RSymbol",
        "cg",
        "cg_normalization_sum",
        "regge_orbit_audit",
        "regge_symbol",
        "three_j",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

# prints the jcouple modules loaded after running its code, in a fresh interpreter
LOADED = """
import json, sys
{}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "jcouple")))
"""
RUN_MAIN = """
import contextlib, io
from jcouple import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(json.loads(sys.argv[1])) == 0
"""
START = ["jcouple", "jcouple.cli", "jcouple.numerics"]
# each subcommand once, and the modules it adds to START
SUBCOMMANDS = [
    (["cg", "--j1", "1/2", "--m1", "1/2", "--j2", "1/2", "--m2", "-1/2", "--j", "0", "--m", "0"],
     ["wigner"]),
    (["threej", "--j1", "1", "--m1", "1", "--j2", "1", "--m2", "1", "--j", "2", "--m", "-2"],
     ["wigner"]),
    (["regge-audit", "--a", "1", "--alpha", "1", "--b", "1", "--beta", "1", "--c", "2",
      "--gamma", "-2"], ["wigner"]),
    (["schemes", "--n", "4"], ["coupling", "wigner"]),
    (["diagram", "--n", "3"], ["coupling", "wigner"]),
    (["couple", "--js", "1/2,1/2", "--j", "1", "--m", "0"], ["coupling", "wigner"]),
    (["verify", "--prop", "kramers", "--grid", "n=2,jmax=1"], ["coupling", "timerev", "wigner"]),
    (["kepler", "--z", "2", "--jcut", "1", "--stats", "boson"], ["kepler"]),
    (["classify", "[-1,[-1,-1]]"], ["particles"]),
]


def loaded(code: str, *args: str) -> list[str]:
    run = subprocess.run(
        [sys.executable, "-c", LOADED.format(code), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_import_loads_no_submodule():
    assert loaded("import jcouple") == ["jcouple"]


def test_parser_loads_only_numerics():
    assert loaded("import jcouple.cli\njcouple.cli.build_parser()") == START


@pytest.mark.parametrize("argv, modules", SUBCOMMANDS, ids=[a[0] for a, _ in SUBCOMMANDS])
def test_subcommand_loads_only_what_it_runs(argv, modules):
    expected = sorted(START + [f"jcouple.{m}" for m in modules])
    assert loaded(RUN_MAIN, json.dumps(argv)) == expected


def test_all_lists_the_exports():
    assert len(NAMES) == 57
    assert sorted(jcouple.__all__) == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_export_is_its_module_attribute(module, name):
    assert getattr(jcouple, name) is getattr(importlib.import_module(f"jcouple.{module}"), name)


def test_dir_and_star_import_bind_every_export():
    assert set(NAMES) <= set(dir(jcouple))
    namespace: dict = {}
    exec("from jcouple import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(jcouple, name) for name in NAMES)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        jcouple.no_such_name
    assert not hasattr(jcouple, "no_such_name")
