"""Names that code outside the package reaches: the benchmark tracer and README.

The tracer in perfbench/tracing.py wraps jcouple functions by name, and
README's library example imports and calls public API; both break silently
if a name they use is deleted, so tier-1 checks them here.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    # loaded by path: perfbench is a directory of scripts, not a package on sys.path
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
