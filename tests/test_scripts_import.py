"""Import check for the scripts that sit outside the package.

Nothing else in tier-1 imports ``examples/*.py`` or ``benchmarks/bench_*.py``,
so retiring a public name could break them silently.  Every one of them is
``__main__``-guarded (examples) or defines only test functions (benches):
loading the module runs its imports and nothing else.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    [*REPO_ROOT.glob("examples/*.py"), *REPO_ROOT.glob("benchmarks/bench_*.py")]
)


def test_both_directories_were_found():
    assert {path.parent.name for path in SCRIPTS} == {"examples", "benchmarks"}


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"_import_check_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
