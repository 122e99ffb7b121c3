"""Import check for the example scripts that sit outside the package.

Nothing else in tier-1 imports ``examples/*.py``, so retiring a public name
could break them silently.  Every one of them is ``__main__``-guarded:
loading the module runs its imports and nothing else.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(REPO_ROOT.glob("examples/*.py"))


def test_examples_were_found():
    assert SCRIPTS


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"_import_check_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
