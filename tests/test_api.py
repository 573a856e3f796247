"""The package's exports are the names the README's Library section
imports, no more and no fewer."""

import re
import types
from pathlib import Path

import zinbreg

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_library_imports() -> set[str]:
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"from zinbreg import \(([^)]*)\)", library)
    assert block, "no 'from zinbreg import (...)' in the README's Library section"
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def test_exports_are_the_readme_library_imports():
    exported = {
        name for name, value in vars(zinbreg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == _readme_library_imports()
