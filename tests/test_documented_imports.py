"""Every ``repro`` import the docs and the README show still works.

The package surfaces are kept thin (a name is imported from the module
that defines it), so a re-export the docs lean on can go missing without
any code noticing; the examples are run by ``test_examples.py``.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
IMPORT = re.compile(
    r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|[^\n]+)|import repro[\w.]*)",
    re.MULTILINE,
)


def _imports():
    for path in DOCS:
        for match in IMPORT.finditer(path.read_text()):
            statement = " ".join(match.group(1).split("#")[0].split())
            yield path.relative_to(ROOT).as_posix(), statement


def test_the_docs_show_imports():
    assert len(list(_imports())) > 20


@pytest.mark.parametrize("doc, statement", sorted(set(_imports())))
def test_documented_import_works(doc, statement):
    exec(compile(statement, doc, "exec"), {})
