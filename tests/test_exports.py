"""Every public name has a caller: no name exists only to be exported."""

import ast
import re
from pathlib import Path

import fisherinfo

ROOT = Path(__file__).resolve().parents[1]
INIT = Path(fisherinfo.__file__).resolve()

# Theorems 5 and 6: results of the paper that the acceptance checks pin
# (criterion 8), kept as library entry points although no program code
# calls them.
ALLOWLIST = {"bhattacharya_precision", "clipped_precision"}


def reexported_names() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def program_text() -> str:
    """src/, bench/ and examples/, minus the re-export module itself."""
    files = [
        p
        for d in ("src", "bench", "examples")
        for p in sorted((ROOT / d).rglob("*"))
        if p.is_file() and p.suffix in (".py", ".json") and p.resolve() != INIT
    ]
    return "\n".join(p.read_text() for p in files)


def test_every_export_has_a_caller():
    text = program_text()
    unused = []
    for name in reexported_names():
        definition = re.compile(rf"^\s*(?:def|class)\s+{name}\b")
        uses = [
            line
            for line in text.splitlines()
            if re.search(rf"\b{name}\b", line) and not definition.match(line)
        ]
        if not uses:
            unused.append(name)
    assert sorted(unused) == sorted(ALLOWLIST)
