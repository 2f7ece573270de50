"""Every public name has a caller: no name exists only to be exported."""

import ast
import inspect
import re
from pathlib import Path

import fisherinfo

ROOT = Path(__file__).resolve().parents[1]
INIT = Path(fisherinfo.__file__).resolve()


def reexported_names() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def public_members() -> list[str]:
    """`Class.member` for every public method, classmethod, staticmethod and
    property that an exported class defines itself; dataclass fields and
    enum members are data, not members with callers."""
    members = []
    for name in reexported_names():
        cls = getattr(fisherinfo, name)
        if not inspect.isclass(cls):
            continue
        fields = getattr(cls, "__dataclass_fields__", {})
        for attr, value in vars(cls).items():
            if attr.startswith("_") or attr in fields:
                continue
            if inspect.isfunction(value) or isinstance(
                value, (classmethod, staticmethod, property)
            ):
                members.append(f"{name}.{attr}")
    return members


def program_text() -> str:
    """src/, bench/ and examples/, minus the re-export module itself."""
    files = [
        p
        for d in ("src", "bench", "examples")
        for p in sorted((ROOT / d).rglob("*"))
        if p.is_file() and p.suffix in (".py", ".json") and p.resolve() != INIT
    ]
    return "\n".join(p.read_text() for p in files)


def uncalled(text: str, names, use: str) -> list[str]:
    """The names whose last part, matched by the `use` pattern, appears on
    no line of text other than its own def or class line."""
    lines = text.splitlines()
    out = []
    for name in names:
        last = name.rsplit(".", 1)[-1]
        definition = re.compile(rf"^\s*(?:def|class)\s+{last}\b")
        if not any(
            re.search(use.format(last), line) and not definition.match(line)
            for line in lines
        ):
            out.append(name)
    return out


def test_every_export_has_a_caller():
    assert uncalled(program_text(), reexported_names(), r"\b{}\b") == []


def test_every_public_member_has_a_caller():
    members = public_members()
    assert "SampleSet.from_file" in members and "SampleSet.n" in members
    assert uncalled(program_text(), members, r"\.{}\b") == []
