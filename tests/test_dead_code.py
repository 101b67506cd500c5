"""Every public top-level function and class of the library has a caller.

A name counts as used when code under src/, scripts/ or perfbench/
mentions it (as a bare name or as an attribute) outside the top-level
definition of that name.  Tests do not count: a helper that only its
own tests call is dead code, unless KEPT lists it with the reason it
stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    # the canonical scenario writer the README documents
    "serialize_scenario",
}


def _used_names():
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for stmt in ast.parse(path.read_text()).body:
                own = getattr(stmt, "name", None)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    else:
                        continue
                    if name != own:
                        used.add(name)
    return used


def test_every_public_definition_has_a_caller():
    used = _used_names()
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted((ROOT / "src" / "branchlab").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in used | KEPT]
    assert unused == []


def test_kept_helpers_are_still_defined_and_otherwise_unused():
    # a kept helper that gains a caller, or goes away, leaves the list
    used = _used_names()
    defined = {node.name
               for path in (ROOT / "src" / "branchlab").glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert KEPT <= defined
    assert KEPT & used == set()
