"""Every public top-level function and class of the library has a caller,
and every optional parameter a caller that passes it.

A name counts as used when code under src/, scripts/ or perfbench/
imports it from its module or reads it as module.name, or when its
own module loads it outside the top-level definition of that name.  A
like-named local elsewhere does not count.  Tests do not count either:
a helper that only its own tests call is dead code, unless KEPT lists
it with the reason it stays.

An optional parameter of a public function, or of a class's
__init__, counts as used when some call of that name under src/,
scripts/, perfbench/ or tests/ passes it, by position or by keyword;
a call that spreads *args or **kwargs passes everything.  A parameter
no call passes is a constant.

Every parameter of every function defined with def under src/ is read
in that function's body, nested functions included.  A method's
receiver is exempt, and so are the two dispatch protocols, whose
signature the dispatcher fixes: CLI handlers _h_*(ns, sc, rng) and
suite checks _chk_*(check_id, rng, ...).

No function takes a memo: an object keeps its own derived answers.

No module under src/ imports a private name from the suite: a
construction's verifier lives beside it, and the suite only calls it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "branchlab"

KEPT = {
    # the canonical scenario writer the README documents
    "serialize_scenario",
}


def _used_names():
    """The (module, name) pairs used, by the rule of the module
    docstring."""
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            here = path.stem if path.parent == PKG else None
            for stmt in ast.parse(path.read_text()).body:
                own = getattr(stmt, "name", None)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.ImportFrom) and node.module:
                        mod = node.module.rpartition(".")[2]
                        used.update((mod, a.name) for a in node.names)
                    elif isinstance(node, ast.Attribute):
                        mod = getattr(node.value, "id",
                                      getattr(node.value, "attr", None))
                        used.add((mod, node.attr))
                    elif (isinstance(node, ast.Name) and here
                          and isinstance(node.ctx, ast.Load)
                          and node.id != own):
                        used.add((here, node.id))
    return used


def _public_definitions():
    for path in sorted(PKG.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node


def test_every_public_definition_has_a_caller():
    used = _used_names()
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, node in _public_definitions()
              if (path.stem, node.name) not in used
              and node.name not in KEPT]
    assert unused == []


def test_kept_helpers_are_still_defined_and_otherwise_unused():
    # a kept helper that gains a caller, or goes away, leaves the list
    used = _used_names()
    kept = {(path.stem, node.name) for path, node in _public_definitions()
            if node.name in KEPT}
    assert {name for _, name in kept} == KEPT
    assert kept & used == set()


def _calls_by_name():
    calls = {}
    for top in ("src", "scripts", "perfbench", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    return calls


def _optional_params(fn, bound):
    """(name, position among the call's arguments or None) of each
    parameter with a default; bound counts the leading self."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    for i, arg in enumerate(pos[first:], first):
        yield arg.arg, i - bound
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or (position is not None and len(call.args) > position))


def test_every_optional_parameter_is_passed_somewhere():
    calls = _calls_by_name()
    unset = []
    for path in sorted((ROOT / "src" / "branchlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                fns = [(node, 0)]
            elif isinstance(node, ast.ClassDef):
                fns = [(m, 1) for m in node.body
                       if isinstance(m, ast.FunctionDef)
                       and m.name == "__init__"]
            else:
                continue
            for fn, bound in fns:
                for param, position in _optional_params(fn, bound):
                    if not any(_passes(c, param, position)
                               for c in calls.get(node.name, ())):
                        unset.append(f"{path.name}:{fn.lineno} "
                                     f"{node.name}({param})")
    assert unset == []


# the parameters each dispatch protocol passes, read or not
_PROTOCOLS = {"_h_": {"ns", "sc", "rng"}, "_chk_": {"check_id", "rng"}}


def _unread_params(fn, exempt):
    a = fn.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                              a.vararg, a.kwarg) if p is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name)}
    return [p for p in params if p not in read | exempt]


def test_every_parameter_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "branchlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        receivers = {id(m): m.args.args[0].arg for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for m in cls.body
                     if isinstance(m, ast.FunctionDef) and m.args.args}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            exempt = {receivers.get(id(fn))}.union(*(
                names for prefix, names in _PROTOCOLS.items()
                if fn.name.startswith(prefix)))
            unread += [f"{path.name}:{fn.lineno} {fn.name}({p})"
                       for p in _unread_params(fn, exempt)]
    assert unread == []


def test_no_function_takes_a_memo():
    # a table keeps its guarded values and outputs for as long as it
    # lives
    memos = [f"{path.name}:{fn.lineno} {fn.name}({p.arg})"
             for path in sorted(PKG.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.Lambda))
             for p in (*fn.args.posonlyargs, *fn.args.args,
                       *fn.args.kwonlyargs, fn.args.vararg, fn.args.kwarg)
             if p is not None and p.arg.endswith("memo")]
    assert memos == []


def test_nothing_imports_a_private_name_from_the_suite():
    private = [f"{path.name}:{node.lineno} {a.name}"
               for path in sorted(PKG.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").rpartition(".")[2] == "suite"
               for a in node.names if a.name.startswith("_")]
    assert private == []
