"""Source hygiene of the package, read from its source with ast.

Every import of a module in src/rhlab is used in that module, and every
private module-level name (a function, class or assignment whose name
starts with one underscore) is read somewhere in the package.  A name that
only a test reads is dead code of the package.  So is a public name (one in
__all__) that no module reads outside its own definition, apart from the
listed names still waiting to be deleted or gain a caller.  Every
defaulted parameter of a public module-level function, and every defaulted
field of a public dataclass, is passed by some call in the package (or the
field assigned), apart from the listed ones kept on purpose.  Every
name of __all__ is an attribute of the imported package, so
`from rhlab import *` does not fail.  The only third-party package imported
is numpy.  The private names of kcalc that other modules import are listed,
and the list may only shrink.
"""

import ast
import pathlib
import sys

import pytest

import rhlab

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rhlab"
MODULES = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _annotation_strings(tree):
    """The expressions of quoted annotations, parsed."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs] + [node.returns]
            notes += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield ast.parse(note.value, mode="eval")


def _nodes(tree):
    for root in [tree, *_annotation_strings(tree)]:
        yield from ast.walk(root)


def exported(tree) -> set[str]:
    """The strings of a module's __all__."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


def _local_reads(tree) -> set[str]:
    """Names a module reads itself: loaded names and the strings of __all__."""
    loaded = {n.id for n in _nodes(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return loaded | exported(tree)


def _reads(tree) -> set[str]:
    """Names a module reads of any module: its local reads, attribute names
    and the names it imports from sibling modules."""
    out = _local_reads(tree)
    for node in _nodes(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            out.update(a.name for a in node.names)
    return out


def reads_outside_definitions(tree) -> set[str]:
    """Names a module reads outside the top-level definition of each: what
    a function or class reads of itself (recursion, its own annotations)
    does not count."""
    out = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        out.update(n for n in _reads(ast.Module(body=[node], type_ignores=[])) if n != own)
    return out


def _passes(call, index, name) -> bool:
    """Whether a call passes a parameter: by position (index None for a
    keyword-only one), by name, or maybe through a *args or **kwargs."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (index is not None and index < len(call.args)) or any(k.arg == name for k in call.keywords)


def _callee(node) -> str | None:
    """The name or attribute a call or decorator expression names."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _defaulted(node) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter of a function, or field
    of a dataclass (position None for a keyword-only parameter)."""
    if isinstance(node, ast.FunctionDef):
        args = node.args
        pos = args.posonlyargs + args.args
        params = [(i, a.arg) for i, a in enumerate(pos) if i >= len(pos) - len(args.defaults)]
        return params + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if isinstance(node, ast.ClassDef) and any(_callee(d) == "dataclass" for d in node.decorator_list):
        fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
        return [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]
    return []


def unpassed_defaults(modules) -> list[str]:
    """An entry "module:name(param=)" for each defaulted parameter of a
    public module-level function, or defaulted field of a public dataclass,
    that no call in the modules passes; a call is matched by its callee's
    name or attribute.  A field the modules assign as an attribute counts
    as passed, unless through self in a method of another class."""
    calls, stored = {}, set()  # stored: (class for a self.attr store, else None, attr)
    is_self = lambda n: isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "self"
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and not is_self(node):
                stored.add((None, node.attr))
            elif isinstance(node, ast.ClassDef):
                stores = (n for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store))
                stored.update((node.name, n.attr) for n in stores if is_self(n))
    out = []
    for m, tree in modules.items():
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            fields = isinstance(node, ast.ClassDef)
            out += [
                f"{m}:{node.name}({name}=)"
                for i, name in _defaulted(node)
                if not (fields and stored & {(None, name), (node.name, name)})
                and not any(_passes(c, i, name) for c in calls.get(node.name, []))
            ]
    return out


def unused_imports(tree) -> list[str]:
    used = _local_reads(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        out += [name for name in bound if name not in used]
    return out


def private_definitions(tree) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module]) == []


def imported_packages(tree) -> set[str]:
    """The top-level packages a module imports, at any depth of its code."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_runtime_needs_numpy_only():
    # scipy is a test dependency: the package's one third-party import is numpy
    third_party = set().union(*map(imported_packages, MODULES.values())) - set(sys.stdlib_module_names)
    assert third_party == {"numpy"}


# The private names of kcalc another module imports: the layout of the
# level pieces (_PieceRun), the pieces of the index blocks and the K-curve
# of a rearrangement.  A name leaves this list when its import goes; none
# joins it.
KCALC_PRIVATE_IMPORTS = {
    "indices.py": {"_PieceRun", "_level_pieces"},
    "weights.py": {"_PieceRun", "_k_curve"},
}


def kcalc_private_imports(tree) -> set[str]:
    """The private names a module imports from kcalc, at any depth of its code."""
    return {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in {("kcalc", 1), ("rhlab.kcalc", 0)}
        for a in node.names
        if a.name.startswith("_")
    }


def test_kcalc_private_imports_are_listed():
    got = {m: names for m, tree in MODULES.items() if (names := kcalc_private_imports(tree))}
    assert got == KCALC_PRIVATE_IMPORTS


def test_every_private_name_is_read():
    reads = set().union(*map(_reads, MODULES.values()))
    dead = [f"{m}:{n}" for m, tree in MODULES.items() for n in private_definitions(tree) if n not in reads]
    assert dead == []


# Public names with no reader in the package yet, each to be deleted or
# gain a caller; a name leaves this list when it does.
PENDING_PUBLIC = {"packing_average", "level_cubes"}


def test_every_public_name_is_read():
    public = exported(MODULES["__init__.py"])
    reads = set().union(*(reads_outside_definitions(t) for m, t in MODULES.items() if m != "__init__.py"))
    assert sorted(public - reads - PENDING_PUBLIC) == []
    # the pending names are exported and still unread
    assert PENDING_PUBLIC <= public and not PENDING_PUBLIC & reads


# Defaulted parameters no call in the package passes, kept on purpose:
# main's argv (the console script passes none, tests pass a list), and the
# cube policy of the class constants only the verifiers call, so that every
# class constant takes the cubes= policy string the README documents.
UNPASSED_KEPT = {
    "cli.py:main(argv=)",
    "weights.py:hardy_residual_sup(cubes=)",
    "weights.py:kside_rh_constant(cubes=)",
    "weights.py:rh_p_weighted_constant(cubes=)",
}


def test_every_default_is_passed():
    unpassed = set(unpassed_defaults(MODULES))
    extra = sorted(unpassed - UNPASSED_KEPT)
    assert not extra, "never passed: " + ", ".join(extra)
    # the kept parameters exist and are still unpassed
    assert UNPASSED_KEPT <= unpassed


def test_all_names_resolve():
    assert [n for n in rhlab.__all__ if not hasattr(rhlab, n)] == []


def test_checks_see_dead_code():
    tree = ast.parse("import os\nfrom . import grid as G\nfrom .grid import a, b\n_x = 1\n_y = 2\ndef _f(): return b + _y\n")
    assert unused_imports(tree) == ["os", "G", "a"]
    imports = ast.parse("from .kcalc import _a, b\nfrom .grid import _c\ndef f():\n    from rhlab.kcalc import _d\n")
    assert kcalc_private_imports(imports) == {"_a", "_d"}
    reads = _reads(tree)
    assert [n for n in private_definitions(tree) if n not in reads] == ["_x", "_f"]
    # a definition reading itself (recursion, a quoted annotation) is no reader
    tree = ast.parse("def f(n): return f(n - 1)\nclass C:\n    def g(self) -> 'C': return C\ndef h(): return C\n")
    reads = reads_outside_definitions(tree)
    assert "C" in reads and not reads & {"f", "h"}
    # a default is passed by position, by name or through *args / **kwargs
    tree = ast.parse("def f(a, b=1, *, c=2, d=3): pass\ndef _g(e=0): pass\ndef h(x=0, y=1): pass\n"
                     "f(0, 1, d=4)\nM.h(*[])\n")
    assert unpassed_defaults({"m.py": tree}) == ["m.py:f(c=)"]
    # a dataclass field by position, by name or by an attribute assignment,
    # but not by another class's self.attr; a private dataclass and a plain
    # class are not checked
    tree = ast.parse("@dataclass\nclass D:\n    a: int\n    b: int = 0\n    c: int = 1\n    e: int = 2\n    f: int = 3\n"
                     "@dataclasses.dataclass(frozen=True)\nclass E:\n    g: int = 0\n"
                     "@dataclass\nclass _P:\n    h: int = 0\n"
                     "class N:\n    k: int = 0\n    def m(self):\n        self.c = 1\n"
                     "D(0, 1, f=2)\nx.e = 3\nE()\n")
    assert unpassed_defaults({"m.py": tree}) == ["m.py:D(c=)", "m.py:E(g=)"]
