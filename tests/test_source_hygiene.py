"""Source hygiene of the package, with the standard library only.

Every import of a module in src/rhlab is used in that module, and every
private module-level name (a function, class or assignment whose name
starts with one underscore) is read somewhere in the package.  A name that
only a test reads is dead code of the package.
"""

import ast
import pathlib

import pytest

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


def _local_reads(tree) -> set[str]:
    """Names a module reads itself: loaded names and the strings of __all__."""
    out = {n.id for n in _nodes(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


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


def test_every_private_name_is_read():
    reads = set().union(*map(_reads, MODULES.values()))
    dead = [f"{m}:{n}" for m, tree in MODULES.items() for n in private_definitions(tree) if n not in reads]
    assert dead == []


def test_checks_see_dead_code():
    tree = ast.parse("import os\nfrom . import grid as G\nfrom .grid import a, b\n_x = 1\n_y = 2\ndef _f(): return b + _y\n")
    assert unused_imports(tree) == ["os", "G", "a"]
    reads = _reads(tree)
    assert [n for n in private_definitions(tree) if n not in reads] == ["_x", "_f"]
