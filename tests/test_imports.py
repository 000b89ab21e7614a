"""Source hygiene: every name a cltlab module imports is used in it."""

import ast
import pathlib

import cltlab

SRC = pathlib.Path(cltlab.__file__).parent


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_every_imported_name_is_used():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}
