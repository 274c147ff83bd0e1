"""Every name the package exports is production code: some module of the
library other than `__init__` uses it, so a helper that only tests or the
README call does not stay in src/."""
import ast
import types
from pathlib import Path

import entroscope

SRC = Path(entroscope.__file__).resolve().parent

# Exported names no module uses yet, each with its reason.
ALLOWED = {
    # The canonical-ensemble measure S = beta U + ln Q; a production check of
    # that identity on every solved spectrum is planned to call it.
    "q_gibbs",
}


def _references(tree: ast.AST):
    """Names a module reads: loaded names, attributes and imported names.

    A name's definition (a def, a class, an assignment target) is not a
    reference.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_every_exported_name_is_used_by_the_library():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    exported = {
        name for name in entroscope.__all__
        if not isinstance(getattr(entroscope, name), types.ModuleType)
    }
    assert sorted(exported - used - ALLOWED) == []
    # An allowance outlives its reason once the name is used or gone.
    assert sorted(ALLOWED - (exported - used)) == []
