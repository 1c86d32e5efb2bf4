import ast
from pathlib import Path

import distmap

SRC = Path(distmap.__file__).resolve().parent


def unused_imports(source):
    """The names a module's top-level imports bind that the module never
    reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a; `import a.b as c` and `from a import b as c` bind c
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_unused_import_in_library():
    # the walk finds what it should, so an empty answer below means something
    assert unused_imports("import os\nimport sys as s\nfrom a.b import c, d\nc(s)\n") == [
        "d", "os"]
    # __init__.py is skipped: its imports are the package's exports
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    for path in modules:
        assert unused_imports(path.read_text()) == [], path.name
