"""The package's modules import one way: errors at the bottom, then the
integer helpers in intlinalg, then the exact arithmetic and continued
fractions built on them, with no import cycle; and every exported name
resolves."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lattes_sft"


def package_imports() -> dict[str, set[str]]:
    """For each module, the package modules it imports, anywhere in its body."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def test_bottom_layers():
    graph = package_imports()
    assert graph["errors"] == set()
    assert graph["intlinalg"] == {"errors"}
    assert graph["exactnum"] <= {"errors", "intlinalg"}
    assert graph["cfrac"] <= {"errors", "intlinalg"}


def test_no_import_cycle():
    graph = package_imports()
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, "import cycle: " + " -> ".join(path + (module,))
        if module in done:
            return
        for dep in graph.get(module, ()):
            visit(dep, path + (module,))
        done.add(module)

    for module in graph:
        visit(module, ())


def test_exports_resolve_once():
    import lattes_sft

    names = lattes_sft.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(lattes_sft, n)]
    assert not missing, f"__all__ names what the package does not define: {missing}"
