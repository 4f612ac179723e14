"""The package's modules import one way: errors at the bottom, then the
integer helpers in intlinalg, then the exact arithmetic and continued
fractions built on them, with no import cycle; every exported name
resolves; and every function the benchmark's traced run wraps is where
its span recorder looks for it."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lattes_sft"


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


def test_perfbench_span_targets_resolve(monkeypatch):
    # perfbench/spans.py wraps a method found in its class __dict__ and a
    # function found in its module; a target that moved would drop its span
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    for mod_name, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"lattes_sft.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(mod, cls_name)).get(meth)
        else:
            target = vars(mod).get(attr)
        assert callable(target), f"span target {mod_name}.{attr} does not resolve"
