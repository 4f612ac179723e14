"""The package's modules import one way: errors at the bottom, then the
integer helpers in intlinalg, then the exact arithmetic and continued
fractions built on them, with no import cycle; outside the package they
import only the standard library; every exported name resolves; and every
function the benchmark's traced run wraps is where its span recorder
looks for it; and no test module shadows a benchmark module."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_only_standard_library_imports():
    # the package has no runtime dependency: every absolute import, at any
    # depth of a module's body, names a standard-library module
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, f"imports outside the standard library: {outside}"


def test_exports_resolve_once():
    import lattes_sft

    names = lattes_sft.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(lattes_sft, n)]
    assert not missing, f"__all__ names what the package does not define: {missing}"


def test_lazy_package_surface():
    import lattes_sft

    names = set(lattes_sft.__all__)
    assert names <= set(dir(lattes_sft))
    star: dict = {}
    exec("from lattes_sft import *", star)
    assert names <= star.keys()
    assert all(star[n] is getattr(lattes_sft, n) for n in names)
    exec("from lattes_sft import pipeline", star)
    assert star["pipeline"] is sys.modules["lattes_sft.pipeline"]
    with pytest.raises(AttributeError, match="module 'lattes_sft' has no attribute 'no_such_name'"):
        lattes_sft.no_such_name


def test_resolved_names_are_not_cached(monkeypatch):
    # perfbench/spans.py swaps wrappers into the package's modules for a
    # traced round and then restores them; the package must follow both
    import lattes_sft
    from lattes_sft import sft

    def wrapper():
        pass

    monkeypatch.setattr(sft, "zeta_sft", wrapper)
    assert lattes_sft.zeta_sft is wrapper
    monkeypatch.undo()
    assert lattes_sft.zeta_sft is sft.zeta_sft is not wrapper
    assert "zeta_sft" not in vars(lattes_sft)


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


def test_no_test_module_shares_a_name_with_a_perfbench_module():
    # pytest imports tests/*.py and perfbench/*.py as top-level modules, so in
    # one run over both a shared name resolves to whichever loaded first
    def names(folder: str) -> set[str]:
        return {path.stem for path in (ROOT / folder).glob("*.py")}

    assert not names("tests") & names("perfbench")
