import ast
import importlib.util
import os

import numpy as np
import pytest

import curvitrack


@pytest.mark.parametrize("name", curvitrack.__all__)
def test_export_resolves_to_its_module_object(name):
    module = importlib.import_module(f"curvitrack.{curvitrack._MODULE_OF[name]}")
    assert getattr(curvitrack, name) is getattr(module, name)
    assert vars(curvitrack)[name] is getattr(module, name)   # cached after first use


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        curvitrack.no_such_name
    assert not hasattr(curvitrack, "no_such_name")


def test_benchmark_tracer_installs_and_restores():
    # perfbench/tracer.py wraps package functions by name with getattr, so a
    # renamed or removed one fails here rather than in a benchmark run.
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {name: importlib.import_module(f"curvitrack.{name}") for name in (
        "cli", "drift", "geometry", "gps", "io_formats", "moteval", "plots",
        "roadway", "simulator", "tracking")}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    tr = tracer.Tracer("test")
    tracer.install(tr)
    try:
        for name in ("tracking", "moteval"):
            for attr in ("iou_matrix", "hungarian_match"):
                assert vars(modules[name])[attr] is not before[name][attr]
        modules["tracking"].iou_matrix(np.zeros((2, 5)), np.zeros((3, 5)))
        assert tr.counts["tracking.iou_cells"] == 6
    finally:
        tr.restore()
    assert {name: dict(vars(m)) for name, m in modules.items()} == before


def test_io_formats_imports_nothing_from_cli():
    with open(os.path.join(os.path.dirname(curvitrack.__file__), "io_formats.py")) as f:
        tree = ast.parse(f.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert [name for name in imported if "cli" in name.split(".")] == []


# names a module imports although its own code never reads them: the
# benchmark's tracer wraps moteval.iou_matrix and moteval.hungarian_match
IMPORTED_FOR_OTHERS = {("moteval", "iou_matrix"), ("moteval", "hungarian_match")}


def test_no_module_imports_a_name_it_never_uses():
    src = os.path.dirname(curvitrack.__file__)
    unused = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname)) as f:
            tree = ast.parse(f.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = fname[:-3]
        unused += [f"{fname}:{line}: {name}" for name, line in imported.items()
                   if name not in used and (module, name) not in IMPORTED_FOR_OTHERS]
    assert unused == []



# public names that nothing in the package, the benchmark or the acceptance
# gate references, kept on purpose
KEPT_UNREFERENCED = {
    "decode_anchor_detection": "ROADMAP item 4 decides its fate",
    "metric_sub_drift": "ROADMAP item 4 decides its fate",
    "match_frame": "the public form of the per-frame matching rule; test_moteval.py "
                   "pins the rule through it",
}


def _names_read(path: str) -> set:
    """The names and attributes a file's code reads or imports; a mention in
    a docstring or comment is no reference."""
    with open(path) as f:
        tree = ast.parse(f.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_and_class_is_referenced():
    """Each top-level function or class of the package is read by its own
    or another module, the benchmark or the acceptance gate; the __init__
    export table does not count."""
    src = os.path.dirname(curvitrack.__file__)
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    modules = [os.path.join(src, f) for f in sorted(os.listdir(src))
               if f.endswith(".py") and f != "__init__.py"]
    readers = modules + [os.path.join(bench, f) for f in sorted(os.listdir(bench))
                         if f.endswith(".py")]
    readers.append(os.path.join(os.path.dirname(__file__), "test_acceptance.py"))
    read = set().union(*map(_names_read, readers))
    unreferenced = []
    for path in modules:
        with open(path) as f:
            tree = ast.parse(f.read())
        unreferenced += [f"{os.path.basename(path)}: {node.name}" for node in tree.body
                         if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                         and not node.name.startswith("_") and node.name not in read
                         and node.name not in KEPT_UNREFERENCED]
    assert unreferenced == []
    # a kept name that something now reads leaves the list
    assert sorted(KEPT_UNREFERENCED.keys() & read) == []
