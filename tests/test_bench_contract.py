"""perfbench wraps, imports and reads ptobs names: each must resolve.

The files are read, not imported, so a refactor that drops or renames a
name perfbench uses fails here rather than in the benchmark run.
"""

import ast
import importlib

from ptobs.config import load_experiment
from conftest import BUNDLED_CONFIG, REPO


def test_every_traced_target_resolves():
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    # Owners are module paths (ptobs.sim) or names imported from ptobs modules.
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    missing = []
    for owner_expr, attr, _ in (entry.elts for entry in targets.elts):
        owner = ast.unparse(owner_expr)
        if owner in imported:
            module, name = imported[owner]
            obj = getattr(importlib.import_module(module), name)
        else:
            obj = importlib.import_module(owner)
        if not callable(getattr(obj, attr.value, None)):
            missing.append(f"{owner}.{attr.value}")
    assert len(targets.elts) > 10 and missing == []


def test_every_ptobs_import_in_perfbench_resolves():
    # `from ptobs.x import y` anywhere in perfbench/*.py, function bodies included.
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted((REPO / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ptobs"
        for alias in node.names
    ]
    missing = [entry for entry in imports
               if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert ("workloads.py", "ptobs.trace", "read_trace") in imports and missing == []


def test_every_unused_import_is_a_traced_target():
    # A `# noqa: F401` import in src/ptobs exists only for perfbench to wrap:
    # once its TARGETS entry goes, the import should go too.
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    wrapped = {(ast.unparse(owner), attr.value) for owner, attr, _ in (e.elts for e in targets.elts)}
    kept = []
    for path in sorted((REPO / "src" / "ptobs").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
                kept += [(f"ptobs.{path.stem}", alias.asname or alias.name) for alias in node.names]
    assert [entry for entry in kept if entry not in wrapped] == []


def test_every_experiment_field_perfbench_reads_resolves():
    # perfbench/workloads.py reads Experiment fields by name; each must resolve
    # in both gain modes, so a rename fails here rather than in the benchmark.
    tree = ast.parse((REPO / "perfbench" / "workloads.py").read_text())
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "exp"
    }
    synthesize = ["gains.mode=synthesize", "gains.alpha_margin=1.05"]
    experiments = [load_experiment(str(BUNDLED_CONFIG), overrides) for overrides in ([], synthesize)]
    assert [exp.gains_mode for exp in experiments] == ["explicit", "synthesize"]
    missing = [name for name in sorted(names) for exp in experiments if not hasattr(exp, name)]
    assert "gains_mode" in names and missing == []


def test_every_sequence_field_perfbench_reads_resolves():
    # perfbench/workloads.py also reads exp.sequence.<name>; a change of the
    # switching signal's representation must fail here, not in the benchmark.
    tree = ast.parse((REPO / "perfbench" / "workloads.py").read_text())
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "sequence" and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "exp"
    }
    exp = load_experiment(str(BUNDLED_CONFIG))
    assert {"topologies", "analyses"} <= names
    assert [name for name in sorted(names) if not hasattr(exp.sequence, name)] == []
