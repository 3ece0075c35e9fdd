"""Module boundaries: no riskgate module reads another riskgate module's
private (underscore) names, whether through a module alias or an import,
the runtime imports nothing beyond the standard library and numpy, and
every compact JSON writer goes through json's C encoder."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "riskgate"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reach_ins(source):
    """(line, text) of every private name of a sibling module that source
    imports by name or reads as `<module alias>._name`."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "riskgate":
                continue
            imports_modules = node.module in (None, "riskgate")
            for a in node.names:
                if imports_modules:
                    aliases.add(a.asname or a.name)
                elif _private(a.name):
                    found.append((node.lineno, f"from {node.module} import {a.name}"))
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names
                           if a.name.startswith("riskgate.") and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_checker_sees_every_import_form():
    source = ("from . import world as wd\n"
              "from .estimator import _sigmoid, predict_risk\n"
              "import riskgate.harness as hn\n"
              "def f(x):\n"
              "    return wd._task_index(x) + hn._episode_seed(x) + wd.task_index(x)\n"
              "def _own(x):\n"
              "    return _own(x.__class__)\n")
    assert private_reach_ins(source) == [
        (2, "from estimator import _sigmoid"),
        (5, "hn._episode_seed"), (5, "wd._task_index")]


def test_no_module_reads_another_modules_private_names():
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(SRC.glob("*.py"))
             for line, text in private_reach_ins(path.read_text())]
    assert found == []


def foreign_imports(source):
    """(line, module) of every absolute import that is neither the standard
    library, numpy nor riskgate."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "riskgate"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] not in allowed]
    return found


def test_import_checker_flags_third_party_modules():
    source = ("from __future__ import annotations\n"
              "import json, numpy as np\n"
              "from . import world as wd\n"
              "from riskgate.estimator import predict_risk\n"
              "import scipy.stats\n"
              "def f():\n"
              "    from sklearn import metrics\n")
    assert foreign_imports(source) == [(5, "scipy.stats"), (7, "sklearn")]


def test_runtime_imports_only_stdlib_and_numpy():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in foreign_imports(path.read_text())]
    assert found == []


def streamed_json_dumps(source):
    """Line of every `json.dump(...)` call without `indent=`. json.dump
    streams through the pure-Python encoder; `f.write(json.dumps(...))`
    writes the same bytes through the C encoder, which has no indent."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dump" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and not any(k.arg == "indent" for k in node.keywords)]


def test_json_dump_checker():
    source = ("import json\n"
              "def f(obj, g):\n"
              "    json.dump(obj, g)\n"
              "    json.dump(obj, g, indent=2, sort_keys=True)\n"
              "    g.write(json.dumps(obj) + '\\n')\n"
              "    json.dump(obj, g,\n"
              "              sort_keys=True)\n")
    assert streamed_json_dumps(source) == [3, 6]


def test_compact_json_writers_use_the_c_encoder():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in streamed_json_dumps(path.read_text())]
    assert found == []
