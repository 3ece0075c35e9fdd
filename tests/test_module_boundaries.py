"""Module boundaries: no riskgate module reads another riskgate module's
private (underscore) names, whether through a module alias or an import,
the modules import each other without a cycle, the runtime imports
nothing beyond the standard library and numpy, every compact JSON
writer goes through json's C encoder, no result is unwrapped on its rank,
every eval config key and every field of the world state and task is
read by the program, and every top-level definition is named by the
program itself, beyond a short list that only tests name."""

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


def sibling_imports(source, modules):
    """Names in modules that source imports, in any form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "riskgate":
                continue
            parts = (node.module or "").split(".")
            inner = parts[1:] if node.level == 0 else parts
            if inner and inner[0]:
                found.add(inner[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("riskgate."))
    return found & set(modules)


def import_cycle(sources):
    """One cycle of the import graph of sources ({module: source}), as the
    modules along it with the first repeated at the end; [] when there is
    none."""
    graph = {m: sorted(sibling_imports(src, sources)) for m, src in sources.items()}
    done, path = set(), []

    def visit(m):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return []
        path.append(m)
        for n in graph[m]:
            cycle = visit(n)
            if cycle:
                return cycle
        path.pop()
        done.add(m)
        return []

    for m in sorted(graph):
        cycle = visit(m)
        if cycle:
            return cycle
    return []


def test_import_cycle_checker():
    sources = {"a": "from . import b as bb\nimport json\n",
               "b": "from .c import f\nimport numpy\n",
               "c": "def f():\n    import riskgate.a\n",
               "d": "from riskgate import b, c\nfrom riskgate.e import g\n",
               "e": "from . import d, version\n",
               "f": "from __future__ import annotations\n"}
    assert sibling_imports(sources["d"], sources) == {"b", "c", "e"}
    assert sibling_imports(sources["e"], sources) == {"d"}
    assert import_cycle(sources) == ["a", "b", "c", "a"]
    sources["c"] = "def f():\n    return 1\n"
    assert import_cycle(sources) == ["d", "e", "d"]
    sources["e"] = "from . import version\n"
    assert import_cycle(sources) == []


def test_no_import_cycle():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert import_cycle(sources) == []


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


def rank_unwraps(source):
    """Line of every conditional expression whose test reads an array's
    rank (`x.ndim`, `np.ndim(x)`), such as `float(d) if d.ndim == 0 else d`.
    A batched call returns arrays over its leading shape, () for one item,
    so no result is unwrapped to a Python scalar on its rank."""
    def reads_rank(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "ndim"
                   or isinstance(n, ast.Name) and n.id == "ndim" for n in ast.walk(node))
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.IfExp) and reads_rank(node.test))


def test_rank_unwrap_checker():
    source = ("from numpy import ndim\n"
              "def f(d, g, x):\n"
              "    if x.ndim < 2:\n"
              "        raise ValueError(x.shape)\n"
              "    a = float(d) if d.ndim == 0 else d\n"
              "    b = [g if np.ndim(x) else g[0], d if d.size else 0]\n"
              "    return bool(x) if not ndim(x) else x, x.ndim == 0\n")
    assert rank_unwraps(source) == [5, 6, 7]


def test_no_result_is_unwrapped_on_its_rank():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in rank_unwraps(path.read_text())]
    assert found == []


# Eval keys that still load, for configs that set them, but drive nothing:
# evaluate runs every episode in one process since its worker pool was
# deleted, and estimator.latency summarizes the logged step latencies since
# the synthetic timing loop was deleted. ROADMAP item 6 deletes them with the
# perfbench configs that set them.
INERT_EVAL_KEYS = ("workers", "latency_trials", "latency_warmup")


def unread_eval_keys(sources):
    """Fields of EvalSection in sources["config"] that no other module of
    sources ({module: source}) reads as `<expr>.eval.<key>`, less
    INERT_EVAL_KEYS."""
    section = next(node for node in ast.walk(ast.parse(sources["config"]))
                   if isinstance(node, ast.ClassDef) and node.name == "EvalSection")
    keys = [node.target.id for node in section.body if isinstance(node, ast.AnnAssign)]
    read = {node.attr
            for module, source in sources.items() if module != "config"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "eval"}
    return [k for k in keys if k not in read and k not in INERT_EVAL_KEYS]


def test_unread_eval_key_checker():
    sources = {"config": ("class EvalSection:\n"
                          "    mode: str = 'gated'\n"
                          "    H: int = 5\n"
                          "    n_candidates: int = 8\n"
                          "    workers: int = 1\n"
                          "    latency_trials: int = 1000\n"
                          "def check(cfg):\n"
                          "    return cfg.eval.n_candidates >= 1\n"),
               "harness": "def f(cfg):\n    return cfg.eval.mode, cfg.eval_H, eval.H\n"}
    assert unread_eval_keys(sources) == ["H", "n_candidates"]
    sources["cli"] = "def g(args, cfg):\n    return args.H or cfg.eval.H\n"
    assert unread_eval_keys(sources) == ["n_candidates"]


def test_every_eval_key_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_eval_keys(sources) == []


def unread_fields(sources, classes=("DualArmState", "Task")):
    """`Class.field` for each field of the named classes in sources["world"]
    that no function of sources ({module: source}) reads as
    `<param>.<field>`, where the parameter is annotated with that class.

    Only reads through such a parameter count, so a same-named field of
    another class (`TaskParams.max_steps` beside `Task.max_steps`) does
    not hide an unread one.
    """
    fields = {node.name: [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
              for node in ast.walk(ast.parse(sources["world"]))
              if isinstance(node, ast.ClassDef) and node.name in classes}
    read = set()
    for source in sources.values():
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            typed = {}
            for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
                ann = arg.annotation
                cls = ann.attr if isinstance(ann, ast.Attribute) else getattr(ann, "id", None)
                if cls in fields:
                    typed[arg.arg] = cls
            read.update((typed[node.value.id], node.attr) for node in ast.walk(fn)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name) and node.value.id in typed)
    return [f"{cls}.{name}" for cls, names in fields.items() for name in names
            if (cls, name) not in read]


def test_unread_field_checker():
    sources = {"world": ("class DualArmState:\n"
                         "    q: object\n"
                         "    t: int\n"
                         "class Task:\n"
                         "    goal: object\n"
                         "    max_steps: int\n"
                         "class TaskParams:\n"
                         "    max_steps: int\n"
                         "def step(state: DualArmState, params: TaskParams):\n"
                         "    return state.q, params.max_steps\n"),
               "policy": "def plan(state, task: wd.Task):\n    return task.goal, state.t\n"}
    assert unread_fields(sources) == ["DualArmState.t", "Task.max_steps"]
    sources["harness"] = "def digest(state: wd.DualArmState):\n    return state.t\n"
    assert unread_fields(sources) == ["Task.max_steps"]


def test_every_state_and_task_field_is_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_fields(sources) == []


def orphaned_definitions(sources, others=()):
    """`module.name` of each top-level function and class of sources
    ({module: source}) that no code names outside its own definition: not
    another part of sources, nor any source in others. Its own module
    names it as a bare name. Other code names it through a module alias
    (`from . import world as wd`, then `wd.step`) or as a bare name it
    imports (`from .world import step`); any other bare name there is a
    binding of its own, such as a local of the same name."""
    named = set()  # (module, name)
    for module, source in [*sources.items(), *((None, source) for source in others)]:
        tree = ast.parse(source)
        aliases, imported = {}, {}  # local name -> module, local name -> (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module in (None, "riskgate"):  # a module of the package
                        aliases[local] = alias.name
                    else:
                        imported[local] = (node.module.rsplit(".", 1)[-1], alias.name)
        for top in tree.body:
            # a definition's own body (recursion) does not keep it alive
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for n in ast.walk(top):
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                    if n.value.id in aliases:
                        named.add((aliases[n.value.id], n.attr))
                elif isinstance(n, ast.Name) and n.id != own:
                    named.add(imported.get(n.id, (module, n.id)))
    return [f"{module}.{node.name}" for module, source in sources.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and (module, node.name) not in named]


def test_orphaned_definition_checker():
    """Besides recursion, a bare name in another module keeps nothing alive
    unless that module imports it: `loss` below is a local of
    `policy.fit`, not `estimator.loss`."""
    sources = {"world": ("def step(s):\n    return _advance(s)\n"
                         "def _advance(s):\n    return s\n"
                         "def _unused(s):\n    return _unused(s - 1)\n"
                         "class Orphan:\n    def helper(self):\n        return Orphan\n"
                         "class Kept:\n    pass\n"
                         "LOOKUP = {'k': Kept}\n"),
               "harness": "from . import world as wd\ndef run(s):\n    return wd.step(s)\n",
               "estimator": "def loss(p):\n    return p\ndef grad(p):\n    return p\n",
               "policy": ("from .estimator import grad as g\n"
                          "def fit(x):\n    loss = x - 1\n    return g(loss)\n")}
    assert orphaned_definitions(sources) == ["world._unused", "world.Orphan", "harness.run",
                                             "estimator.loss", "policy.fit"]
    tests = ["from riskgate.harness import run\nfrom riskgate import estimator as est\n"
             "def test_run(s):\n    assert run(s) and est.loss(s)\n",
             "def test_fit(x):\n    fit = x\n    assert fit\n"]
    assert orphaned_definitions(sources, tests) == ["world._unused", "world.Orphan", "policy.fit"]


def test_every_definition_is_named_outside_itself():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    tests = [path.read_text() for path in sorted(SRC.parents[1].joinpath("tests").glob("*.py"))]
    assert orphaned_definitions(sources, tests) == []


# Top-level definitions that only tests name, each with why it stays.
TEST_ONLY_DEFINITIONS = {
    "geometry.forward_kinematics": "the reference `joint_origins` is tested against",
    "metrics.measure_latency": "runs acceptance criterion 9",
    "estimator.loss": "the independent per-sample re-derivation that `batch_mean_loss` checks "
                      "the batch loss against",
    "estimator.grad": "runs acceptance criterion 2",
}


def test_no_definition_is_named_only_by_tests():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sorted(orphaned_definitions(sources)) == sorted(TEST_ONLY_DEFINITIONS)
