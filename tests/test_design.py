"""Design checks over the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "debias"

# public names that nothing in src/ calls, each kept for a stated reason
UNREFERENCED_OK = {
    ("diffcore", "finite_diff_check"): "gradient checking of the training objectives",
}


def references(mod, stmt, alias):
    """(module, name) pairs that one top-level statement of `mod` refers to."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add((mod, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in alias:
                out.add((alias[node.value.id], node.attr))
    return out


def test_every_public_name_is_used_in_src():
    # a public module-level function or class must have a caller in src/
    # outside its own definition; an API only tests use does not belong there
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text())
        alias = {  # `from . import model as mdl` -> {"mdl": "model"}
            a.asname or a.name: a.name
            for stmt in tree.body
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module is None
            for a in stmt.names
        }
        for stmt in tree.body:
            refs = references(mod, stmt, alias)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard((mod, stmt.name))
                if not stmt.name.startswith("_"):
                    defined.append((mod, stmt.name))
            used |= refs
    unused = [d for d in defined if d not in used]
    assert sorted(unused) == sorted(UNREFERENCED_OK)


def test_training_has_one_step_loop():
    # both stages run one SGD loop: the objective that gives the step's
    # gradients and the parameter step each have one call site, in a
    # function that never looks at the method, and no graph is built
    tree = ast.parse((SRC / "train.py").read_text())
    sites = {"objective": [], "sgd_step": []}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in sites:
                    sites[name].append(fn)
    assert [len(v) for v in sites.values()] == [1, 1]
    (loop,) = set(sites["objective"]) | set(sites["sgd_step"])
    assert loop.name == "_sgd_loop"
    (step,) = [n for n in ast.walk(loop) if isinstance(n, ast.Call)
               and getattr(n.func, "attr", None) == "sgd_step"]
    assert isinstance(step.func.value, ast.Name) and step.func.value.id == "dc"
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "method"
        for node in ast.walk(loop)
    )
    identifiers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            identifiers.add(getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))))
    graph = {"DiffNode", "leaf", "constant", "eval_backward", "ForwardTrace"}
    assert not graph & identifiers


def test_every_document_parse_checks_its_fields():
    # every JSON document the CLI reads (configs, manifests, reports and
    # checkpoint headers) is parsed by data._checked_fields, not by hand
    parsers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and (
                node.name == "from_dict" or (path.stem, node.name) == ("model", "load_checkpoint")
            ):
                parsers.append((path.stem, node))
    assert len([p for p in parsers if p[1].name == "from_dict"]) >= 4
    assert ("model", "load_checkpoint") in [(mod, fn.name) for mod, fn in parsers]
    for mod, fn in parsers:
        calls = {
            getattr(n.func, "attr", getattr(n.func, "id", None))
            for n in ast.walk(fn) if isinstance(n, ast.Call)
        }
        assert "_checked_fields" in calls, f"{mod}.{fn.name} parses its document by hand"


# defaulted parameters that no call in src/ passes, each kept for a stated reason
DEFAULT_ONLY_OK = {
    ("cli", "main", "argv"): "the entry point: the console script passes no argv",
    ("diffcore", "finite_diff_check", "eps"): "the probe step the gradient gate runs at",
}


def test_every_defaulted_parameter_is_passed_in_src():
    # a parameter whose default every caller keeps is a knob with one value
    # in use; a class constructor's parameters are matched by the class name
    defaulted, passed = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                name = owner[id(node)] if node.name == "__init__" else node.name
                shift = 1 if id(node) in owner else 0  # self or cls
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    defaulted.append((path.stem, name, positional[i].arg, i - shift))
                defaulted += [(path.stem, name, p.arg, None)
                              for p, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                passed |= {(name, i) for i in range(len(node.args))}
                passed |= {(name, k.arg or "**") for k in node.keywords}
                if any(isinstance(a, ast.Starred) for a in node.args):
                    passed.add((name, "*"))
    unpassed = [(mod, fn, p) for mod, fn, p, i in defaulted
                if not {(fn, p), (fn, i), (fn, "*"), (fn, "**")} & passed]
    assert sorted(unpassed) == sorted(DEFAULT_ONLY_OK)
