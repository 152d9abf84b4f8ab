"""No setting without a caller: every parameter with a default, on a
function or an explicit ``__init__`` in src/drail_lab, must be passed by
some call in src/, bench/ or tests/. A default that no call overrides is a
constant with a knob on it. Nor may tests be its only callers: a knob that
no command or benchmark turns is a constant too, save the arguments of a
test oracle, each named with its reason.

Calls are matched by name (a class's ``__init__`` by the class name), so
two functions of one name share their callers. A parameter counts as
passed when a call names it by keyword, reaches its position, or hands
over ``*args`` or ``**kw``.

No config key without a reader: every field of TrainConfig and PpoConfig
must be read as ``cfg.<name>`` in a function of src/drail_lab that
annotates its ``cfg`` with that class, or as ``cfg.ppo.<name>``. A field
that is only validated and written to the manifest is a key nothing uses.

No config key without a setter: every field of TrainConfig and PpoConfig
must be set somewhere in tests/ or bench/: as a keyword to ``TrainConfig``,
``PpoConfig``, a function defined there or a ``dict`` whose keywords all
name config fields; as a string dict key (``{"seed": 1}`` or
``cfg["seed"] = 1``); or in a ``key=value`` or ``ppo.key=value`` override
string. A keyword to a builder of src/ (``build_drail(label_dim=4)``) does
not set the key.

No private name without a user: every module-level function, class or
constant of src/drail_lab whose name starts with one underscore must be
read somewhere in src/ outside its own definition, as a bare name or as
an attribute (``nn_core._forward``). Matched by name, like the callers.

No failure routed by its text: no ``except ... as e`` handler in
src/drail_lab may branch (``if``, ``while``, a conditional expression, an
``assert``, a comprehension's ``if`` or a ``match``) on the caught
exception's text: ``str(e)``, ``repr(e)``, ``e.args`` or ``e`` in an
f-string. An exception's type says what failed; its message is for the
reader. Passing the text on (``raise ValueError(str(e))``) is allowed."""

import ast
import dataclasses
import os
import re
from collections import Counter

from drail_lab.policy_opt import PpoConfig
from drail_lab.trainer import TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "drail_lab")


def _sources(*dirs):
    for d in dirs:
        for base, _, names in os.walk(os.path.join(ROOT, d)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(name, position) of each parameter with a default; a keyword-only
    one has position None. A method's positions skip self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = int(method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _declared():
    """(where, callee name, parameter, position) for every defaulted parameter."""
    for path, tree in _sources(os.path.join("src", "drail_lab")):
        module = os.path.relpath(path, PACKAGE)
        classes = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = classes.get(id(fn))
            callee = owner.name if owner is not None and fn.name == "__init__" else fn.name
            for name, pos in _defaulted(fn, owner is not None):
                yield f"{module}:{fn.lineno} {callee}({name}=)", callee, name, pos


def _calls(*dirs):
    """callee name -> list of (keyword names, positional count, spreads)
    of the calls in ``dirs``."""
    calls: dict[str, list] = {}
    for _, tree in _sources(*dirs):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            star = any(isinstance(a, ast.Starred) for a in node.args)
            double_star = any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append((keywords, len(node.args), star, double_star))
    return calls


def _passed(uses, name, pos) -> bool:
    for keywords, n_positional, star, double_star in uses:
        if name in keywords or double_star:
            return True
        if pos is not None and (star or n_positional > pos):
            return True
    return False


def test_every_defaulted_parameter_is_passed_somewhere():
    declared = list(_declared())
    # a scan that finds nothing would pass vacuously
    assert any(callee == "PointReach" and name == "noise_scale" for _, callee, name, _ in declared)
    calls = _calls(os.path.join("src", "drail_lab"), "bench", "tests")
    unused = [where for where, callee, name, pos in declared if not _passed(calls.get(callee, []), name, pos)]
    assert not unused, "defaulted parameters no call passes:\n" + "\n".join(unused)


# the vector env's steps are checked against the one-env oracle
# point_step, which takes the horizon and the wall as arguments
_TEST_ONLY_PARAMETERS = {("point_step", "horizon"), ("point_step", "wall")}


def test_no_defaulted_parameter_is_passed_only_by_tests():
    calls = _calls(os.path.join("src", "drail_lab"), "bench")
    test_only = [(where, (callee, name)) for where, callee, name, pos in _declared()
                 if not _passed(calls.get(callee, []), name, pos)]
    unexpected = [where for where, key in test_only if key not in _TEST_ONLY_PARAMETERS]
    assert not unexpected, "defaulted parameters only tests pass:\n" + "\n".join(unexpected)
    # an allowance that src/ or bench/ now passes, or that names nothing, goes
    assert {key for _, key in test_only} == _TEST_ONLY_PARAMETERS


def _config_reads() -> dict[str, set[str]]:
    """Config class name -> the attribute names read off a ``cfg`` of that
    class in src/drail_lab."""
    reads: dict[str, set[str]] = {}

    def visit(node, cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                if a.arg == "cfg" and isinstance(a.annotation, ast.Name):
                    cls = a.annotation.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "cfg" and cls is not None:
                reads.setdefault(cls, set()).add(node.attr)
            elif (isinstance(base, ast.Attribute) and base.attr == "ppo"
                  and isinstance(base.value, ast.Name) and base.value.id == "cfg"):
                reads.setdefault("PpoConfig", set()).add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for _, tree in _sources(os.path.join("src", "drail_lab")):
        visit(tree, None)
    return reads


def test_every_config_field_is_read():
    reads = _config_reads()
    unread = [f"{cls.__name__}.{f.name}" for cls in (TrainConfig, PpoConfig) for f in dataclasses.fields(cls)
              if f.name not in reads.get(cls.__name__, ())]
    assert not unread, "config fields nothing reads:\n" + "\n".join(unread)


def _config_sets(fields: set[str]) -> set[str]:
    """The names of ``fields`` that tests/ and bench/ set as config keys."""
    trees = [tree for _, tree in _sources("tests", "bench")]
    setters = {"TrainConfig", "PpoConfig", "dict"} | {
        fn.name for tree in trees for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
    sets: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                # a dict of builder arguments (hidden=, T=) is no config
                if name in setters and (name != "dict" or keywords <= fields):
                    sets |= keywords
            elif isinstance(node, ast.Dict):
                sets.update(k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                    sets.add(node.slice.value)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                override = re.match(r"(?:ppo\.)?(\w+)=", node.value)
                if override:
                    sets.add(override.group(1))
    return sets & fields


def test_every_config_field_is_set_somewhere():
    fields = [(cls.__name__, f.name) for cls in (TrainConfig, PpoConfig) for f in dataclasses.fields(cls)]
    sets = _config_sets({name for _, name in fields})
    # a scan that finds nothing would pass vacuously
    assert {"rollout_steps", "epochs"} <= sets
    unset = [f"{cls}.{name}" for cls, name in fields if name not in sets]
    assert not unset, "config fields no test or benchmark sets:\n" + "\n".join(unset)


def _private_definitions():
    """(where, name, definition node) for each module-level private name."""
    for path, tree in _sources(os.path.join("src", "drail_lab")):
        module = os.path.relpath(path, PACKAGE)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield f"{module}:{node.lineno} {name}", name, node


def _reads(tree) -> Counter:
    """How often each name is read in ``tree``, bare or as an attribute."""
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
    return reads


def test_every_private_name_is_used():
    reads: Counter = Counter()
    for _, tree in _sources(os.path.join("src", "drail_lab")):
        reads += _reads(tree)
    declared = list(_private_definitions())
    # a scan that finds nothing would pass vacuously
    assert any(name == "_FORWARD_BLOCK" for _, name, _ in declared)
    unused = [where for where, name, node in declared if reads[name] - _reads(node)[name] <= 0]
    assert not unused, "private names nothing in src/ uses:\n" + "\n".join(unused)


def _reads_text(node, name: str) -> bool:
    """Whether ``node`` reads the text of the exception bound to ``name``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in ("str", "repr"):
            if any(getattr(a, "id", None) == name for a in sub.args):
                return True
        elif isinstance(sub, ast.Attribute) and sub.attr == "args" and getattr(sub.value, "id", None) == name:
            return True
        elif isinstance(sub, ast.FormattedValue) and getattr(sub.value, "id", None) == name:
            return True
    return False


def _branch_tests(node):
    """The expressions that the branches inside ``node`` test."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            yield sub.test
        elif isinstance(sub, ast.comprehension):
            yield from sub.ifs
        elif isinstance(sub, ast.Match):
            yield sub.subject


def test_no_handler_branches_on_the_exception_text():
    handlers = [(os.path.relpath(path, PACKAGE), node) for path, tree in _sources(os.path.join("src", "drail_lab"))
                for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.name]
    # a scan that finds nothing would pass vacuously
    assert any(module == "cli.py" for module, _ in handlers)
    routed = [f"{module}:{h.lineno} except ... as {h.name}" for module, h in handlers
              if any(_reads_text(test, h.name) for stmt in h.body for test in _branch_tests(stmt))]
    assert not routed, "handlers that branch on the exception text:\n" + "\n".join(routed)
