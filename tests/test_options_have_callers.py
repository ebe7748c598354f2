"""Every defaulted parameter in ``src/repro`` has a caller that passes it.

A parameter (or dataclass field) with a default that no call ever passes is
an option nobody uses: every run takes the default, so it should be the
constant it defaults to. This check parses ``src/repro`` for every
definition with a defaulted parameter, then every call in ``src/``,
``tests/``, ``benchmarks/``, ``perfbench/``, ``scripts/`` and ``examples/``,
and fails listing each such parameter that no call passes. A new option
therefore needs its caller in the same change.

A second, stricter check covers the fields of every ``*Config`` dataclass:
each needs a caller outside the unit tests, in ``src/``, ``benchmarks/``,
``perfbench/``, ``scripts/`` or ``tests/golden/`` (whose digests pin the
runs that use it). A field only unit tests set is a value every real run
takes at its default, so it should be a named constant.

Calls are matched by the callee's last name (``f(...)``, ``x.f(...)``), so a
parameter counts as passed when any same-named callable gets it, and a call
to a class also reaches the parameters its subclasses inherit. The counting
is conservative, so the check never raises a false alarm:

* an argument counts by keyword, or by position;
* a call with ``*args`` counts for every positional parameter of that name,
  and one with ``**kwargs`` for every parameter;
* ``super().__init__(...)`` reaches every ancestor of the enclosing class,
  ``cls(...)`` the enclosing class and its subclasses, and
  ``dataclasses.replace(obj, f=...)`` field ``f`` of every dataclass;
* any other call whose callee cannot be named (a subscript, the result of
  another call) counts each keyword it passes for every parameter of that
  name;
* a definition used as a value (a callback, a table entry, a
  ``functools.partial`` argument) may be called by anything, so all its
  parameters count;
* a dataclass field the program assigns after construction is state the
  object keeps, not a setting, as are private fields and
  ``default_factory`` fields.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
DEFINITION_ROOT = ROOT / "src" / "repro"
CALLER_ROOTS = ("src", "tests", "benchmarks", "perfbench", "scripts", "examples")
PRODUCTION_ROOTS = ("src", "benchmarks", "perfbench", "scripts", "tests/golden")

# Deployment settings (where to listen, how long to wait for a remote peer)
# stay configurable even while every caller in the repo takes the default.
EXEMPT = {
    ("AcpDaemon", "http_host"),
    ("AcpClient", "timeout_s"),
}


# Behaviour switches the tutorial documents for users to turn on, which no
# benchmark or golden run exercises yet.
CONFIG_EXEMPT = {
    # per-app power caps for an MP-HARS co-run (docs/tutorial.md §14)
    ("GuardrailConfig", "app_power_caps"),
    # the modelled thermal ramp that tightens a cap (docs/tutorial.md §14)
    ("GuardrailConfig", "thermal_enabled"),
    # the queue-depth shed trigger of admission control (docs/tutorial.md §17)
    ("ResilienceConfig", "shed_queue_depth"),
}


def _closure(name: str, links: Dict[str, Set[str]]) -> Set[str]:
    """``name`` and every name reachable from it through ``links``."""
    names, todo = {name}, [name]
    while todo:
        for other in links.get(todo.pop(), ()):
            if other not in names:
                names.add(other)
                todo.append(other)
    return names


def _python_files(root: Path) -> Iterator[Path]:
    yield from sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_option_default(name: str, value: ast.expr | None) -> bool:
    """A dataclass field whose default a caller could override.

    Private fields, fields left out of ``__init__`` and ``default_factory``
    fields (a fresh container per instance, filled as the object runs) are
    state, not options.
    """
    if value is None or name.startswith("_"):
        return False
    if isinstance(value, ast.Call):
        func = value.func
        fname = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if fname == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                return False
            return "default" in keywords
    return True


class _Definition:
    __slots__ = ("callee", "where", "params", "defaulted", "is_field")

    def __init__(self, callee: str, where: str, params: List[str], defaulted: List[str],
                 is_field: bool = False):
        self.callee = callee          # the name calls use: function, method or class
        self.where = where            # "path:line" for the report
        self.params = params          # positional parameters in order (no self/cls)
        self.defaulted = defaulted    # the defaulted parameters, in order
        self.is_field = is_field      # dataclass fields rather than a signature


def _function_definition(node, owner: str | None, where: str) -> _Definition | None:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    decorators = {ast.unparse(d) for d in node.decorator_list}
    if owner is not None and "staticmethod" not in decorators and positional:
        positional = positional[1:]
    n_pos_defaults = len(args.defaults)
    defaulted = positional[len(positional) - n_pos_defaults:] if n_pos_defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if not defaulted:
        return None
    callee = owner if (owner is not None and node.name == "__init__") else node.name
    return _Definition(callee, where, positional, defaulted)


def collect_definitions() -> Tuple[List[_Definition], Dict[str, Set[str]], Set[str]]:
    """Every defaulted definition under ``src/repro``, each class's bases and
    the names of the dataclasses."""
    definitions: List[_Definition] = []
    bases: Dict[str, Set[str]] = defaultdict(set)
    dataclass_names: Set[str] = set()
    for path in _python_files(DEFINITION_ROOT):
        rel = path.relative_to(ROOT)
        tree = _parse(path)

        def visit(body, owner: str | None) -> None:
            for node in body:
                where = f"{rel}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    d = _function_definition(node, owner, where)
                    if d is not None:
                        definitions.append(d)
                    visit(node.body, None)
                elif isinstance(node, ast.ClassDef):
                    for base in node.bases:
                        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
                        if name:
                            bases[node.name].add(name)
                    if _is_dataclass(node):
                        dataclass_names.add(node.name)
                        fields: List[str] = []
                        defaulted: List[str] = []
                        for stmt in node.body:
                            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                                if "ClassVar" in ast.unparse(stmt.annotation):
                                    continue
                                fields.append(stmt.target.id)
                                if _is_option_default(stmt.target.id, stmt.value):
                                    defaulted.append(stmt.target.id)
                        if defaulted:
                            definitions.append(_Definition(
                                node.name, f"{rel}:{node.lineno}", fields, defaulted, is_field=True))
                    visit(node.body, node.name)

        visit(tree.body, None)
    return definitions, bases, dataclass_names


class _Calls(ast.NodeVisitor):
    """What the scanned call sites pass, keyed by callee name."""

    def __init__(self, subclasses: Dict[str, Set[str]], bases: Dict[str, Set[str]],
                 dataclass_names: Set[str]) -> None:
        self.keywords: Dict[str, Set[str]] = defaultdict(set)
        self.positions: Dict[str, int] = defaultdict(int)
        self.everything: Set[str] = set()        # callee names called with **kwargs
        self.all_positional: Set[str] = set()    # callee names called with *args
        self.any_callee_keywords: Set[str] = set()
        self.escaped: Set[str] = set()           # names used as values
        self.assigned: Set[str] = set()          # attribute names written after construction
        self._subclasses = subclasses
        self._bases = bases
        self._dataclasses = dataclass_names
        self._classes: List[str] = []
        self._not_values: Set[int] = set()       # ids of names that are not values

    def _callees(self, func: ast.expr) -> Set[str] | None:
        """The names a call may reach, or ``None`` when it cannot be named."""
        owner = self._classes[-1] if self._classes else None
        if isinstance(func, ast.Name):
            if func.id == "cls" and owner is not None:
                return _closure(owner, self._subclasses)
            return None if func.id in ("cls", "type") else {func.id}
        if isinstance(func, ast.Attribute):
            inner = func.value
            if isinstance(inner, ast.Call) and getattr(inner.func, "id", "") == "super":
                if owner is None:
                    return None
                if func.attr == "__init__":
                    return _closure(owner, self._bases) - {owner}
                return {func.attr}
            return {func.attr}
        return None

    def end_module(self) -> None:
        self._not_values.clear()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._not_values.update(id(b) for b in node.bases)
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def _skip_annotations(self, node) -> None:
        for sub in ast.walk(node):
            self._not_values.add(id(sub))

    def visit_arg(self, node: ast.arg) -> None:
        if node.annotation is not None:
            self._skip_annotations(node.annotation)
        self.generic_visit(node)

    def visit_FunctionDef(self, node) -> None:
        if node.returns is not None:
            self._skip_annotations(node.returns)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._skip_annotations(node.annotation)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # ``type(x) is Cls`` names a class without calling it
        if any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            for operand in [node.left, *node.comparators]:
                if isinstance(operand, (ast.Name, ast.Attribute)):
                    self._not_values.add(id(operand))
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is not None:
            self._skip_annotations(node.type)
        self.generic_visit(node)

    def visit_Call(self, call: ast.Call) -> None:
        func = call.func
        self._not_values.add(id(func))
        fname = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if fname in ("isinstance", "issubclass") and len(call.args) == 2:
            self._skip_annotations(call.args[1])
        keywords = [kw.arg for kw in call.keywords if kw.arg is not None]
        if fname == "replace":
            # dataclasses.replace(obj, field=...) sets fields of some dataclass
            for name in self._dataclasses:
                self.keywords[name].update(keywords)
            self.generic_visit(call)
            return
        names = self._callees(func)
        if names is None:
            self.any_callee_keywords.update(keywords)
            self.generic_visit(call)
            return
        n_positional = sum(1 for a in call.args if not isinstance(a, ast.Starred))
        for name in names:
            self.keywords[name].update(keywords)
            self.positions[name] = max(self.positions[name], n_positional)
            if any(kw.arg is None for kw in call.keywords):
                self.everything.add(name)
            if any(isinstance(a, ast.Starred) for a in call.args):
                self.all_positional.add(name)
        self.generic_visit(call)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self._not_values:
            self.escaped.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self._not_values:
            self.escaped.add(node.attr)
        elif isinstance(node.ctx, ast.Store):
            self.assigned.add(node.attr)
        self.generic_visit(node)


def collect_calls(subclasses, bases, dataclass_names, roots=CALLER_ROOTS) -> _Calls:
    calls = _Calls(subclasses, bases, dataclass_names)
    for root in roots:
        for path in _python_files(ROOT / root):
            tree = _parse(path)     # keep alive: _not_values holds node ids
            calls.visit(tree)
            calls.end_module()
    return calls


def unpassed_options(roots=CALLER_ROOTS, configs_only: bool = False) -> List[str]:
    """Each defaulted parameter no call under ``roots`` passes; with
    ``configs_only``, only the fields of ``*Config`` dataclasses."""
    definitions, bases, dataclass_names = collect_definitions()
    subclasses: Dict[str, Set[str]] = defaultdict(set)
    for child, parents in bases.items():
        for parent in parents:
            subclasses[parent].add(child)
    calls = collect_calls(subclasses, bases, dataclass_names, roots)
    exempt = EXEMPT | CONFIG_EXEMPT if configs_only else EXEMPT

    missing = []
    for d in definitions:
        if configs_only and not (d.is_field and d.callee.endswith("Config")):
            continue
        # a call to a subclass reaches the fields and __init__ it inherits
        names = _closure(d.callee, subclasses)
        if names & (calls.everything | calls.escaped):
            continue
        for param in d.defaulted:
            if d.is_field and param in calls.assigned:
                continue
            if (d.callee, param) in exempt or param in calls.any_callee_keywords:
                continue
            if any(param in calls.keywords.get(n, ()) for n in names):
                continue
            if param in d.params:
                index = d.params.index(param)
                if names & calls.all_positional:
                    continue
                if any(calls.positions.get(n, 0) > index for n in names):
                    continue
            missing.append(f"{d.where} {d.callee}({param})")
    return missing


def test_every_defaulted_parameter_has_a_caller():
    missing = unpassed_options()
    assert not missing, (
        "options no call passes; make each the constant it defaults to, "
        "or add the caller that needs it:\n  " + "\n  ".join(missing))


def test_every_config_field_has_a_caller_outside_unit_tests():
    missing = unpassed_options(PRODUCTION_ROOTS, configs_only=True)
    assert not missing, (
        "config fields only unit tests set; make each the constant it "
        "defaults to, or add the run that needs it:\n  " + "\n  ".join(missing))


if __name__ == "__main__":
    for line in unpassed_options():
        print(line)
    for line in unpassed_options(PRODUCTION_ROOTS, configs_only=True):
        print(line)
