"""One parse of the program's code, shared by the knob and caller gates.

Both gates ask what the program itself, not its tests, does with a
definition under ``src/repro``: the knob gate whether a run-config
field is ever set, the caller gate whether a function, method or class
is ever named and whether each of its defaulted parameters is ever
passed.  "The program" is the code under ``src/``, ``benchmarks/``,
``perfbench/`` and ``examples/``.  :func:`index` parses those
directories once per process and keeps:

* every call, keyed by the callee's name (see :func:`callee_name`),
  with whether the callee is a bare name and, for an attribute, the
  classes its receiver resolves to;
* every identifier the code names: a name, an attribute, an imported
  name or a string that is an identifier (perfbench patches by
  string).  A re-export in a package ``__init__.py`` and an
  ``__all__`` entry name nothing: otherwise every exported name would
  count as used;
* apart, the attributes and identifier strings alone: the only ways
  code can name a method.

An attribute's receiver narrows what it names:

* an attribute of an imported module outside ``repro`` (``shutil.copy``,
  ``os.path.join``) names nothing under ``src/repro``;
* ``self.x`` names ``x`` of the enclosing class, its bases and the
  classes derived from it (which may override ``x``) only;
* ``v.x``, where ``v``'s only earlier assignment in the same function
  calls a class of the program (``v = Cls(...)``), names ``x`` of
  ``Cls`` and its bases only.

Such an attribute is kept in :attr:`SourceIndex.receivers`, not among
the names.  Everything is keyed by a root directory so a test can run
the same collectors over a small tree of its own.
"""

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.lru_cache(maxsize=None)
def parse_tree(directory: Path) -> Tuple[Tuple[Path, ast.Module], ...]:
    """Every ``*.py`` file under ``directory``, parsed, in path order."""
    return tuple((path, parse(path))
                 for path in sorted(directory.rglob("*.py")))


@dataclass(frozen=True)
class CallSite:
    """What one call passes: how many leading positional arguments
    (``star_at``: the index of the first ``*args``, if any), how many
    non-starred positional arguments in all, which keywords, and
    whether it spreads a ``**kwargs``.  ``bare`` tells a call of a bare
    name (a function or class, never a method); ``receiver`` is the
    classes an attribute call's receiver resolves to, None when it does
    not resolve."""

    positional: int
    star_at: Optional[int]
    keywords: frozenset
    double_star: bool
    bare: bool
    receiver: Optional[FrozenSet[str]]


@dataclass
class SourceIndex:
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    names: Set[str] = field(default_factory=set)
    attributes: Set[str] = field(default_factory=set)
    #: Attribute name -> the classes a resolved receiver names it of.
    receivers: Dict[str, Set[str]] = field(default_factory=dict)


def _is_classmethod(function: ast.AST) -> bool:
    return any(isinstance(decorator, ast.Name)
               and decorator.id == "classmethod"
               for decorator in function.decorator_list)


def _simple_name(node: ast.expr) -> Optional[str]:
    return node.attr if isinstance(node, ast.Attribute) \
        else getattr(node, "id", None)


def _base_name(node: ast.ClassDef) -> Optional[str]:
    return _simple_name(node.bases[0]) if node.bases else None


def callee_name(call: ast.Call, klass: Optional[ast.ClassDef],
                function: Optional[ast.AST]) -> Optional[str]:
    """The name a call is matched by: the callee's bare or attribute
    name, with ``cls(...)`` in a classmethod resolved to its class and
    ``super().__init__(...)`` to the class's first base (a class's
    ``__init__`` is keyed by the class name)."""
    func = call.func
    if isinstance(func, ast.Name):
        if (func.id == "cls" and klass is not None
                and function is not None and _is_classmethod(function)):
            return klass.name
        return func.id
    if isinstance(func, ast.Attribute):
        if (func.attr == "__init__" and klass is not None
                and isinstance(func.value, ast.Call)
                and getattr(func.value.func, "id", None) == "super"):
            return _base_name(klass)
        return func.attr
    return None


def _call_site(call: ast.Call,
               receiver: Optional[FrozenSet[str]]) -> CallSite:
    star_at = next((position for position, arg in enumerate(call.args)
                    if isinstance(arg, ast.Starred)), None)
    return CallSite(
        positional=sum(not isinstance(arg, ast.Starred)
                       for arg in call.args),
        star_at=star_at,
        keywords=frozenset(keyword.arg for keyword in call.keywords
                           if keyword.arg is not None),
        double_star=any(keyword.arg is None for keyword in call.keywords),
        bare=isinstance(call.func, ast.Name),
        receiver=receiver)


def _class_edges(root: Path) -> Tuple[Dict[str, Set[str]],
                                      Dict[str, Set[str]]]:
    """Every class of the program, by name, with its bases' names; and
    every base with the names of the classes derived from it."""
    bases: Dict[str, Set[str]] = {}
    derived: Dict[str, Set[str]] = {}
    for directory in CALLER_DIRS:
        for _, module in parse_tree(root / directory):
            for node in ast.walk(module):
                if isinstance(node, ast.ClassDef):
                    parents = set(filter(None, map(_simple_name,
                                                   node.bases)))
                    bases.setdefault(node.name, set()).update(parents)
                    for parent in parents:
                        derived.setdefault(parent, set()).add(node.name)
    return bases, derived


def _closure(name: str, edges: Dict[str, Set[str]]) -> FrozenSet[str]:
    """``name`` and every name reachable from it along ``edges``."""
    found: Set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current not in found:
            found.add(current)
            stack.extend(edges.get(current, ()))
    return frozenset(found)


def _foreign_modules(module: ast.Module) -> Set[str]:
    """Names a file binds to imported modules outside ``repro``."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(module) if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name.split(".")[0] != "repro"}


class _Collector(ast.NodeVisitor):
    def __init__(self, index: SourceIndex, package_init: bool,
                 edges: Tuple[Dict[str, Set[str]], Dict[str, Set[str]]],
                 foreign: Set[str]):
        self.index = index
        self.package_init = package_init
        self.bases, self.derived = edges
        self.foreign = foreign
        self.klass: Optional[ast.ClassDef] = None
        self.function: Optional[ast.AST] = None
        #: Variables of the current function -> the classes their one
        #: assignment so far made them an instance of (None: assigned
        #: anything else, or more than once).
        self.bound: Dict[str, Optional[FrozenSet[str]]] = {}

    def visit_ClassDef(self, node):
        outer = self.klass, self.function, self.bound
        self.klass, self.function, self.bound = node, None, {}
        self.generic_visit(node)
        self.klass, self.function, self.bound = outer

    def visit_FunctionDef(self, node):
        outer = self.function, self.bound
        self.function, self.bound = node, {}
        self.generic_visit(node)
        self.function, self.bound = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _receiver(self, node: ast.Attribute) -> Optional[FrozenSet[str]]:
        """The classes ``node``'s receiver resolves to: none for an
        imported module outside ``repro``, None when unresolved."""
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in self.foreign:
            return frozenset()
        if not isinstance(node.value, ast.Name):
            return None
        if node.value.id == "self" and self.klass is not None:
            return (_closure(self.klass.name, self.bases)
                    | _closure(self.klass.name, self.derived))
        return self.bound.get(node.value.id)

    def _instance_of(self, value: ast.expr) -> Optional[FrozenSet[str]]:
        """The classes ``value`` is an instance of, when it is a call of
        a class of the program (not through a foreign module)."""
        if not isinstance(value, ast.Call):
            return None
        name = callee_name(value, self.klass, self.function)
        if name not in self.bases or (
                isinstance(value.func, ast.Attribute)
                and self._receiver(value.func) is not None):
            return None
        return _closure(name, self.bases)

    def _assign(self, targets, value: ast.expr) -> None:
        """Visit assignment targets; a plain name first assigned a class
        call is bound to that class."""
        instance = self._instance_of(value)
        for target in targets:
            if (isinstance(target, ast.Name) and instance is not None
                    and target.id not in self.bound):
                self.index.names.add(target.id)
                self.bound[target.id] = instance
            else:
                self.visit(target)

    def visit_Call(self, node):
        name = callee_name(node, self.klass, self.function)
        if name is not None:
            receiver = (self._receiver(node.func)
                        if isinstance(node.func, ast.Attribute) else None)
            self.index.calls.setdefault(name, []).append(
                _call_site(node, receiver))
        self.generic_visit(node)

    def visit_Name(self, node):
        self.index.names.add(node.id)
        if isinstance(node.ctx, ast.Store):
            self.bound[node.id] = None

    def visit_Attribute(self, node):
        receiver = self._receiver(node)
        if receiver is None:
            self.index.names.add(node.attr)
            self.index.attributes.add(node.attr)
        else:
            self.index.receivers.setdefault(node.attr, set()).update(
                receiver)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if self.package_init:
            return
        self.visit_Import(node)

    def visit_Import(self, node):
        for alias in node.names:
            self.index.names.update(alias.name.split("."))

    def visit_Assign(self, node):
        if any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in node.targets):
            return
        self.visit(node.value)
        self._assign(node.targets, node.value)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.index.names.add(node.value)
            self.index.attributes.add(node.value)


@functools.lru_cache(maxsize=None)
def index(root: Path = ROOT) -> SourceIndex:
    """Calls and named identifiers of the code under ``root``'s
    caller directories; built once per root and process."""
    result = SourceIndex()
    edges = _class_edges(root)
    for directory in CALLER_DIRS:
        for path, module in parse_tree(root / directory):
            _Collector(result, path.name == "__init__.py", edges,
                       _foreign_modules(module)).visit(module)
    return result
