"""One parse of the program's code, shared by the knob and caller gates.

Both gates ask what the program itself, not its tests, does with a
definition under ``src/repro``: the knob gate whether a run-config
field is ever set, the caller gate whether a function, method or class
is ever named and whether each of its defaulted parameters is ever
passed.  "The program" is the code under ``src/``, ``benchmarks/``,
``perfbench/`` and ``examples/``.  :func:`index` parses those
directories once per process and keeps:

* every call, keyed by the callee's name (see :func:`callee_name`);
* every identifier the code names: a name, an attribute, an imported
  name or a string that is an identifier (perfbench patches by
  string).  A re-export in a package ``__init__.py`` and an
  ``__all__`` entry name nothing: otherwise every exported name would
  count as used;
* apart, the attributes and identifier strings alone: the only ways
  code can name a method.

Everything is keyed by a root directory so a test can run the same
collectors over a small tree of its own.
"""

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

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
    whether it spreads a ``**kwargs``."""

    positional: int
    star_at: Optional[int]
    keywords: frozenset
    double_star: bool


@dataclass
class SourceIndex:
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    names: Set[str] = field(default_factory=set)
    attributes: Set[str] = field(default_factory=set)


def _is_classmethod(function: ast.AST) -> bool:
    return any(isinstance(decorator, ast.Name)
               and decorator.id == "classmethod"
               for decorator in function.decorator_list)


def _base_name(node: ast.ClassDef) -> Optional[str]:
    if not node.bases:
        return None
    base = node.bases[0]
    return base.attr if isinstance(base, ast.Attribute) \
        else getattr(base, "id", None)


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


def _call_site(call: ast.Call) -> CallSite:
    star_at = next((position for position, arg in enumerate(call.args)
                    if isinstance(arg, ast.Starred)), None)
    return CallSite(
        positional=sum(not isinstance(arg, ast.Starred)
                       for arg in call.args),
        star_at=star_at,
        keywords=frozenset(keyword.arg for keyword in call.keywords
                           if keyword.arg is not None),
        double_star=any(keyword.arg is None for keyword in call.keywords))


class _Collector(ast.NodeVisitor):
    def __init__(self, index: SourceIndex, package_init: bool):
        self.index = index
        self.package_init = package_init
        self.klass: Optional[ast.ClassDef] = None
        self.function: Optional[ast.AST] = None

    def visit_ClassDef(self, node):
        outer = self.klass, self.function
        self.klass, self.function = node, None
        self.generic_visit(node)
        self.klass, self.function = outer

    def visit_FunctionDef(self, node):
        outer = self.function
        self.function = node
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = callee_name(node, self.klass, self.function)
        if name is not None:
            self.index.calls.setdefault(name, []).append(_call_site(node))
        self.generic_visit(node)

    def visit_Name(self, node):
        self.index.names.add(node.id)

    def visit_Attribute(self, node):
        self.index.names.add(node.attr)
        self.index.attributes.add(node.attr)
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
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.index.names.add(node.value)
            self.index.attributes.add(node.value)


@functools.lru_cache(maxsize=None)
def index(root: Path = ROOT) -> SourceIndex:
    """Calls and named identifiers of the code under ``root``'s
    caller directories; built once per root and process."""
    result = SourceIndex()
    for directory in CALLER_DIRS:
        for path, module in parse_tree(root / directory):
            _Collector(result, path.name == "__init__.py").visit(module)
    return result
