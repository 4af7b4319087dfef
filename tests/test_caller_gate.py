"""Caller gate: the program calls every definition and sets every option.

A function, method or class under ``src/repro`` that only tests name is
a test helper kept in the wrong place, and a defaulted parameter that
only tests pass is an option with one value in use.  This gate requires
each definition to be named, and each defaulted parameter to be passed,
by code under ``src/``, ``benchmarks/``, ``perfbench/`` or
``examples/`` (see :mod:`tests.source_index` for what counts).  Code
that only tests need lives in ``tests/``; an option that only tests
vary is a constant, of its module or its class, that the test patches.  CI runs this test in the
lint job, beside the knob gate.

Definitions: a function, method or class is used when its name appears
in the program other than on its own ``def`` or ``class`` line.  A
definition in a class body (a method, a property) counts only when
named as an attribute or a string: a bare name spelled the same is
some other variable.  Dunder methods are exempt.

Options: a defaulted parameter is set when a call matched by the
callee's name passes it, by keyword, by position, or through
``*args``/``**kwargs``.  A class's ``__init__`` is called by the class
name.  Dataclass fields are not parameters: run-config fields are the
knob gate's, and other dataclass fields are state.

The check is by name, narrowed by what a call or attribute can reach:
a bare-name call reaches functions and classes, never a method; an
attribute of an imported module outside ``repro`` reaches nothing under
``src/repro``; ``self.x`` reaches only ``x`` of the enclosing class,
its bases and the classes derived from it; and ``v.x`` after
``v = Cls(...)`` only that of ``Cls`` and its bases.  Past those rules
it errs towards passing: a name shared by two definitions counts as a
use of both.
"""

import ast
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from tests.source_index import ROOT, index, parse_tree

#: Definitions (``module.Qual.name`` under ``repro``) the program need
#: not name, with the reason.
ALLOWED_DEFINITIONS: Dict[str, str] = {
    "obs.runreport.RunReport.diff_metrics":
        "library API: README documents diffing two run reports",
    "scan.ethics.OptOutList.add_network":
        "the opt-out path (paper Appendix A.2) is a model feature no run "
        "turns on yet, as CampaignConfig.monitor_daily is",
    "service.frontend._Handler.handle":
        "socketserver calls a request handler's handle() per connection",
}

#: Defaulted parameters (``module.Qual.name(parameter)``) the program
#: need not pass, with the reason.
ALLOWED_OPTIONS: Dict[str, str] = {
    "api.serve(daemon)":
        "library API: README documents that a live daemon attached to "
        "the server gets its final checkpoint flushed on shutdown",
    "core.realtime.RealTimeScanQueue.mark_dropped(count)":
        "perfbench patches mark_dropped for core.realtime_dropped; both "
        "go when that metric is retired",
    "net.clock.VirtualClock.__init__(start)":
        "test seam: a test injects a clock that starts at a chosen time",
    "net.simnet.Network.__init__(loss_rate)":
        "test seam: the failure-injection tests build a lossy network",
    "ntp.pool.NtpPool.resolve(rng)":
        "test seam: tests draw with their own RNG to check the pool's "
        "sampler against a reference",
    "scan.engine.ScanEngine.__init__(ethics)":
        "the opt-out path (see scan.ethics.OptOutList.add_network)",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _walk_definitions(root: Path):
    """``(module, id, node, enclosing class)`` of every function,
    method and class under ``root/src/repro``."""
    package = root / "src" / "repro"
    for path, module in parse_tree(package):
        parts = path.relative_to(package).with_suffix("").parts
        prefix = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        stack = [(prefix, node, None) for node in module.body]
        while stack:
            qualname, node, klass = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qualname = f"{qualname}.{node.name}"
                yield prefix, qualname, node, klass
                inner = node if isinstance(node, ast.ClassDef) else None
                stack.extend((qualname, child, inner)
                             for child in node.body)
            else:
                stack.extend((qualname, child, klass)
                             for child in ast.iter_child_nodes(node))


def definitions(root: Path = ROOT) -> Dict[str, int]:
    """``{id: lines}`` of every non-dunder definition under
    ``root/src/repro``."""
    return {qualname: node.end_lineno - min(
                [node.lineno] + [d.lineno for d in node.decorator_list]) + 1
            for _, qualname, node, _ in _walk_definitions(root)
            if not _is_dunder(node.name)}


def _is_staticmethod(node) -> bool:
    return any(getattr(decorator, "id", None) == "staticmethod"
               for decorator in node.decorator_list)


class Option(NamedTuple):
    """A defaulted parameter; ``position`` counts the arguments a call
    passes (``self`` and ``cls`` are not counted), -1 for a
    keyword-only one.  ``klass`` is the class of a method, None for a
    function or a class's ``__init__``."""

    module: str
    callee: str
    position: int
    parameter: str
    klass: Optional[str]


def options(root: Path = ROOT) -> Dict[str, Option]:
    """``{id: option}`` of every defaulted parameter of a function or
    method under ``root/src/repro``."""
    found = {}
    for module, qualname, node, klass in _walk_definitions(root):
        if isinstance(node, ast.ClassDef):
            continue
        if _is_dunder(node.name) and node.name != "__init__":
            continue
        callee = klass.name if node.name == "__init__" else node.name
        method = (klass.name if klass is not None
                  and node.name != "__init__" else None)
        skip = 1 if klass is not None and not _is_staticmethod(node) else 0
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        first_default = len(positional) - len(arguments.defaults)
        for position, arg in enumerate(positional):
            if position >= first_default:
                found[f"{qualname}({arg.arg})"] = Option(
                    module, callee, position - skip, arg.arg, method)
        for arg, default in zip(arguments.kwonlyargs,
                                arguments.kw_defaults):
            if default is not None:
                found[f"{qualname}({arg.arg})"] = Option(
                    module, callee, -1, arg.arg, method)
    return found


def _reaches(site, option: Option) -> bool:
    """Whether a call matched by name can call the option's definition."""
    if option.klass is None:
        return site.receiver is None
    return not site.bare and (site.receiver is None
                              or option.klass in site.receiver)


def _passes(site, option: Option) -> bool:
    if not _reaches(site, option):
        return False
    if option.parameter in site.keywords or site.double_star:
        return True
    if option.position < 0:
        return False
    return site.star_at is not None or option.position < site.positional


def unnamed_definitions(root: Path = ROOT) -> Dict[str, int]:
    """Definitions the program never names, with their lines."""
    found, lines = index(root), definitions(root)
    return {qualname: lines[qualname]
            for _, qualname, node, klass in _walk_definitions(root)
            if qualname in lines and not (
                node.name in found.names if klass is None
                else node.name in found.attributes
                or klass.name in found.receivers.get(node.name, ()))}


def unset_options(root: Path = ROOT) -> List[str]:
    """Defaulted parameters no call in the program passes."""
    calls = index(root).calls
    return sorted(qualname for qualname, option in options(root).items()
                  if not any(_passes(site, option)
                             for site in calls.get(option.callee, ())))


def test_finds_the_pipeline_entry_points():
    found = definitions()
    for qualname in ("scan.engine.ScanEngine.execute_into",
                     "analysis.bundle.run_analysis"):
        assert qualname in found
        assert qualname not in unnamed_definitions()


def test_every_definition_is_named_by_the_program():
    unnamed = {qualname: lines
               for qualname, lines in unnamed_definitions().items()
               if qualname not in ALLOWED_DEFINITIONS}
    assert not unnamed, (
        f"{len(unnamed)} definitions ({sum(unnamed.values())} lines) "
        "that no code under src/, benchmarks/, perfbench/ or examples/ "
        "names (move them to tests/, delete them, or allow-list them "
        f"with a reason): {sorted(unnamed)}")


def test_every_option_is_passed_by_the_program():
    unset = [qualname for qualname in unset_options()
             if qualname not in ALLOWED_OPTIONS]
    found = options()
    modules = {found[qualname].module for qualname in unset}
    assert not unset, (
        f"{len(unset)} defaulted parameters in {len(modules)} modules "
        "that no call under src/, benchmarks/, perfbench/ or examples/ "
        "passes (make them module constants, or allow-list them with a "
        f"reason): {unset}")


def test_allow_lists_name_only_flagged_entries():
    stale = sorted(
        [name for name in ALLOWED_DEFINITIONS
         if name not in unnamed_definitions()]
        + [name for name in ALLOWED_OPTIONS if name not in unset_options()])
    assert not stale, f"allow-listed entries that are used or gone: {stale}"
    assert all(reason.strip() for reason in
               {**ALLOWED_DEFINITIONS, **ALLOWED_OPTIONS}.values())


def test_gate_flags_exactly_the_unused_on_a_small_tree(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import uncalled\n__all__ = ['uncalled']\n")
    (package / "mod.py").write_text(
        "def called():\n    return 1\n\n\n"
        "def uncalled():\n    return 2\n\n\n"
        "def configured(value, option=1):\n    return value + option\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_mod.py").write_text(
        "from repro.mod import called, configured\n\n"
        "called()\nconfigured(1)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import configured, uncalled\n\n"
        "uncalled()\nconfigured(1, option=2)\n")
    assert set(definitions(tmp_path)) == {
        "mod.called", "mod.uncalled", "mod.configured"}
    assert set(unnamed_definitions(tmp_path)) == {"mod.uncalled"}
    assert unset_options(tmp_path) == ["mod.configured(option)"]


def _small_tree(tmp_path, module: str, caller: str) -> Path:
    """A tree with ``src/repro/mod.py`` and ``examples/demo.py``."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(module)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(caller)
    return tmp_path


def test_a_method_counts_only_as_an_attribute(tmp_path):
    """A local variable spelled like a method does not name it."""
    root = _small_tree(
        tmp_path,
        "class Box:\n"
        "    def size(self):\n        return 0\n\n"
        "    def used(self):\n        return 1\n",
        "from repro.mod import Box\n\n"
        "size = 3\nprint(Box().used(), size)\n")
    assert set(unnamed_definitions(root)) == {"mod.Box.size"}


def test_a_bare_call_reaches_no_method(tmp_path):
    """A function of the caller's own spelled like a method does not
    pass the method's option."""
    root = _small_tree(
        tmp_path,
        "class Scheduler:\n"
        "    def run_all(self, limit=None):\n        return limit\n",
        "from repro.mod import Scheduler\n\n\n"
        "def run_all(args):\n    return args\n\n\n"
        "run_all(1)\nScheduler().run_all()\n")
    assert unset_options(root) == ["mod.Scheduler.run_all(limit)"]


def test_a_foreign_module_attribute_names_nothing(tmp_path):
    """``shutil.copy`` does not name a method ``copy`` of the program."""
    root = _small_tree(
        tmp_path,
        "class Registry:\n"
        "    def copy(self):\n        return Registry()\n\n"
        "    def names(self):\n        return []\n",
        "import shutil\n\nfrom repro.mod import Registry\n\n"
        "shutil.copy('a', 'b')\nprint(Registry().names())\n")
    assert set(unnamed_definitions(root)) == {"mod.Registry.copy"}


def test_a_resolved_receiver_reaches_only_its_classes(tmp_path):
    """``self.x`` reaches the enclosing class, its bases and its
    overrides; ``v.x`` after ``v = Cls(...)`` reaches ``Cls``."""
    root = _small_tree(
        tmp_path,
        "class Zone:\n"
        "    def register(self, name, now=0.0):\n        return now\n\n"
        "    def records(self):\n        return []\n\n\n"
        "class Probes:\n"
        "    def register(self, name, port=0):\n        return port\n\n"
        "    def register_all(self):\n"
        "        self.records()\n        return self.register('a', 1)\n\n\n"
        "class Actor:\n"
        "    def deploy(self):\n        return self.plan()\n\n"
        "    def plan(self):\n        return []\n\n\n"
        "class Sweep(Actor):\n"
        "    def plan(self):\n        return [1]\n",
        "from repro.mod import Probes, Sweep, Zone\n\n"
        "probes = Probes()\nprobes.register('x', 2)\nprobes.register_all()\n"
        "zone = Zone()\nzone.register('y')\nSweep().deploy()\n")
    assert set(unnamed_definitions(root)) == {"mod.Zone.records"}
    assert unset_options(root) == ["mod.Zone.register(now)"]
