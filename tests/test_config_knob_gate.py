"""Knob gate: every field of a run config is set by some caller.

A field of a ``*Config`` dataclass under ``src/repro`` that no program
ever sets is a constant with extra steps: it widens the stored config,
needs validation and documentation, and suggests a knob nobody turns.
This gate requires each field to be passed, by keyword or by position,
to a construction of its class somewhere under ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/`` (tests do not count:
a knob only tests turn belongs in the test, as a constant it patches).

``world/devices.py`` is exempt: its ``WebConfig``, ``SshConfig``,
``BrokerConfig`` and ``CoapConfig`` hold per-device state, not run
settings.  CI runs this test in the lint job.

The check is AST-based: a construction is a call whose callee is the
class name, bare or as an attribute (``api.EcosystemConfig(...)``).
It reads the parse and call index it shares with the caller gate
(:mod:`tests.source_index`).
"""

import ast

from tests.source_index import ROOT, index, parse_tree

SRC = ROOT / "src" / "repro"

#: Modules (relative to src/repro) whose ``*Config`` classes are exempt.
EXEMPT_MODULES = ("world/devices.py",)

#: ``Class.field`` names allowed to stay unset, with the reason.
ALLOWED = {
    "CampaignConfig.monitor_daily": (
        "the only way to run the pool's daily health monitoring; "
        "removing it would leave the monitor reachable only from tests, "
        "which is a model decision of its own"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _config_fields():
    """``{class name: [field, ...]}`` of every run-config dataclass."""
    configs = {}
    for path, module in parse_tree(SRC):
        if path.relative_to(SRC).as_posix() in EXEMPT_MODULES:
            continue
        for node in ast.walk(module):
            if (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")
                    and _is_dataclass(node)):
                configs[node.name] = [
                    statement.target.id for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)]
    return configs


def _set_fields(configs):
    """``Class.field`` names some construction under the caller
    directories passes."""
    seen = set()
    calls = index().calls
    for name, fields in configs.items():
        for site in calls.get(name, ()):
            for field in fields[:site.positional]:
                seen.add(f"{name}.{field}")
            seen.update(f"{name}.{keyword}" for keyword in site.keywords)
    return seen


def test_finds_the_run_configs():
    configs = _config_fields()
    assert {"WorldConfig", "CampaignConfig", "ExperimentConfig",
            "ServiceConfig"} <= set(configs)
    assert "WebConfig" not in configs
    assert "seed" in configs["WorldConfig"]


def test_every_config_field_is_set_by_a_caller():
    configs = _config_fields()
    seen = _set_fields(configs)
    unset = sorted(f"{name}.{field}" for name, fields in configs.items()
                   for field in fields
                   if f"{name}.{field}" not in seen
                   and f"{name}.{field}" not in ALLOWED)
    assert not unset, (
        "config fields no caller under src/, benchmarks/, perfbench/ or "
        "examples/ sets (make them module constants, or allow-list them "
        f"with a reason): {unset}")


def test_allow_list_names_only_unset_fields():
    configs = _config_fields()
    seen = _set_fields(configs)
    stale = sorted(name for name in ALLOWED
                   if name in seen
                   or name.split(".")[1] not in configs.get(
                       name.split(".")[0], ()))
    assert not stale, f"allow-listed fields that are set or gone: {stale}"
