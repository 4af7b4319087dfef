"""The README's library quickstart runs as printed."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    quickstart = text.split("## Quickstart", 1)[1]
    block = quickstart.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "secure share: NTP" in capsys.readouterr().out
