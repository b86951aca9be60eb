"""README's examples run as written: every `$ cartanspaces ...` line of its
CLI section exits 0, the printed `sl(6)/sp(6)` block and the quoted
`sl(5)/sl(2)` refusal are what the commands print, and the Library snippet
gives the values its comments state."""

import ast
import re
import shlex
from pathlib import Path

from cartanspaces.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    """The text of a `## title` section, up to the next `## ` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def test_readme_examples_run_as_written(capsys):
    cli = _section("CLI")
    commands = re.findall(r"^\$ (cartanspaces .*)$", cli, re.M)
    assert len(commands) == 5
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if argv == ["compute", "sl(6)/sp(6)"]:
            printed = cli.split(f"$ {line}\n", 1)[1].split("\n\n", 1)[0]
            assert out == printed + "\n"
    refusal = re.search(r"e\.g\. `([^`]*)` for `([^`]*)`", " ".join(cli.split()))
    assert refusal.group(2) == "sl(5)/sl(2)"
    assert main(["compute", refusal.group(2)]) == 2
    assert capsys.readouterr().err.rstrip("\n").endswith(": " + refusal.group(1))

    snippet = re.search(r"```python\n(.*?)```", _section("Library"), re.S).group(1)
    scope: dict = {}
    exec(snippet, scope)
    stated = []
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, scope) == want, line
        stated.append(want)
    assert stated == [(2, 0), "sp(6)"]
