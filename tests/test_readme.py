"""The README's Library example runs, and its CLI usage matches the parser."""

import re
from pathlib import Path

import ekfcert as ek
from ekfcert import cli, model

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block of the README section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs():
    scope = {}
    exec(compile(_block("Library", "python"), "README.md", "exec"), scope)
    assert scope["cert"] == ek.make_certificate(scope["traj"], scope["hess"])
    assert scope["report"].passed


def test_the_cli_usage_names_exactly_the_parser_options():
    usage = _block("CLI", "sh")
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    for command, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options, command
    listed = re.findall(r"^- `(\w+)`:", README.split("\n## CLI\n", 1)[1], re.M)
    assert listed == list(cli._HANDLERS)


def test_the_scalar_rules_table_is_the_readers_table():
    rows = re.findall(r"^\| ([a-z0-9 ,+]+) \| (`.+`) \|$", README, re.M)
    table = {name: rule.removesuffix(", +inf allowed")
             for rule, names in rows for name in re.findall(r"`(\w+)`", names)}
    assert table == model._RULES
