"""The README's Library example runs, and its CLI usage matches the parser."""

import re
from pathlib import Path

import pytest

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


# ekfcert --help at 80 columns; argparse before Python 3.10 headed the options otherwise
TOP_HELP = """usage: ekfcert [-h] {simulate,certify,compare,twin,perturb,envelope} ...

Extended Kalman filter runs with contraction-based convergence certificates

positional arguments:
  {simulate,certify,compare,twin,perturb,envelope}
    simulate            run truth + filter, report covariance bounds
    certify             emit a contraction certificate and radius series
    compare             tabulate rate/basin formulas of the two analyses
    twin                decay of two virtual trajectories under the filter
                        gain
    perturb             disturbed virtual trajectory vs the certified ball
    envelope            estimation error vs its certified envelope

options:
  -h, --help            show this help message and exit
"""
# ekfcert <command> --help at 80 columns
COMMAND_HELP = """usage: ekfcert {command} [-h] --config CONFIG [--out OUT] [--seed SEED]

options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON config file
  --out OUT        output directory
  --seed SEED      override the sampling seed
"""


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 0
    return capsys.readouterr().out


def test_the_cli_usage_names_exactly_the_parser_options(capsys, monkeypatch):
    usage = _block("CLI", "sh")
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    for command, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options, command
    listed = re.findall(r"^- `(\w+)`:", README.split("\n## CLI\n", 1)[1], re.M)
    assert listed == list(cli._HANDLERS)
    # the command table is the parser's one list of commands and their help
    monkeypatch.setenv("COLUMNS", "80")
    assert _help(["--help"], capsys) == TOP_HELP
    for command in cli._HANDLERS:
        assert _help([command, "--help"], capsys) == COMMAND_HELP.format(command=command)


def test_the_scalar_rules_table_is_the_readers_table():
    rows = re.findall(r"^\| ([a-z0-9 ,+]+) \| (`.+`) \|$", README, re.M)
    table = {name: rule.removesuffix(", +inf allowed")
             for rule, names in rows for name in re.findall(r"`(\w+)`", names)}
    assert table == model._RULES
