"""The README's examples run as written.

Its python block runs, every `--flag` it names (outside the table of
removed names) is accepted by some rolcheck subcommand, every
`rolcheck ...` line of its CLI block parses, and the names its table of
removed names lists are gone.
"""

import argparse
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import rolcheck
from rolcheck.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.S | re.M)


def _without_removed_names(text):
    # The removed-names table lists flags that are gone on purpose.
    return re.sub(r"^### Removed names\n.*?(?=^#)", "", text, flags=re.S | re.M)


def _accepted_flags(parser):
    flags = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _accepted_flags(sub)
    return flags


def test_python_block_runs():
    (block,) = _blocks("python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].verdict == "equivalent"


def test_every_named_flag_is_accepted():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _without_removed_names(README)))
    accepted = _accepted_flags(build_parser())
    assert named and named <= accepted, sorted(named - accepted)


def test_every_cli_example_parses():
    lines = [line.split("#")[0] for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("rolcheck ")]
    assert len(lines) >= 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_removed_names_are_gone():
    # The first cell of each row that lists names (it begins with a
    # backtick); a dotted name such as `LawContext.ab_dag` is an attribute,
    # not a module-level name, and is left out.
    table = re.search(r"^### Removed names\n(.*?)(?=^#)", README, re.S | re.M).group(1)
    cells = re.findall(r"^\| (`[^|]*?) \|", table, re.M)
    names = {name for cell in cells for name in re.findall(r"`([A-Za-z_]\w*)(?![\w.])", cell)}
    assert "penrose_equations" in names
    modules = [rolcheck] + [importlib.import_module(f"rolcheck.{m.name}")
                            for m in pkgutil.iter_modules(rolcheck.__path__)]
    for module in modules:
        present = names & vars(module).keys()
        assert not present, (module.__name__, sorted(present))
