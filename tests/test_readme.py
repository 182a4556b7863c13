"""README.md agrees with the code: its ```python blocks run as written, its
command-line block is what `superstem --help` prints, and its JSON key lists
are the key table of superstem.reports."""

import re
from pathlib import Path

from superstem.cli import main
from superstem.reports import KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_command_line_block_is_the_help(capsys):
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == block.group(1)


def test_readme_json_key_lists_are_the_key_table():
    """Each bullet of the JSON reports section names a type of the key table
    and lists its JSON keys in output order; every type of the table has one."""
    section = re.search(r"^## JSON reports\n(.*?)^## ", README.read_text(encoding="utf-8"), re.M | re.S)
    listed = {}
    for bullet in re.findall(r"^- (.*?)(?=^- |^$)", section.group(1), re.M | re.S):
        head, _, keys = bullet.partition(": ")
        listed[re.match(r"`(\w+)`", head).group(1)] = re.findall(r"`(\w+)`", keys)
    assert listed == {
        kind.__name__: [key if isinstance(key, str) else key[0] for key in keys]
        for kind, keys in KEYS.items()
    }
