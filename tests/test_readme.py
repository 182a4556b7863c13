"""README.md agrees with the code: its ```python blocks run as written, and
its command-line block is what `superstem --help` prints."""

import re
from pathlib import Path

from superstem.cli import main

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
