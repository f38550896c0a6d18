"""The python examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_in_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"{README.name}, python block {i + 1}", "exec"), {})
