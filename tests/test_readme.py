"""The python blocks of README.md run as written, so the sketch tracks the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python block"
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})
