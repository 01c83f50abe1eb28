"""README's fenced ``python`` blocks run against the package as it is, so
the documented API cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # pad with the lines above it, so a traceback gives README's line numbers
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
