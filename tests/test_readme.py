"""The README's Library API example runs against the package as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_api_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library API\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md: Library API", "exec"), {})
    current, classification = out.getvalue().splitlines()
    assert float(current) > 0
    assert classification.split()[0] == "enaqt"
