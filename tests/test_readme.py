"""The README's Python API sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API sketch"):]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(sketch, str(README), "exec"), {"__name__": "readme_sketch"})
