"""The README's Python examples run as written.

Every fenced ``python`` block of ``README.md`` runs in document order in
one shared namespace, since a later block uses the names an earlier one
imports.  A documented call to a name the package no longer has fails
here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
