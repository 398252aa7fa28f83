"""The README's "Library surface" import block runs against the package, so
a name removed from the library cannot linger in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_imports():
    section = README.read_text().split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(block, namespace)
    assert "merge_tensor" in namespace and "BaselineParams" in namespace
    # a baseline runs only through merge_tensor and merge_checkpoint
    assert not [name for name in namespace if name.endswith("_values")]
