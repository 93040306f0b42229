"""README's quick start runs as printed."""

import contextlib
import io
from fractions import Fraction
from pathlib import Path


def test_quick_start_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1] \
        .split("```python\n", 1)[1].split("```", 1)[0]
    names, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, names)
    fraction = names["res"].fraction_ordered
    assert isinstance(fraction, Fraction) and 0 <= fraction <= 1
    assert out.getvalue() == f"{fraction}\n"
