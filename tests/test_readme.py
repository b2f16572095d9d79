"""The README's Library example runs as printed, on synthetic digits."""

import re
import warnings
from pathlib import Path

import numpy as np

import spinrbm.data
from conftest import synthetic_digits

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The python block under the README's "## Library" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(monkeypatch, capsys):
    images, _ = synthetic_digits(np.random.default_rng(5), 600)
    monkeypatch.setattr(spinrbm.data, "load_idx", lambda path: images)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(library_example(), str(README), "exec"), {})
    steps = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert steps == ["0", "2", "8"]
