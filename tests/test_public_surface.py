"""The package's public names resolve, and the README's library example
gives the values it states."""

import re
from pathlib import Path

import assetval

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(assetval.__all__)) == len(assetval.__all__)
    for name in assetval.__all__:
        assert getattr(assetval, name) is not None, name


def test_readme_library_example():
    """Runs the python block under "## Library"; a line `expr  # value`
    must give `value` as its repr, or a repr starting with it where the
    comment ends in "..."."""
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace: dict = {}
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if comment:
            stated.append((code.strip(), repr(eval(code, namespace)), comment.strip()))
        else:
            exec(line, namespace)
    assert [(code, want) for code, _, want in stated] == [
        ("intrinsic_value(asset, rate, age=5).amount", "71.3329..."),
        ("build_schedule(asset, Method.INTRINSIC, rate).rows[-1].book_value", "0.0"),
    ]
    for code, got, want in stated:
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (code, got)
        else:
            assert got == want, (code, got)
