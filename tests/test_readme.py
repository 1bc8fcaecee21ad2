"""The README's library example, run as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block of the README's "Library example" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    # drift in the example or in the package root's exports fails here
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.splitlines()[0] == "aborted-verification"
