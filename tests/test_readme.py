"""The README's library documentation stays runnable.

Its Python example runs as written, and every backticked span in
"Library use" that starts with a call, such as `stats_report(...)`,
names something the package has: an attribute of ``qcoupler`` (a dotted
path is followed from there) or a method of a class that ``qcoupler``
exports, as in `t.doubled()`.  So does every dotted attribute in a
backticked span outside the code blocks, such as `t.block`: an attribute
or dataclass field of an exported class.  A removed function or field
cannot linger in the docs.
"""

import contextlib
import dataclasses
import io
import pathlib
import re

import qcoupler

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(text, title):
    """The body of the level-2 section ``title``, up to the next one."""
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def resolves(path):
    head, *rest = path.split(".")
    obj = getattr(qcoupler, head, None)
    for name in rest:
        obj = getattr(obj, name, None)
    if obj is not None:
        return True
    # a method or field on an instance in the text, such as t.doubled() or t.block
    # dir() and getattr, which also reach the names loaded on first access
    classes = [v for v in (getattr(qcoupler, name) for name in dir(qcoupler))
               if isinstance(v, type)]
    return bool(rest) and any(
        hasattr(cls, rest[-1]) or dataclasses.is_dataclass(cls)
        and rest[-1] in {f.name for f in dataclasses.fields(cls)} for cls in classes)


def test_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue()


def test_library_use_names_only_existing_calls():
    text = section(README.read_text(), "Library use")
    calls = re.findall(r"`([A-Za-z_][\w.]*)\(", text)
    assert {"stats_report", "symplectic_check", "ModeSelection.parse"} <= set(calls)
    missing = sorted({c for c in calls if not resolves(c)})
    assert not missing, f"README names calls the package does not have: {missing}"


def test_library_use_names_only_existing_attributes():
    text = re.sub(r"```.*?```", "", section(README.read_text(), "Library use"), flags=re.S)
    names = {name for span in re.findall(r"`([^`]+)`", text)
             for name in re.findall(r"\b([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?![\w(])", span)}
    assert {"t.block", "t.rows", "t.U"} <= names
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, f"README names attributes the package does not have: {missing}"
