"""The README's library documentation stays runnable.

Its Python example runs as written, and every backticked span in
"Library use" that starts with a call, such as `stats_report(...)`,
names something the package has: an attribute of ``qcoupler`` (a dotted
path is followed from there) or a method of a class that ``qcoupler``
exports, as in `t.doubled()`.  A removed function cannot linger in the
docs.
"""

import contextlib
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
    # a method on an instance in the text, such as t.doubled()
    classes = [v for v in vars(qcoupler).values() if isinstance(v, type)]
    return bool(rest) and any(hasattr(cls, rest[-1]) for cls in classes)


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
