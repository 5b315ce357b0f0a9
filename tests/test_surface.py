"""Every name in src/geodetic has a reader outside the tests.

The package's surface is what a command, a script, the benchmark or a CI
step runs; a function, class, method or property that only the tests read
belongs in tests/oracles.py or tests/fixtures.py.  The check walks the
package with ast and keeps a definition when a live reader reads it: code at
module or class level in src/geodetic, the scripts, the benchmark, the CI
workflows, or the body of another live definition.  Its own body, the
``__init__`` exports and imports within the package do not count, so a
function read only by test-only functions is itself test-only.

Names are matched by identifier: a function or class by a bare name or an
attribute of that name, a method or property by an attribute of that name.
Where some class also stores that name as data (``self.x = ...`` or a class
field), a method counts only a call ``x.name(...)`` or a read off ``self``
in its own class, and a property only the read off ``self``.  Dunder
methods, which the interpreter calls, are read by their class.

The package's records are NamedTuples and plain classes, not dataclasses:
@dataclass generates and compiles their methods at every import, and
importing dataclasses also imports inspect, all before a command starts.
The records keep the contracts the decorator gave them.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from geodetic import PathSeq, PowerLanguageReport, SearchScope, Stabilization, solve_zx_eq_yz
from geodetic.lang import parse_forbidden_file
from geodetic.zoo import infinite_cyclic

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geodetic"


def _reads(tree: ast.AST, cls: str = "") -> set[str]:
    """What tree reads, as 'name' for a bare name or an imported one, '.attr'
    for an attribute, '.attr()' for a called attribute and, inside class cls,
    'cls.self.attr' for an attribute of self.  A string that is an identifier
    counts as a name and an attribute, since the benchmark's wrappers find
    functions and methods by name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            out.add("." + node.attr)
            if cls and isinstance(node.value, ast.Name) and node.value.id == "self":
                out.add(f"{cls}.self.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            out.add(f".{node.func.attr}()")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out |= {node.value, "." + node.value, f".{node.value}()"}
    return out


def _outside_reads() -> set[str]:
    """What the scripts, the benchmark and the CI workflows read.  A workflow's
    words count as every kind of read, less its YAML comment lines, which
    name functions they do not run."""
    out = set()
    for directory in ("scripts", "bench"):
        for path in sorted((ROOT / directory).glob("*.py")):
            out |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        lines = path.read_text(encoding="utf-8").splitlines()
        text = "\n".join(line for line in lines if not line.lstrip().startswith("#"))
        for word in set(re.findall(r"[A-Za-z_]\w*", text)):
            out |= {word, "." + word, f".{word}()"}
    return out


def _package():
    """(defs, data, top): each definition's (qualified name, name, kind, reads),
    the attribute names some class stores as data, and what the code outside
    the definitions reads.  kind is 'def', 'method' or 'property'."""
    defs, data, top = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{mod}.{node.name}", node.name, "def", _reads(node)))
            elif isinstance(node, ast.ClassDef):
                # The class reads its bases, decorators, fields and dunder methods.
                reads = set().union(*(_reads(n) for n in node.bases + node.decorator_list))
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        reads |= _reads(item)
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            data.add(item.target.id)
                    elif item.name.startswith("__") and item.name.endswith("__"):
                        reads |= _reads(item, node.name)
                    else:
                        prop = any(isinstance(d, ast.Name) and d.id == "property"
                                   for d in item.decorator_list)
                        defs.append((f"{mod}.{node.name}.{item.name}", item.name,
                                     "property" if prop else "method", _reads(item, node.name)))
                defs.append((f"{mod}.{node.name}", node.name, "def", reads))
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        data.add(sub.attr)
            elif mod != "__init__" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                top |= _reads(node)
    return defs, data, top


def _test_only_names() -> list[str]:
    """The qualified names in src/geodetic that no live reader reads."""
    defs, data, top = _package()

    def wanted(qualname: str, name: str, kind: str) -> set[str]:
        """The reads that read this definition."""
        if kind == "def":
            return {name, "." + name}
        own = qualname.split(".")[1] + ".self." + name
        if name not in data:
            return {"." + name, own}
        return {own} if kind == "property" else {f".{name}()", own}

    pending = {d[0]: (wanted(*d[:3]), d[3] - {d[1]}) for d in defs}
    frontier = [_outside_reads(), top]
    while frontier:
        reads = frontier.pop()
        for qualname, (want, own) in list(pending.items()):
            if not want.isdisjoint(reads):
                del pending[qualname]
                frontier.append(own)
    return sorted(pending)


def test_every_name_has_a_reader_outside_tests():
    assert _test_only_names() == []


def test_importing_the_cli_loads_no_dataclasses():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    assert "dataclasses" not in imported
    code = "import sys, geodetic.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


FROZEN_RECORDS = [
    (PathSeq((0, 1)), "vertices"),
    (SearchScope(), "max_pairs"),
    (infinite_cyclic()[1], "labels"),
    (parse_forbidden_file("forbidden e=2\naa\n"), "words"),
    (Stabilization(0, ((),), (), ("a",), 0, ((),)), "q"),
    (PowerLanguageReport(("a",), ((),), None), "languages"),
    (solve_zx_eq_yz(("a",), ("a",), ("a",)), "q"),
]


@pytest.mark.parametrize("record, name", FROZEN_RECORDS,
                         ids=[type(record).__name__ for record, _ in FROZEN_RECORDS])
def test_formerly_frozen_records_reject_assignment(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value
