"""Design rules the library keeps, checked on its source.

Every public top-level function or class of src/squarewalls is used: named
in the library outside its own definition, by the benchmark (perfbench/*.py,
not its tests) or by the acceptance criteria. Code that only unit tests
reach is either wired into a check or deleted. TEST_SHAPES are the
exception: hand-built complexes that unit tests take from the fixture
module, beside the shapes the CLI registry serves.

The library's optional values stay at OPTIONAL_VALUES. They are counted as
the defaults of def statements plus the values given to dataclass fields.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = sorted(glob.glob(os.path.join(ROOT, "src", "squarewalls", "*.py")))

TEST_SHAPES = {"edge_sharing_pair", "double_crossing", "three_roof", "horn_overlap"}
OPTIONAL_VALUES = 17


def _trees():
    for path in SRC:
        with open(path) as fh:
            yield path, ast.parse(fh.read())


def unused_public_names() -> list:
    """(name, module file) of each public top-level function or class that
    nothing outside its definition and the unit tests names."""
    defined, named = [], set()
    for path, tree in _trees():
        defined += [(node.name, os.path.basename(path)) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    # the benchmark names library functions in strings too (its tracer's
    # targets), so its text is searched word by word
    readers = [p for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
               if not os.path.basename(p).startswith("test_")]
    readers.append(os.path.join(ROOT, "tests", "test_acceptance.py"))
    text = ""
    for path in readers:
        with open(path) as fh:
            text += fh.read()
    return sorted((name, mod) for name, mod in defined
                  if name not in named and not re.search(rf"\b{name}\b", text))


def optional_values() -> list:
    """(module file, owner, value source) of each optional value."""
    out = []
    for path, tree in _trees():
        mod = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for d in args.defaults + [d for d in args.kw_defaults if d is not None]:
                    out.append((mod, node.name, ast.unparse(d)))
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(dec) for dec in node.decorator_list):
                out += [(mod, f"{node.name}.{st.target.id}", ast.unparse(st.value))
                        for st in node.body
                        if isinstance(st, ast.AnnAssign) and st.value is not None]
    return out


def test_every_public_name_has_a_caller_beyond_unit_tests():
    unused = unused_public_names()
    extra = [(name, mod) for name, mod in unused if name not in TEST_SHAPES]
    assert not extra, (
        f"reached only from unit tests: {extra}; wire each into a check the "
        "paper needs, or delete it")
    # a test shape that gains a caller leaves the allowlist
    assert {name for name, _mod in unused} == TEST_SHAPES


def test_optional_values_do_not_grow():
    found = optional_values()
    assert len(found) == OPTIONAL_VALUES, (
        f"{len(found)} optional values, expected {OPTIONAL_VALUES}: {found}. A "
        "value that one caller sets is a constant; an option is justified only "
        "when two callers outside the tests need different values. If one went, "
        "lower OPTIONAL_VALUES to match.")
