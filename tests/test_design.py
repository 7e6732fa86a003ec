"""Checks on the source itself: every public function and method is used by
the library, and `BraceRatio` divides nothing."""

import ast
from pathlib import Path

import framedbps

SOURCES = {path.name: ast.parse(path.read_text())
           for path in sorted(Path(framedbps.__file__).parent.glob("*.py"))}


def referenced_outside(definition, attribute_only):
    """Whether a node of `src/` outside `definition` refers to its name: an
    attribute `x.name`, or (unless `attribute_only`) a variable `name`."""
    inside = set(map(id, ast.walk(definition)))
    name = definition.name
    return any(id(node) not in inside
               and (getattr(node, "attr", None) == name
                    or not attribute_only and getattr(node, "id", None) == name)
               for tree in SOURCES.values() for node in ast.walk(tree))


def public_defs(body):
    return [node for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_public_function_and_method_is_used_by_the_library():
    unused = [f"{module}:{fn.name}" for module, tree in SOURCES.items()
              for fn in public_defs(tree.body) if not referenced_outside(fn, False)]
    unused += [f"{module}:{cls.name}.{fn.name}" for module, tree in SOURCES.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in public_defs(cls.body) if not referenced_outside(fn, True)]
    assert unused == []


def test_brace_ratio_divides_nothing():
    # every exact brace division is a table's `_div_brace`: a ratio's
    # denominator only grows
    brace_ratio, = (node for node in SOURCES["qsymbols.py"].body
                    if isinstance(node, ast.ClassDef) and node.name == "BraceRatio")
    named = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(brace_ratio)}
    assert not named & {"_div_brace", "InexactDivision"}
    assert not {fn.name for fn in public_defs(brace_ratio.body)} & {
        "reduce", "mul_poly", "is_zero", "zero"}
