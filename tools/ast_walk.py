"""Check that a set of functions, and every function of the same module
they reach, keeps off some names and method calls.

    python tools/ast_walk.py MODULE ROOT... [--ban NAME...] [--ban-calls METHOD...]

From each ROOT, a top-level function of the Python file MODULE, the walk
follows every top-level function of MODULE that a walked function names.
A walked function is reported where it names (as a variable or an
attribute) something in --ban, or calls a method `x.METHOD(...)` in
--ban-calls; a banned name is not followed.  Prints one line per finding,
or the walked functions, and exits 1 on any finding.
"""

import argparse
import ast
import pathlib
import sys


def walk(path, roots, banned, banned_calls):
    """(findings, walked function names) of the walk described above."""
    tree = ast.parse(pathlib.Path(path).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen, found = list(roots), set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            ident = getattr(node, "id", None) or getattr(node, "attr", None)
            if ident in banned:
                found.append(f"{name}:{node.lineno} names {ident}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in banned_calls):
                found.append(f"{name}:{node.lineno} calls .{node.func.attr}")
            elif ident in defs:
                todo.append(ident)
    return found, sorted(seen)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module")
    parser.add_argument("roots", nargs="+")
    parser.add_argument("--ban", nargs="+", default=[])
    parser.add_argument("--ban-calls", nargs="+", default=[])
    args = parser.parse_args(argv)
    found, seen = walk(args.module, args.roots, set(args.ban), set(args.ban_calls))
    print("\n".join(found) or f"none of {sorted(args.ban + args.ban_calls)} in {seen}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
