#!/usr/bin/env python3
"""The keyword and caller censuses: what does production code use?

    python tools/knob_census.py src/repro
    python tools/knob_census.py --callers src/repro

The keyword census prints one
``path:line function keyword production|tests-only|nobody``
row per defaulted parameter of every function, method and constructor
under the given paths, then one line of totals.  ``production`` means
a call under the census paths themselves or under ``bench/``,
``benchmarks/`` or ``examples/`` passes the parameter a value other
than its default; ``tests-only`` that only a call under ``tests/``
does; ``nobody`` that no call anywhere does.  ``tests/test_code_budget.py`` ratchets the last two.

AST only; nothing is imported, so the answer errs towards "set":

* A callee is resolved by its last name (``f(...)``, ``x.f(...)``,
  ``Class(...)`` and ``super().__init__(...)`` for a constructor,
  inherited ones through base-class names), and a call binds against
  every definition of that name, by position and by keyword.
* A value whose source text equals the default's (``step_offset=0``
  against ``step_offset=0``) does not count as setting it.
* A keyword that cannot be bound counts as set for *every* function
  that has it: the callee has no definition in the tree, or is a local
  variable or parameter (``generator = GENERATORS[name]``), or takes it
  through ``**kwargs``.  The same holds for what may become a keyword
  later: ``dict(k=v)``, a ``{"k": v}`` literal, a ``d["k"] = v`` store.
* ``f(*args)`` sets every positional parameter of ``f``.

The caller census (``--callers``) is the same question one level up:
it prints one ``path:line name`` row per top-level public function or
class under the given paths that nothing reaches from those paths,
``bench/``, ``benchmarks/``, ``examples/`` or ``.github/workflows``,
then a count.  ``tests/test_code_budget.py`` ratchets the rows too.
A name is reached by a load of it or of an attribute spelled the same
(``f``, ``x.f``) outside its own body, by a ``"module:name"`` string
(a trial runner's reference), or by the word in a workflow file.  An
import is not a use, so a package ``__init__`` that re-exports a name
does not reach it.
"""

import argparse
import ast
import collections
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from code_lines import python_files  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRODUCTION = ("bench", "benchmarks", "examples")
WORKFLOWS = os.path.join(".github", "workflows")
TESTS = ("tests",)
STATUSES = ("production", "tests-only", "nobody")

Row = collections.namedtuple("Row", ["path", "line", "function", "keyword", "status"])
Unreached = collections.namedtuple("Unreached", ["path", "line", "name"])


class _Definition:
    """One callable signature: what a call by ``name`` binds against."""

    def __init__(self, path, node, qualname, name, bound):
        self.path = path
        self.qualname = qualname
        self.name = name
        spec = node.args
        positional = spec.posonlyargs + spec.args
        defaults = [None] * (len(positional) - len(spec.defaults)) + spec.defaults
        if bound:  # self / cls is supplied by the call's receiver
            positional, defaults = positional[1:], defaults[1:]
        self.positional = [arg.arg for arg in positional]
        self.lines = {arg.arg: arg.lineno for arg in positional + spec.kwonlyargs}
        self.defaults = {
            arg.arg: ast.dump(default)
            for arg, default in zip(positional + spec.kwonlyargs,
                                    defaults + spec.kw_defaults)
            if default is not None
        }

    def sets(self, keyword, value):
        """True when passing ``value`` for ``keyword`` leaves the default."""
        default = self.defaults.get(keyword)
        return default is not None and ast.dump(value) != default


def _is_static(node):
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    )


class _Definitions(ast.NodeVisitor):
    """Collect every signature of one file, constructors under their class."""

    def __init__(self, path):
        self.path = path
        self.found = []
        self.bases = {}  # class name -> base-class names
        self._scope = []  # (kind, name)

    def visit_ClassDef(self, node):
        self.bases[node.name] = [
            base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            for base in node.bases
        ]
        self._scope.append(("class", node.name))
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node):
        in_class = bool(self._scope) and self._scope[-1][0] == "class"
        prefix = ".".join(name for _kind, name in self._scope)
        if in_class and node.name == "__init__":
            name, qualname = self._scope[-1][1], prefix
        else:
            name = node.name
            qualname = prefix + "." + name if prefix else name
        bound = in_class and not _is_static(node)
        self.found.append(_Definition(self.path, node, qualname, name, bound))
        self._scope.append(("def", node.name))
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


_SUPER = ast.dump(ast.parse("super()", mode="eval").body)


class _Calls(ast.NodeVisitor):
    """Record, for one file, what its calls set.

    ``bound`` collects ``(definition, keyword)``; ``loose`` collects
    ``(keyword, value)`` pairs that no definition could take directly
    and that therefore count against every function with that keyword.
    """

    def __init__(self, by_name, bases, bound, loose):
        self.by_name = by_name
        self.bases = bases
        self.bound = bound
        self.loose = loose
        self._locals = [set()]
        self._classes = []

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def _visit_function(self, node):
        names = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                names.add(child.id)
        self._locals.append(names)
        self.generic_visit(node)
        self._locals.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_function

    def _definitions(self, func):
        """Every definition the callee expression ``func`` may name."""
        if isinstance(func, ast.Attribute):
            if (func.attr == "__init__" and self._classes
                    and ast.dump(func.value) == _SUPER):
                return [
                    definition
                    for base in self.bases.get(self._classes[-1], ())
                    for definition in self.by_name.get(base, ())
                ]
            return self.by_name.get(func.attr, ())
        if isinstance(func, ast.Name) and not any(
            func.id in names for names in self._locals[1:]
        ):
            return self.by_name.get(func.id, ())
        return ()

    def visit_Call(self, node):
        definitions = self._definitions(node.func)
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            takers = [d for d in definitions if keyword.arg in d.lines]
            if not takers:
                self.loose.append((keyword.arg, keyword.value))
            for definition in takers:
                if definition.sets(keyword.arg, keyword.value):
                    self.bound.add((definition, keyword.arg))
        for definition in definitions:
            for index, value in enumerate(node.args):
                if isinstance(value, ast.Starred):
                    self.bound.update(
                        (definition, name) for name in definition.positional[index:]
                    )
                    break
                if index >= len(definition.positional):
                    break
                name = definition.positional[index]
                if definition.sets(name, value):
                    self.bound.add((definition, name))
        self.generic_visit(node)

    def visit_Dict(self, node):
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.loose.append((key.value, value))
        self.generic_visit(node)

    def visit_Assign(self, node):
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)):
                self.loose.append((target.slice.value, node.value))
        self.generic_visit(node)


def _parse(paths):
    for path in python_files(paths):
        with open(path, encoding="utf-8") as handle:
            yield path, ast.parse(handle.read(), filename=path)


def _set_by(paths, definitions, by_name, bases):
    """The ``(definition, keyword)`` pairs some call under ``paths`` sets."""
    bound, loose = set(), []
    for _path, tree in _parse(paths):
        _Calls(by_name, bases, bound, loose).visit(tree)
    for keyword, value in loose:
        bound.update(
            (definition, keyword) for definition in definitions
            if definition.sets(keyword, value)
        )
    return bound


def census(paths, production=(), tests=()):
    """One :class:`Row` per defaulted parameter defined under ``paths``.

    Calls under ``paths`` and ``production`` make a parameter
    ``production``; calls under ``tests`` make the rest ``tests-only``.
    """
    definitions, bases = [], {}
    for path, tree in _parse(paths):
        collector = _Definitions(path)
        collector.visit(tree)
        definitions.extend(collector.found)
        bases.update(collector.bases)
    by_name = collections.defaultdict(list)
    for definition in definitions:
        by_name[definition.name].append(definition)
    for name in bases:  # a class without __init__ is built by a base's
        pending = list(bases[name])
        while pending and name not in by_name:
            base = pending.pop(0)
            if base in by_name:
                by_name[name] = by_name[base]
            pending.extend(bases.get(base, ()))
    in_production = _set_by(
        list(paths) + list(production), definitions, by_name, bases
    )
    in_tests = _set_by(tests, definitions, by_name, bases)
    rows = []
    for definition in definitions:
        for keyword in definition.defaults:
            key = (definition, keyword)
            status = ("production" if key in in_production
                      else "tests-only" if key in in_tests else "nobody")
            rows.append(Row(definition.path, definition.lines[keyword],
                            definition.qualname, keyword, status))
    return sorted(rows)


_RUNNER_REFERENCE = re.compile(r"^[\w.]+:(\w+)$")


def _reached(tree):
    """Every name ``tree`` reaches, less loads inside the definition of
    the same name (a recursive call or a class naming itself)."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _RUNNER_REFERENCE.match(node.value)
            if match:
                names[match.group(1)] += 1
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = sum(
                1 for child in ast.walk(node)
                if (isinstance(child, ast.Name) and child.id == node.name
                    and isinstance(child.ctx, ast.Load))
                or (isinstance(child, ast.Attribute) and child.attr == node.name)
            )
            names[node.name] -= inside
    return {name for name, count in names.items() if count > 0}


def callers_census(paths, production=(), texts=()):
    """One :class:`Unreached` per top-level public function or class
    defined under ``paths`` that no code under ``paths`` or
    ``production`` and no word of a file under ``texts`` reaches."""
    defined, reached = [], set()
    for path, tree in _parse(paths):
        defined.extend(
            Unreached(path, node.lineno, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )
    for _path, tree in _parse(list(paths) + list(production)):
        reached |= _reached(tree)
    for directory in texts:
        for dirpath, _dirnames, filenames in os.walk(directory):
            for filename in filenames:
                with open(os.path.join(dirpath, filename), encoding="utf-8") as handle:
                    reached.update(re.findall(r"\w+", handle.read()))
    return sorted(row for row in defined if row.name not in reached)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="where the definitions live")
    parser.add_argument("--callers", action="store_true",
                        help="list the public names nothing reaches instead")
    args = parser.parse_args(argv)
    production = [os.path.join(ROOT, name) for name in PRODUCTION]
    if args.callers:
        rows = callers_census(args.paths, production, [os.path.join(ROOT, WORKFLOWS)])
        for row in rows:
            print("{}:{} {}".format(*row))
        print("{} unreached".format(len(rows)))
        return 0
    rows = census(
        args.paths, production, [os.path.join(ROOT, name) for name in TESTS]
    )
    for row in rows:
        print("{}:{} {} {} {}".format(*row))
    counts = collections.Counter(row.status for row in rows)
    print("  ".join("{} {}".format(counts[s], s) for s in STATUSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
