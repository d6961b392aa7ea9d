"""Guard against code that only the tests reach.

Every public module-level function or class of the package must be
referenced somewhere in the package outside its own definition, and
every public method of a public class must be accessed as an attribute
somewhere in the package outside its own body.  The allowlist names the
few that exist for the tests or the benchmark on purpose, each with the
reason it stays.  Private helpers get the same check with no allowlist:
every private module-level function must be referenced, and every
private method (dunders aside) of any class accessed as an attribute,
outside its own body, so a replaced helper cannot linger.  Every
attribute the package assigns on ``self`` must be read as an attribute
somewhere in the package (matched by name), so a payload nothing reads
cannot linger either, and every name a module imports must be referenced
in that module, so neither can an import.
"""

import ast
import os

import gwcalc

PACKAGE_DIR = os.path.dirname(os.path.abspath(gwcalc.__file__))

ALLOWED = {
    "kontsevich_p2": "oracle: the closed-form plane-curve recursion "
                     "checked against the generic solver",
    "koszul_sign_permutation": "acceptance criterion 8 promises the "
                               "permutation sign",
    "split_sign": "acceptance criterion 8 promises the block-split sign",
    "GradedSeries.coefficient": "oracle: the benchmark's potentials-p2 "
                                "workload reads plane counts off the "
                                "potential with it",
    "build_potentials": "the benchmark's potentials-p2 workload and "
                        "acceptance criterion 6 build the named potentials "
                        "through it",
    "InvariantTable.provenance": "reads the tag every entry and cache "
                                 "file carries; the route tests check it, "
                                 "and a cache show breakdown by route "
                                 "(ROADMAP item 4(c)) would use it",
}


def _parse_package():
    trees = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    return trees


def _public(node, kinds):
    return isinstance(node, kinds) and not node.name.startswith("_")


def _private(node, kinds):
    name = getattr(node, "name", "")
    return (isinstance(node, kinds) and name.startswith("_")
            and not (name.startswith("__") and name.endswith("__")))


def _public_definitions(trees):
    """(module, name, first line, last line) of every public module-level
    function and class."""
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if _public(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((module, node.name, node.lineno, node.end_lineno))
    return out


def _public_methods(trees):
    """(module, class, method, first line, last line) of every public
    method of a public module-level class."""
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not _public(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if _public(node, ast.FunctionDef):
                    out.append((module, cls.name, node.name, node.lineno,
                                node.end_lineno))
    return out


def _private_definitions(trees):
    """Private module-level functions as (module, name, first line, last
    line), and private methods of module-level classes as (module, class,
    method, first line, last line); dunders aside."""
    functions, methods = [], []
    for module, tree in trees.items():
        for node in tree.body:
            if _private(node, ast.FunctionDef):
                functions.append((module, node.name, node.lineno,
                                  node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if _private(meth, ast.FunctionDef):
                        methods.append((module, node.name, meth.name,
                                        meth.lineno, meth.end_lineno))
    return functions, methods


def _references(trees):
    """(module, line, name) of every name load and attribute access."""
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                out.append((module, node.lineno, node.attr))
    return out


def _attribute_accesses(trees):
    """(module, line, name) of every attribute access."""
    return [(module, node.lineno, node.attr)
            for module, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def _used_outside(name, module, first, last, refs):
    """Whether ``refs`` name ``name`` outside lines first..last of
    ``module``."""
    return any(ref == name and not (ref_mod == module
                                    and first <= line <= last)
               for ref_mod, line, ref in refs)


def test_every_public_definition_is_used_in_the_package():
    trees = _parse_package()
    refs = _references(trees)
    unused = ["%s:%s" % (module, name)
              for module, name, first, last in _public_definitions(trees)
              if not _used_outside(name, module, first, last, refs)
              and name not in ALLOWED]
    assert not unused, "only tests reach: %s" % ", ".join(unused)


def test_every_public_method_is_used_in_the_package():
    trees = _parse_package()
    accesses = _attribute_accesses(trees)
    unused = ["%s:%s.%s" % (module, cls, name)
              for module, cls, name, first, last in _public_methods(trees)
              if not _used_outside(name, module, first, last, accesses)
              and "%s.%s" % (cls, name) not in ALLOWED]
    assert not unused, "only tests reach: %s" % ", ".join(unused)


def test_every_private_helper_is_used_in_the_package():
    trees = _parse_package()
    functions, methods = _private_definitions(trees)
    refs = _references(trees)
    unused = ["%s:%s" % (module, name)
              for module, name, first, last in functions
              if not _used_outside(name, module, first, last, refs)]
    accesses = _attribute_accesses(trees)
    unused += ["%s:%s.%s" % (module, cls, name)
               for module, cls, name, first, last in methods
               if not _used_outside(name, module, first, last, accesses)]
    assert not unused, "defined but never used: %s" % ", ".join(unused)


def test_allowlist_is_current():
    """Every allowlisted name is defined, and the package itself reaches
    none of them outside its own definition (the other guards would pass
    such a name without its entry)."""
    trees = _parse_package()
    refs = _references(trees)
    accesses = _attribute_accesses(trees)
    defined = {name: (module, first, last, refs)
               for module, name, first, last in _public_definitions(trees)}
    defined.update({"%s.%s" % (cls, name): (module, first, last, accesses)
                    for module, cls, name, first, last
                    in _public_methods(trees)})
    assert set(ALLOWED) <= set(defined)
    reached = [name for name in ALLOWED
               if _used_outside(name.split(".")[-1], *defined[name])]
    assert not reached, "the package reaches: %s" % ", ".join(reached)


def _imported_names(tree):
    """(line, name) of every name an import binds in a module, ``from
    __future__`` imports aside; ``import a.b`` binds ``a``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, (alias.asname or alias.name).split(".")[0])
                    for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, alias.asname or alias.name)
                    for alias in node.names]
    return out


def test_every_imported_name_is_used_in_its_module():
    """A name a package module imports is referenced in that module, so
    an import cannot linger after the helper it served moves away."""
    trees = _parse_package()
    unused = []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        unused += ["%s:%d:%s" % (module, line, name)
                   for line, name in _imported_names(tree)
                   if name not in loaded]
    assert not unused, "imported but never used: %s" % ", ".join(unused)


def _self_attribute_stores(trees):
    """(module, name) of every attribute assigned on ``self``."""
    return [(module, node.attr)
            for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def test_every_attribute_set_on_self_is_read_in_the_package():
    trees = _parse_package()
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unread = sorted({"%s:%s" % (module, name)
                     for module, name in _self_attribute_stores(trees)
                     if name not in loaded})
    assert not unread, "assigned but never read: %s" % ", ".join(unread)
