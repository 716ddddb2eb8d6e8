"""Only what a command runs lives in src/cremlat.

The walk parses every module with ``ast``.  Starting from the top-level
statements of ``cli.py``, it follows the names they use to the top-level
definitions they name, and on through the names those use.  A use is a name
read that no enclosing function, lambda or comprehension binds (so a local
``triple`` does not reach ``birmap.triple``), or an attribute read off a
module of the package (``lattice.point``, not ``self.points``).  Each use is
resolved to the module that defines it: a name defined in the same module,
one imported by ``from .m import name`` (or ``from . import name`` from the
package root), followed on through re-imports, or ``m.name`` on a module of
the package.  Two definitions that share a name are reached apart.  A class
is reached without its methods, dunder methods aside: each other method is
a definition of its own, reached once its class is and reached code reads
an attribute of its name (``x.json_lines``, whatever x is).
"""

import ast
from pathlib import Path

import cremlat

SRC = Path(cremlat.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}

# Definitions that no command runs but that the bench tracer, bench/tracer.py,
# names in its LAYERS and times when a command does run them.
TRACED = {
    "weyl.compose",
}


def parsed_modules():
    """{module stem: its parsed body}."""
    return {path.stem: ast.parse(path.read_text()).body for path in sorted(SRC.glob("*.py"))}


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def is_method(node):
    """Whether a statement of a class body is a method other than a dunder."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not is_dunder(node.name)


def top_level_definitions(body):
    """(name, node) for each function, class and assigned name at module
    level, dunder names such as ``__version__`` aside, and (``C.m``, node)
    for each method m of a class C that :func:`is_method` admits."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not is_dunder(name):
                yield name, node
        if isinstance(node, ast.ClassDef):
            for method in filter(is_method, node.body):
                yield f"{node.name}.{method.name}", method


def parts(node):
    """What reaching a definition reaches at once: all of a function or an
    assignment, and of a class all but the methods :func:`is_method` admits."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return (node.decorator_list + node.bases + node.keywords
            + [stmt for stmt in node.body if not is_method(stmt)])


def attributes_read(node):
    """The names of the attributes read anywhere in node."""
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def imported_names(body):
    """{name: (module, name there)} for each ``from .m import name`` and each
    ``from . import name`` of a name that is not itself a module."""
    out = {}
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    continue  # a module, whose attributes are module uses
                out[alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return out


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope):
    """The names a function, lambda or comprehension binds for itself: its
    parameters and its assignment, loop, ``with`` and comprehension targets
    (nested scopes and class bodies keep their own)."""
    args = getattr(scope, "args", None)
    names = set()
    if args is not None:
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        names = {a.arg for a in params if a is not None}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def used_names(node, local=frozenset()):
    """The names read that no enclosing scope binds, as (None, name), and the
    attributes read off a module of the package, such as ``lattice.point``,
    as (module, name)."""
    if isinstance(node, SCOPES):
        local = local | local_names(node)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES):
        uses = {(node.value.id, node.attr)}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        uses = set() if node.id in local else {(None, node.id)}
    else:
        uses = set()
    for child in ast.iter_child_nodes(node):
        uses |= used_names(child, local)
    return uses


def test_every_definition_is_reached_from_the_cli_or_is_traced():
    bodies = parsed_modules()
    defs = {}
    for mod, body in bodies.items():
        for name, node in top_level_definitions(body):
            defs.setdefault((mod, name), []).append(node)
    imports = {mod: imported_names(body) for mod, body in bodies.items()}

    def resolve(mod, name):
        """The (module, name) that defines name as seen from mod, or None
        for a builtin or a name from outside the package."""
        while (mod, name) not in defs:
            if name not in imports.get(mod, {}):
                return None
            mod, name = imports[mod][name]
        return mod, name

    def uses_in(mod, node):
        return {resolve(m or mod, name) for m, name in used_names(node)} - {None}

    def class_of(key):
        """(module, class) of a method's key, or None for another definition."""
        mod, name = key
        cls, dot, _ = name.rpartition(".")
        return (mod, cls) if dot else None

    todo = set().union(*(uses_in("cli", node) for node in bodies["cli"]))
    attrs = set().union(*map(attributes_read, bodies["cli"]))
    reached = set()
    while todo:
        key = todo.pop()
        reached.add(key)
        for node in defs[key]:
            for part in parts(node):
                todo |= uses_in(key[0], part) - reached
                attrs |= attributes_read(part)
        if not todo:  # the methods that reached code now reads
            todo = {key for key in defs if class_of(key) in reached
                    and key[1].rpartition(".")[2] in attrs} - reached
    # a method of a class that is not reached goes with its class
    owners = reached | {None}
    unreached = {f"{mod}.{name}" for mod, name in defs
                 if mod != "cli" and (mod, name) not in reached
                 and class_of((mod, name)) in owners}
    assert unreached == TRACED
