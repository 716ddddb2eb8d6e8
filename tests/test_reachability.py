"""Only what a command runs, and the paper checks, live in src/cremlat.

The walk parses every module with ``ast``.  Starting from the top-level
statements of ``cli.py``, it follows the names they use to the top-level
definitions of that name in any module, and on through the names those use.
A use is a name read that no enclosing function, lambda or comprehension
binds (so a local ``points`` does not reach ``lattice.points``), or an
attribute read off a module of the package (``lattice.point``, not
``self.points``).  Matching is by name alone, so two definitions that share
a name are reached together.
"""

import ast
from pathlib import Path

import cremlat

SRC = Path(cremlat.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}

# Checks of the paper's statements that no command calls yet, with what only
# they use.  A check leaves this set once a command runs it.
PAPER_CHECKS = {
    "weyl.NoetherReport",
    "weyl.noether_report",
    "weyl.conjugate",
    "weyl.inverse",
    "weyl.element_from_images",
    "weyl.jonquieres_center",
    "weyl.halphen_class",
    "weyl.halphen_test",
    "reduction.AxisNoetherReport",
    "reduction.averaged_noether_check",
    "reduction.verify_conjugation",
    "spectral.DISPLACEMENT_FACTOR",
    "spectral.DisplacementReport",
    "spectral.axis_displacement_check",
    "spectral.cosh_distance_to_axis",
    "orbits.quadratic_charpoly",
    "orbits.quadratic_orbit_matrix",
    "orbits.quadratic_orbit_element",
    "lattice.points",
}


def top_level_definitions():
    """(module, name, node) for each function, class and assigned name at
    module level, dunder names such as ``__version__`` aside."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield path.stem, name, node


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
    """The names read that no enclosing scope binds, and the attributes read
    off a module of the package, such as ``lattice.point``."""
    if isinstance(node, SCOPES):
        local = local | local_names(node)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES):
        uses = {node.attr}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        uses = set() if node.id in local else {node.id}
    else:
        uses = set()
    for child in ast.iter_child_nodes(node):
        uses |= used_names(child, local)
    return uses


def test_every_definition_is_reached_from_the_cli_or_is_a_paper_check():
    defs = list(top_level_definitions())
    by_name = {}
    for _, name, node in defs:
        by_name.setdefault(name, []).append(node)
    cli = ast.parse((SRC / "cli.py").read_text())
    todo = set().union(*(used_names(node) for node in cli.body))
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in by_name.get(name, ()):
            todo |= used_names(node) - reached
    unreached = {f"{mod}.{name}" for mod, name, _ in defs
                 if mod != "cli" and name not in reached}
    assert unreached == PAPER_CHECKS
