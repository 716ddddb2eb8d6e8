"""Only what a command runs, and the paper checks, live in src/cremlat.

The walk parses every module with ``ast``.  Starting from the top-level
statements of ``cli.py``, it follows the names they use (``Name`` ids and
attribute names) to the top-level definitions of that name in any module,
and on through the names those use.  Matching is by name alone, so two
definitions that share a name are reached together.
"""

import ast
from pathlib import Path

import cremlat

SRC = Path(cremlat.__file__).parent

# Checks of the paper's statements that no command calls yet, with what only
# they use.  A check leaves this set once a command runs it.
PAPER_CHECKS = {
    "weyl.NoetherReport",
    "weyl.noether_report",
    "weyl.conjugate",
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


def used_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


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
