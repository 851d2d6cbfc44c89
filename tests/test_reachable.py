"""Every function, class and method in src/badlab is used by something.

A top-level function or class, or a method of a top-level class, counts
as used when its name is referenced in live code of src/badlab outside
its own body, or anywhere in perfbench/*.py (whose tracer names the
functions it wraps as strings).  Code that only unused code references
is unused too.  References are matched by name only: `.contains` anywhere
keeps every method called `contains`.  Imports do not count as uses, so
an imported but uncalled function is still reported.

Exempt are click commands (click calls them), dunder methods (Python
calls them) and `_Group.invoke` (click's hook).  The allow-list holds the
code that only tests call on purpose: reference routes a test compares
the program against, acceptance APIs, and helpers the tests build their
inputs with.  Each entry names a test that uses it.
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "badlab")

ALLOWED = {
    "lattice.naive_slab_scan":
        "oracle: test_lattice::test_pruned_equals_naive_random",
    "badness.sup_dist_to_lattice": "oracle: test_badness::"
        "test_vector_badness_integer_residues_match_rational_distances",
    "geometry.line_witness":
        "oracle: test_geometry::test_integer_line_distance_matches_lp",
    "badness.sandwich_audit":
        "acceptance API: test_acceptance::test_08_distance_sandwich",
    "badness.VectorBadnessResult.gamma_float":
        "acceptance API: test_acceptance::test_02_golden_vector_badness",
    "series.mu_strictly_increasing": "acceptance API: "
        "test_acceptance::test_07_lambda_positive_mu_increasing",
    "series.lambda_all_positive": "acceptance API: "
        "test_acceptance::test_07_lambda_positive_mu_increasing",
    "cli.config_from_echo": "report.json round trip: "
        "test_cli::test_raw_config_experiment_roundtrip",
    "geometry.vec":
        "test vectors: test_geometry::test_sup_norm_and_nearest_int",
    "presets.preset_value": "checked lookup: test_presets::test_preset_lookup",
}


def _module_name(path):
    rel = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
    return rel[: -len(".__init__")] if rel.endswith("__init__") else rel


def _is_click_command(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in (
            "command", "group"
        ):
            return True
    return False


def _definitions():
    """(qualified name, bare name, node, qualified name of the enclosing
    class or None) of every checked def."""
    out = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        mod = _module_name(path)
        tree = ast.parse(open(path, encoding="utf-8").read(), path)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            qual = f"{mod}.{node.name}"
            out.append((qual, node.name, node, None))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{qual}.{sub.name}", sub.name, sub, qual)
                           for sub in node.body
                           if isinstance(sub, ast.FunctionDef))
    return out


def _names_in(node, strings=False):
    """Bare names referenced under node (Name ids and attribute names)."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str)):
            names.extend(sub.value.split("."))
    return names


def _exempt(qual, name, node):
    return (name.startswith("__") and name.endswith("__")
            or qual == "cli._Group.invoke" or _is_click_command(node))


DEFS = _definitions()
# every def is a top-level statement or a method of one, so the top-level
# defs and classes hold every reference made in src/badlab outside
# module-level code; module-level code is added separately
_MODULE_LEVEL = Counter(
    name
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    for stmt in ast.parse(open(path, encoding="utf-8").read(), path).body
    if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    for name in _names_in(stmt)
)
_BENCH = {
    name
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
    for name in _names_in(ast.parse(open(path, encoding="utf-8").read(),
                                    path), strings=True)
}


def dead_code(roots):
    """Checked defs that nothing live references, roots kept alive.

    Code that only dead code references is dead too, so this runs to a
    fixed point.  A method of a dead class is reported as the class.
    """
    names = {qual: Counter(_names_in(node)) for qual, _, node, _ in DEFS}
    dead = set()
    while True:
        # a top-level def or class holds its methods' references, so
        # those of a dead method in a live class come back out
        live = Counter(_MODULE_LEVEL)
        for qual, _, _, cls in DEFS:
            if cls is None and qual not in dead:
                live.update(names[qual])
            elif cls is not None and qual in dead and cls not in dead:
                live.subtract(names[qual])
        new = set()
        for qual, name, node, cls in DEFS:
            if (qual in dead or cls in dead or qual in roots
                    or _exempt(qual, name, node) or name in _BENCH):
                continue
            if live[name] - names[qual][name] == 0:  # only its own body
                new.add(qual)
        if not new:
            return sorted(q for q, _, _, cls in DEFS
                          if q in dead and cls not in dead)
        dead |= new


def test_every_definition_is_referenced():
    dead = dead_code(set(ALLOWED))
    assert not dead, (
        "defined in src/badlab but referenced nowhere live in src/badlab "
        f"or perfbench: {dead}; delete it, or allow-list it with the test "
        "that uses it"
    )


def test_allow_list_is_current():
    # an entry that the program itself uses, or that no longer exists,
    # no longer needs the exemption
    stale = [q for q in ALLOWED if q not in dead_code(set(ALLOWED) - {q})]
    assert not stale, f"allow-list entries that are referenced or gone: {stale}"
