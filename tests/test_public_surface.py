"""Every public name the package defines has a caller in the package.

A public top-level function or class, or a public member of a class,
that nothing in `src/nlgauge` outside `__init__.py` refers to is dead
code, unless the benchmark's tracer patches it by name; a test's own
reference lives in `tests/references.py`, not in the package. A private
top-level function that nothing in the package refers to is dead code.
Every member the benchmark's tracer patches by name exists, every
parameter of a function in the package is read in its body, and no
oracle reaches, within its own module, the path it is checked against.
"""

import ast
import importlib
from pathlib import Path

import pytest

import nlgauge

PACKAGE = Path(nlgauge.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _class_members(cls: ast.ClassDef):
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def _unreferenced_names() -> tuple[set[str], set[str]]:
    """(public names, private top-level functions) that nothing in the
    package outside `__init__.py` refers to."""
    defined, private_functions, referenced = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                private_functions.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(_class_members(node))
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    public = {name for name in defined - referenced if not name.startswith("_")}
    return public, private_functions - referenced


def test_every_public_name_has_a_caller_or_a_reason():
    # the tracer reads each pinned member from its owner's __dict__ and
    # fails on a missing one, so a pinned name stays without a caller
    pinned = ({name for _, _, name in _tracing_constant("CLASS_MEMBERS")}
              | {name for _, name in _tracing_constant("PRIVATE_FUNCTIONS")})
    assert _unreferenced_names()[0] - pinned == set()


def test_every_private_function_has_a_caller():
    assert _unreferenced_names()[1] == set()


def _unread_parameters() -> list[str]:
    """`module.function.parameter` for each parameter of a function or
    lambda in the package that its body never reads; `self` and `cls` are
    exempt."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.stem}.{name}.{p}" for p in params
                       if p not in read | {"self", "cls"}]
    return unread


def test_every_parameter_is_read():
    # no allowlist: a parameter nothing reads is deleted with its arguments
    assert _unread_parameters() == []


def _tracing_constant(name: str):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACING.name}")


def test_every_member_the_tracer_patches_exists():
    # the tracer reads each from its owner's __dict__, so a renamed member
    # would fail only in a traced benchmark run
    for module, name in _tracing_constant("PRIVATE_FUNCTIONS"):
        assert name in vars(importlib.import_module(f"nlgauge.{module}")), name
    for module, cls, name in _tracing_constant("CLASS_MEMBERS"):
        owner = getattr(importlib.import_module(f"nlgauge.{module}"), cls)
        assert name in vars(owner), f"{cls}.{name}"


# oracle -> what it must not reach, since it exists to be checked against it
ORACLES = {
    ("sn", "line_ground_scf"): {"stationary_solve", "smallest_eigenpair",
                                "tridiagonal_ground",
                                "poisson_solve", "gauss_solve_stationary",
                                "hamiltonian", "apply_hamiltonian_raw"},
    ("sn", "sn_ground_radial_shoot"): {"sn_ground_radial_scf", "_tridiag_ground",
                                       "tridiagonal_ground",
                                       "_potential_from_u_quadrature"},
    # the functional path's Neumann Laplacian and stencil
    ("sn", "poisson_1d_neumann"): {"poisson_solve", "link_divergence",
                                   "link_diff", "hamiltonian"},
    ("verify", "stationarity_residual"): {"stationary_solve",
                                          "gauss_solve_stationary",
                                          "smallest_eigenpair",
                                          "tridiagonal_ground"},
}


def _reached_names(module: str, root: str) -> set[str]:
    """Every name that `root` refers to, following each one that its
    module defines (top-level functions and classes, and class members)
    transitively."""
    defs = {}
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    defs.setdefault(member.name, []).append(member)
    reached, todo = set(), [root]
    while todo:
        for node in defs.get(todo.pop(), []):
            for n in ast.walk(node):
                name = (n.id if isinstance(n, ast.Name)
                        else n.attr if isinstance(n, ast.Attribute) else None)
                if name is not None and name not in reached:
                    reached.add(name)
                    todo.append(name)
    return reached


@pytest.mark.parametrize("module, oracle", list(ORACLES))
def test_oracles_stay_independent_of_what_they_check(module, oracle):
    assert _reached_names(module, oracle) & ORACLES[module, oracle] == set()
