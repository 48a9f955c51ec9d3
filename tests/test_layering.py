"""No solgeo module imports another module's private (underscore) names
or reads them as attributes, every public kernel in ``solgeo.numerics``
has a caller elsewhere in the package, the package imports exactly the
third-party packages it declares, no module imports scipy, the surface
calculus leaves finite differences to the patch and the curvature trace
to its closed form, run-time geometry reads Sol's connection from the
frame table, the obstruction polynomial is formed in exact_poly
only, the explicit family's domain is stated once, the family's partials
handle reads the profile state in one call, a profile's state (theta, f,
Psi) has one evaluator and nothing calls a per-column one, the surface
calculus never calls the immersion, the family checks read the family
through its profile, every public method of a patch or a field has a
caller outside patch.py, every dataclass field with a default is set by
some caller, ``import solgeo`` loads the geometry modules alone (the
report suites and the exact polynomials on first use), every public
name of the package is the object its defining module binds, only the
command line opens a file, and only numerics reads the float range."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "solgeo"


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "solgeo":
            continue
        for alias in node.names:
            if alias.name.startswith("_") or any(
                    part.startswith("_") for part in module.split(".")):
                yield f"{path.name}:{node.lineno} imports {alias.name} " \
                      f"from {'.' * node.level}{module}"


def test_no_cross_module_private_imports():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths
    offences = [line for path in paths for line in _private_imports(path)]
    assert offences == []


def _bound_names(tree: ast.AST):
    """Every name a module binds: its functions, classes and methods, and
    the targets of its assignments, attribute targets included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            names.add(node.attr)
    return names


def _private_attribute_reads(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = _bound_names(tree)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            continue
        name = node.attr
        if not name.startswith("_") or name.endswith("__") or name in own:
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self",
                                                                  "cls"):
            continue
        yield f"{path.name}:{node.lineno} reads {ast.unparse(node)}"


def test_no_cross_module_private_attribute_reads():
    # obj._name is read only where the reading module defines _name
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths
    offences = [line for path in paths
                for line in _private_attribute_reads(path)]
    assert offences == []


def test_every_numerics_kernel_has_a_caller():
    tree = ast.parse((PACKAGE_DIR / "numerics.py").read_text(encoding="utf-8"))
    kernels = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    assert kernels
    imported = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module == "numerics")
                    or node.module == "solgeo.numerics"):
                imported.update(alias.name for alias in node.names)
    assert sorted(kernels - imported) == []


def test_explicit_domain_is_stated_once():
    # every explicit closed form checks its input against EXPLICIT_U_MIN
    # through _require_domain, and the command line reads the same bound
    tree = ast.parse((PACKAGE_DIR / "biconservative_family.py")
                     .read_text(encoding="utf-8"))
    forms = {node.name: {_call_name(call) for call in ast.walk(node)
                         if isinstance(call, ast.Call)}
             for node in tree.body if isinstance(node, ast.FunctionDef)
             and ("explicit" in node.name or "closed_form" in node.name)}
    assert {"theta_explicit", "theta_prime_explicit", "f_explicit",
            "f_prime_explicit", "f_second_explicit", "psi_explicit",
            "_phi1_explicit", "_state_explicit",
            "gaussian_curvature_closed_form"} <= set(forms)
    assert sorted(name for name, called in forms.items()
                  if "_require_domain" not in called) == []
    assert "EXPLICIT_U_MIN" in _imported_names(PACKAGE_DIR / "cli.py")


def test_family_partials_read_the_profile_state_once():
    # the partials handle reads theta, f and Psi from one checked call
    tree = ast.parse((PACKAGE_DIR / "biconservative_family.py")
                     .read_text(encoding="utf-8"))
    family = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "family_surface")
    partials = next(node for node in ast.walk(family)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "partials")
    called = [_call_name(node) for node in ast.walk(partials)
              if isinstance(node, ast.Call)]
    assert called.count("state_at") == 1


def test_profile_state_has_one_evaluator():
    # theta, f and Psi are read together through state_at, beside Phi1,
    # f' and f''; nothing calls a per-column evaluator
    tree = ast.parse((PACKAGE_DIR / "biconservative_family.py")
                     .read_text(encoding="utf-8"))
    profile = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "ProfileSolution")
    evaluators = {node.name for node in profile.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.endswith("_at")
                  and not node.name.startswith("_")}
    assert evaluators == {"state_at", "phi1_at", "f_prime_at", "f_second_at"}
    demos = sorted((PACKAGE_DIR.parent.parent / "demos").glob("*.py"))
    assert demos
    paths = [*sorted(PACKAGE_DIR.glob("*.py")), *demos]
    offences = [f"{path.name}:{node.lineno} calls {_call_name(node)}"
                for path in paths
                for node in ast.walk(ast.parse(path.read_text(
                    encoding="utf-8")))
                if isinstance(node, ast.Call)
                and _call_name(node) in ("theta_at", "f_at", "psi_at")]
    assert offences == []


def _third_party_imports():
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - {"solgeo"})


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE_DIR.parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    declared = sorted(re.split(r"[\s<>=!~\[;]", requirement, maxsplit=1)[0]
                      for requirement in project["dependencies"])
    assert _third_party_imports() == declared


def _fresh_stdout(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    solgeo from the source tree."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_loads_no_mpmath():
    assert _fresh_stdout("import sys, solgeo; "
                         "print('mpmath' in sys.modules)") == "False"


def test_import_loads_no_scipy_module():
    code = ("import sys, solgeo.cli; "
            "print(sorted(name for name in sys.modules "
            "if name.split('.')[0] == 'scipy'))")
    assert _fresh_stdout(code) == "[]"


GEOMETRY_MODULES = ["solgeo.biconservative_family", "solgeo.numerics",
                    "solgeo.patch", "solgeo.sol_space",
                    "solgeo.surface_calculus"]
ON_FIRST_USE = ["fractions", "numpy.random", "solgeo.cli",
                "solgeo.exact_poly", "solgeo.verification"]


def test_import_loads_the_geometry_alone():
    # import solgeo loads the five geometry modules; the report suites
    # and the exact polynomials load with the first of their names
    code = (f"import sys, solgeo\n"
            f"print(sorted(m for m in sys.modules "
            f"if m.startswith('solgeo.')))\n"
            f"print([m for m in {ON_FIRST_USE!r} if m in sys.modules])\n"
            f"from solgeo import run_suite\n"
            f"print('solgeo.verification' in sys.modules)")
    assert _fresh_stdout(code).splitlines() == [
        repr(GEOMETRY_MODULES), "[]", "True"]
    # solgeo.cli loads the suites at import, so that the timed main call
    # of a `solgeo verify` run holds no import
    assert _fresh_stdout("import sys, solgeo.cli; "
                         "print('solgeo.verification' in sys.modules)") \
        == "True"


def _top_level_definitions(path: Path):
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    return names


def test_public_names_are_the_defining_modules_objects():
    import solgeo

    owners = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = "solgeo" if path.stem == "__init__" else \
            f"solgeo.{path.stem}"
        for name in _top_level_definitions(path) & set(solgeo.__all__):
            owners.setdefault(name, []).append(module)
    assert sorted(owners) == sorted(solgeo.__all__)
    for name, modules in owners.items():
        assert len(modules) == 1, (name, modules)
        defining = importlib.import_module(modules[0])
        assert getattr(solgeo, name) is getattr(defining, name), name
    star = {}
    exec("from solgeo import *", star)
    assert set(solgeo.__all__) <= set(star)
    assert set(solgeo.__all__) <= set(dir(solgeo))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(solgeo, "no_such_name")


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} imports {name}"
                         for name in names if name.split(".")[0] == "scipy")
    assert found == []


def _imported_names(path: Path):
    return {alias.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_surface_calculus_reads_partials_through_the_patch():
    # the handle-or-difference rule lives in patch.py, and the curvature
    # trace is the closed form 2 xi_3 E3
    imported = _imported_names(PACKAGE_DIR / "surface_calculus.py")
    assert imported & {"central_diff", "curvature_components"} == set()
    # the mean curvature is one ScalarField on the patch
    named = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
             if re.search(r"\bmean_curvature_d[uv]\b",
                          path.read_text(encoding="utf-8"))]
    assert named == []


def test_run_time_geometry_reads_the_frame_table_alone():
    # Sol's connection reaches the record and the frame stencils as the
    # constant frame table; the coordinate symbols are an oracle
    for name in ("surface_calculus.py", "verification.py"):
        imported = _imported_names(PACKAGE_DIR / name)
        assert imported & {"christoffel", "christoffel_contraction"} == set()
        assert "frame_connection" in imported
    # and the record and the command line never convert a tangent vector
    # to coordinate components or back
    for name in ("surface_calculus.py", "cli.py"):
        tree = ast.parse((PACKAGE_DIR / name).read_text(encoding="utf-8"))
        called = {_call_name(node) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        assert called & {"coordinates", "from_coordinates"} == set(), name


def test_record_constructor_never_calls_the_immersion():
    # in Sol's frame a vector's components and z fix every quantity of the
    # surface calculus, so no function or method there calls the immersion
    # or builds a point or a tangent vector, and only the frame table, the
    # Gram tolerance and its error come from sol_space
    tree = ast.parse((PACKAGE_DIR / "surface_calculus.py")
                     .read_text(encoding="utf-8"))
    called = {_call_name(node) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert called & {"position", "immersion", "Point",
                     "TangentVector"} == set()
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert named & {"Point", "TangentVector"} == set()
    from_sol_space = {alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      and node.module == "sol_space"
                      for alias in node.names}
    assert from_sol_space == {"frame_connection", "PLANE_GRAM_TOLERANCE",
                              "DegeneratePlaneError"}


def test_every_patch_and_field_method_has_a_caller():
    # a patch is its handles: a reader calls them and uses what they
    # return, so a method that only the tests call is a second way to read
    # a handle.  Calls inside patch.py do not count
    tree = ast.parse((PACKAGE_DIR / "patch.py").read_text(encoding="utf-8"))
    methods = {stmt.name for node in tree.body
               if isinstance(node, ast.ClassDef)
               and node.name in ("SurfacePatch", "ScalarField")
               for stmt in node.body if isinstance(stmt, ast.FunctionDef)
               and not stmt.name.startswith("_")}
    assert {"grid", "gradient", "hessian"} <= methods
    called = {node.func.attr for path in PACKAGE_DIR.glob("*.py")
              if path.name != "patch.py"
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    assert sorted(methods - called) == []


def test_verification_reads_the_obstruction_addends_from_exact_poly():
    # the combination's formula is written once, in exact_poly
    imported = _imported_names(PACKAGE_DIR / "verification.py")
    assert imported & {"obstruction_quintic", "obstruction_cubic"} == set()


def test_verification_reads_the_family_through_its_profile():
    # the family checks state every reference through the profile under
    # test; theta_prime_explicit is the one closed form they keep, as the
    # independent route of the explicit theta ODE check
    tree = ast.parse((PACKAGE_DIR / "verification.py")
                     .read_text(encoding="utf-8"))
    from_family = {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "biconservative_family"
                   for alias in node.names}
    assert from_family == {"CONSTANTS", "EXPLICIT", "ProfileSolution",
                           "build_profile", "family_surface",
                           "integrate_implicit_profile",
                           "theta_prime_explicit"}


def _dataclass_fields(tree: ast.AST):
    """(class name, [(field, has default)]) of every dataclass a module
    defines, fields in constructor order."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        yield node.name, [(stmt.target.id, stmt.value is not None)
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)]


def _call_name(call: ast.Call):
    func = call.func
    return getattr(func, "id", getattr(func, "attr", None))


def test_every_dataclass_option_is_set_by_some_caller():
    # a field with a default that no call in the package ever sets is an
    # option with one value in use: a constant.  A call sets a field by
    # keyword or by position; dataclasses.replace sets it by keyword, on
    # whichever dataclass has a field of that name.  A default that every
    # constructor call overrides is never used, so the field should be
    # required: some constructor call (replace does not count) leaves it
    # out.  RunConfig's fields are the command-line flags, set by name
    # from the parsed arguments.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    classes = {f"{module}.{name}": fields
               for module, tree in trees.items()
               for name, fields in _dataclass_fields(tree)}
    assert "patch.SurfacePatch" in classes
    del classes["cli.RunConfig"]
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset, always_set = [], []
    for qualified, fields in classes.items():
        name = qualified.split(".")[1]
        names = [field for field, _ in fields]
        set_fields, left_out = set(), set()
        for call in calls:
            if _call_name(call) == name:
                passed = set(names[:len(call.args)]) | {
                    kw.arg for kw in call.keywords}
                set_fields.update(passed)
                if not any(isinstance(arg, ast.Starred) for arg in call.args) \
                        and None not in passed:
                    left_out.update(set(names) - passed)
            elif _call_name(call) == "replace":
                set_fields.update(kw.arg for kw in call.keywords)
        unset.extend(f"{qualified}.{field}" for field, default in fields
                     if default and field not in set_fields)
        always_set.extend(f"{qualified}.{field}" for field, default in fields
                          if default and field not in left_out)
    assert unset == []
    assert always_set == []



def _nodes_outside(owner: str):
    """(file name, node) of every AST node of the package outside the
    module file ``owner``."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != owner:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def test_only_the_command_line_opens_files():
    # a library function returns its text; the command line owns --output
    offences = [f"{name}:{node.lineno}"
                for name, node in _nodes_outside("cli.py")
                if isinstance(node, ast.Call) and _call_name(node) == "open"]
    assert offences == []


def test_only_numerics_reads_the_float_range():
    # the double-range bound EXP_MAX is stated once, in numerics
    offences = [f"{name}:{node.lineno}"
                for name, node in _nodes_outside("numerics.py")
                if isinstance(node, ast.Attribute)
                and node.attr == "float_info"]
    assert offences == []
