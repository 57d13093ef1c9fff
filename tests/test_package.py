"""The package namespace: every public name resolves on first access."""

import ast
import importlib
import pathlib

import pytest

import quatspin

_SUBMODULES = ("biquaternion", "matrices", "spin", "special", "spinor",
               "levels", "hydrogen", "pauli_dirac")


def test_public_names_resolve_to_their_submodule_objects():
    modules = [importlib.import_module(f"quatspin.{m}") for m in _SUBMODULES]
    listed = dir(quatspin)
    for name in quatspin.__all__:
        assert name in listed
        if name == "verify":
            assert quatspin.verify is importlib.import_module(
                "quatspin.verify")
            continue
        homes = [m for m in modules if name in m.__all__]
        assert homes, name
        assert all(getattr(quatspin, name) is getattr(m, name)
                   for m in homes), name
    assert len(set(quatspin.__all__)) == len(quatspin.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from quatspin import *", namespace)
    assert all(namespace[n] is getattr(quatspin, n) for n in quatspin.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quatspin.no_such_name


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, which
    # the scalar subcommands would pay for on every call
    src = pathlib.Path(quatspin.__file__).parent
    files = sorted(src.glob("*.py"))
    assert len(files) >= 10
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses"
                           for n in names), path.name



def test_second_routes_live_in_verify():
    # scipy serves the second routes: verify's checks and oracles, and the
    # shooting eigensolver in hydrogen; the residual probes live in verify
    src = pathlib.Path(quatspin.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        # each node's innermost enclosing function (ast.walk goes outer first)
        owner = {id(n): f.name for f in funcs for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if path.name != "verify.py" and any(
                    n.split(".")[0] == "scipy" for n in names):
                assert path.name == "hydrogen.py", path.name
                assert owner.get(id(node), "").startswith("_shoot_")
        if path.name == "hydrogen.py":
            assert not {f.name for f in funcs} & {"system_residual",
                                                  "ode_residual"}


def test_one_formula_each():
    # the spin basis q+, q- is read in spin and spinor alone; the Laguerre
    # step loop is special._laguerre_run, and hydrogen._brackets runs it
    # once for the radial pair; l_lower is read in levels and verify alone:
    # hydrogen writes Psi = f u - h (N u) with no lower spinor, its one
    # Hamilton product (and no complex constant) in WaveFunction._psi, and
    # takes A from its closed form, with no Gauss-Laguerre rule or
    # eigen-solve; a spinor's layout (its Legendre columns, complex
    # harmonics and spin-basis assembly) is read in spinor and special alone
    src = pathlib.Path(quatspin.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        owner = {id(n): f.name for f in funcs for n in ast.walk(f)}
        read = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", None)))
                for n in ast.walk(tree)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
        if path.name not in ("spinor.py", "special.py"):
            assert not read & {"_legendre_column", "_harmonics", "_columns",
                               "_spin_basis"}, path.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("_Q_UP", "_Q_DOWN")
                    and node.attr in ("q0", "q1", "q2", "q3",
                                      "coefficients")):
                assert path.name in ("spin.py", "spinor.py"), path.name
            if isinstance(node, ast.Attribute) and node.attr == "l_lower":
                assert path.name in ("levels.py", "verify.py"), path.name
            if isinstance(node, (ast.For, ast.comprehension)):
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.iter)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if any("step" in n.lower() for n in names):
                    assert (path.name, owner.get(id(node))) == (
                        "special.py", "_laguerre_run"), path.name
        if path.name == "hydrogen.py":
            assert not [n for n in ast.walk(tree)
                        if isinstance(n, ast.Constant)
                        and isinstance(n.value, complex)]
            called = [(owner.get(id(n)),
                       getattr(n.func, "id", getattr(n.func, "attr", None)))
                      for n in ast.walk(tree) if isinstance(n, ast.Call)]
            assert [f for f, name in called if name == "mul"] == ["_psi"]
            assert called.count(("_brackets", "_laguerre_run")) == 1
            assert not {name for _, name in called} & {
                "gauss_laguerre_nodes", "eigvalsh"}
            assert "_log_radial_norm_sq" not in {f.name for f in funcs}


def test_values_derived_or_fixed_take_no_parameter():
    # the level, A and spinors follow from qn, passed from max_dev and tol;
    # the shooting bracket, the tolerance scale and the sphere rule's node
    # counts are constants
    import inspect
    from quatspin import cli, hydrogen, special, verify

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(hydrogen.WaveFunction) == ["qn"]
    assert params(hydrogen.shoot_eigenvalue) == ["qn"]
    assert params(verify.CheckResult) == ["name", "suite", "max_dev", "tol",
                                          "detail"]
    assert params(verify.run_check) == ["name", "seed"]
    assert params(verify.run_suite) == ["suite", "seed"]
    assert params(special.quadrature_sphere) == ["f"]
    assert params(verify._all_spinor_labels) == []
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--tol", "1e6"])
    assert exc.value.code == 1


def _top_level_imports(paths) -> set:
    """The top-level module of every absolute import in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared():
    # each third-party module imported under src/ or tests/ is declared in
    # pyproject.toml: in dependencies or in the test extra
    tomllib = pytest.importorskip("tomllib")
    import re
    import sys
    from importlib.metadata import packages_distributions

    root = pathlib.Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]

    def name(requirement):
        return re.match(r"[A-Za-z0-9._-]+", requirement)[0].lower().replace(
            "_", "-")

    declared = {name(r) for r in (project["dependencies"]
                                  + project["optional-dependencies"]["test"])}
    local = {"quatspin"} | {p.stem for p in (root / "tests").glob("*.py")}
    dists = packages_distributions()
    imported = _top_level_imports([*(root / "src").rglob("*.py"),
                                   *(root / "tests").glob("*.py")])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party >= {"numpy", "scipy", "pytest", "hypothesis",
                           "mpmath"}
    for module in sorted(third_party):
        provided = {name(d) for d in dists.get(module, [module])}
        assert provided & declared, f"{module} is not declared"


def test_the_script_and_python_m_call_the_same_entry():
    # [project.scripts] and __main__.py name one function, cli.run
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    script = tomllib.loads((root / "pyproject.toml").read_text())[
        "project"]["scripts"]["quatspin"]
    tree = ast.parse((root / "src" / "quatspin" / "__main__.py").read_text())
    imported = {f"quatspin.{node.module}:{alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert script == "quatspin.cli:run"
    assert imported == {script}
    assert called == {"SystemExit", "run"}
