"""The package namespace: every public name resolves on first access."""

import ast
import importlib
import pathlib

import pytest

import quatspin

_SUBMODULES = ("biquaternion", "matrices", "spin", "special", "spinor",
               "levels", "hydrogen", "pauli_dirac", "verify")


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
    # scipy serves the second routes, and they live in verify alone: its
    # checks and oracles, the shooting eigensolver, the Gauss-Laguerre rule
    # of the norm oracle, the radial helper and the residual probes
    src = pathlib.Path(quatspin.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        funcs = {f.name for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                assert path.name == "verify.py", path.name
        if path.name == "hydrogen.py":
            assert not {f for f in funcs if f.startswith("_shoot_")}
            assert not funcs & {"shoot_eigenvalue", "clear_shooting_cache",
                                "_radial_FG", "system_residual",
                                "ode_residual"}
        if path.name == "special.py":
            assert "gauss_laguerre_nodes" not in funcs


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
    assert params(verify.shoot_eigenvalue) == ["qn"]
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
    # each third-party module imported under src/ is declared in
    # pyproject.toml's dependencies, and each one imported under tests/ in
    # the dependencies or the test extra
    tomllib = pytest.importorskip("tomllib")
    import re
    import sys
    from importlib.metadata import packages_distributions

    root = pathlib.Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]

    def name(requirement):
        return re.match(r"[A-Za-z0-9._-]+", requirement)[0].lower().replace(
            "_", "-")

    local = {"quatspin"} | {p.stem for p in (root / "tests").glob("*.py")}
    dists = packages_distributions()
    test_extra = project["optional-dependencies"]["test"]
    for files, requirements, want in (
            ((root / "src").rglob("*.py"), [], {"numpy", "scipy"}),
            ((root / "tests").glob("*.py"), test_extra,
             {"numpy", "scipy", "pytest", "hypothesis", "mpmath"})):
        declared = {name(r) for r in project["dependencies"] + requirements}
        third_party = (_top_level_imports(files)
                       - set(sys.stdlib_module_names) - local)
        assert third_party == want
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


def test_the_names_traced_benchmark_runs_read_resolve(monkeypatch):
    # perfbench/ reads energy, radial_parameters, shoot_eigenvalue and
    # clear_shooting_cache as hydrogen attributes, some of them only in
    # traced runs (spans.TRACED, probes.py); hydrogen serves them from
    # their homes without holding them
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    spans = importlib.import_module("spans")
    from quatspin import hydrogen as hy, levels, verify
    plain = verify.shoot_eigenvalue
    with spans.installed(spans.Tracer()):
        assert hy.energy is levels.energy
        assert hy.radial_parameters is levels.radial_parameters
        # the tracer's wrapper, so that the traced span covers hy's calls
        assert hy.shoot_eigenvalue is verify.shoot_eigenvalue is not plain
        assert hy.clear_shooting_cache() is None
        assert not {"energy", "radial_parameters", "shoot_eigenvalue",
                    "clear_shooting_cache"} & set(vars(hy))
    assert hy.shoot_eigenvalue is verify.shoot_eigenvalue is plain
    with pytest.raises(AttributeError, match="no_such_name"):
        hy.no_such_name
