"""Static checks on the package sources."""

import ast
import importlib
import importlib.util
import io
import tokenize
from pathlib import Path

import expsav
from expsav import fourier, nls, runner
from expsav.grids import GridSpec

SRC = Path(expsav.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_no_assert_statements():
    # python -O strips asserts, so a runtime check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_pow_with_a_constant_exponent_other_than_two():
    # products, not u**4: numpy's pow is several times slower than a product,
    # while x**2 is a square either way
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                exponent = node.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
                exponent = node.value
            else:
                continue
            try:
                value = ast.literal_eval(exponent)  # a constant, -4 included
            except ValueError:
                continue  # a name or an expression, as in 2**level
            if value != 2:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_sin_and_cos_only_in_set_up_code():
    # numpy runs float64 sin and cos through scalar libm, while its tan is
    # vectorized: per-step kernels take the half-angle tangent (catalog.py).
    # tables.py and grids.py are set-up code, building tables and symbols once
    # per run; tables.sin_over_x, pinned to an ulp of its series, also serves
    # the eavfs sine chord mean.
    set_up = {"tables.py", "grids.py"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in set_up:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a call np.sin(u) or a reference such as Gp=np.sin
            if (isinstance(node, ast.Attribute) and node.attr in ("sin", "cos")
                    and isinstance(node.value, ast.Name) and node.value.id == "np"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_blas_reductions_in_the_wave_and_transform_code():
    # OpenBLAS threads a dot product above a size threshold, and its sum order
    # (so the last bits of E_mod and of u') would follow the thread count: the
    # wave steppers, Parseval sums, tables, grids and the catalog's kernel
    # pairs reduce with np.einsum, whose loop is fixed. nls.py keeps np.dot
    # and np.vdot, which are 2-3x faster at its catalog sizes; there its bytes
    # match at 1 and 2 threads.
    blas = {"dot", "vdot", "inner", "matmul"}
    found = []
    for name in ("kg.py", "fourier.py", "avf.py", "tables.py", "grids.py", "catalog.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ((isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
                    or (isinstance(node, ast.Attribute) and node.attr in blas)):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def scoped_nodes(tree: ast.Module):
    """(dotted name of the innermost enclosing class or def, node) for every node."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            yield inner, child
            stack.append((inner, child))


def test_state_declares_what_it_carries_and_one_field_class_remains():
    # State's fields are declared; only State._keep writes to __dict__, and
    # only to seed cached properties. ComplexField is Field under a second
    # name, which bench/tracer.py still patches; nothing else may name it.
    dict_users, kept, cached, complex_field = set(), set(), set(), []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for scope, node in scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                dict_users.add(f"{path.stem}.{scope}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_keep"):
                kept.update(kw.arg for kw in node.keywords)
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "cached_property"
                    for d in node.decorator_list):
                cached.add(node.name)
            if ((isinstance(node, ast.Name) and node.id == "ComplexField")
                    or (isinstance(node, ast.Attribute) and node.attr == "ComplexField")
                    or (isinstance(node, ast.alias) and "ComplexField" in (node.name, node.asname))
                    or (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                        and node.name == "ComplexField")):
                complex_field.append(f"{path.name}: {lines[node.lineno - 1].strip()}")
    assert dict_users == {"grids.State._keep"}
    assert kept and kept <= cached
    assert complex_field == ["grids.py: ComplexField = Field"]


def test_the_eavfs_corrections_are_read_in_one_place():
    # the warm start and the kept corrections are avf._solve's protocol with
    # grids.State, which declares them: no stepper reads them on its own
    readers = {
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py")) if path.name != "grids.py"
        for scope, node in scoped_nodes(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "corrections"
    }
    assert readers == {"avf._solve"}


def test_only_grids_caches():
    # each Laplacian has one source, grids' cached eigenvalue functions, which
    # the tables and the energies share; a private cache elsewhere would be a
    # second copy that nothing ties to the first
    caches = {"lru_cache", "cache"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ((isinstance(node, ast.ImportFrom) and node.module == "functools"
                 and any(alias.name in caches for alias in node.names))
                    or (isinstance(node, ast.Attribute) and node.attr in caches
                        and isinstance(node.value, ast.Name) and node.value.id == "functools")):
                found.add(path.name)
    assert found == {"grids.py"}


def test_one_closure_reads_the_auxiliary_value():
    # both esavs families close q^{n+1/2} and q' in kg.sav_solve, the one SAV
    # core; outside grids.State, which carries q, only it and the two modified
    # energies read it
    readers = {
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py")) if path.name != "grids.py"
        for scope, node in scoped_nodes(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "q"
    }
    assert readers == {"kg.sav_solve", "kg.kg_modified_energy", "nls.nls_modified_energy"}


def test_transforms_only_in_fourier():
    # every transform passes fourier.forward_values or inverse_values, the one
    # hook bench/tracer.py counts as fourier.step_calls_per_step; grids.py
    # takes only the wavenumbers, np.fft.fftfreq, from numpy.fft
    fft_modules = ("numpy.fft", "scipy.fft")
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fourier.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                parent = parents.get(node)
                if not (path.name == "grids.py" and isinstance(parent, ast.Attribute)
                        and parent.attr == "fftfreq"):
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import) and any(
                    alias.name.startswith(fft_modules) for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith(fft_modules)
                    or (node.module in ("numpy", "scipy")
                        and any(alias.name == "fft" for alias in node.names))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_set_up_samples_on_broadcastable_coordinates():
    # a full coordinate array per axis costs a grid-sized pass for each; set-up
    # code takes the sparse meshgrid (grids.sample). GridSpec.coords keeps the
    # full arrays for callers outside the package.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for scope, node in scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            if (not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute))
                    or f"{path.stem}.{scope}" == "grids.GridSpec.coords"):
                continue
            sparse = any(kw.arg == "sparse" and isinstance(kw.value, ast.Constant)
                         and kw.value.value is True for kw in node.keywords)
            if node.func.attr == "coords" or (node.func.attr == "meshgrid" and not sparse):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_one_function_reads_the_wave_potential():
    # <G(u), 1> and G'(u) are formed in kg.potential alone, from the problem's
    # pair when it is set: set-up, step, E_orig and the eavfs q all call it
    readers = {
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in scoped_nodes(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("G", "Gp", "sum_G_and_Gp")
    }
    assert readers == {"kg.potential"}


def test_one_module_forms_the_half_spectrum_width():
    # a half spectrum keeps n_last // 2 + 1 columns of the last axis: fourier.py
    # alone forms that count, and the tables and energies read its half_rows view
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "fourier.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "[-1] // 2" in line
    ]
    assert found == []


def test_one_function_forms_the_nls_parseval_product():
    # cell/N * vdot is nls._inner; the closure and the kinetic energy call it
    path = SRC / "nls.py"
    readers = {
        f"nls.{scope}"
        for scope, node in scoped_nodes(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "vdot"
    }
    assert readers == {"nls._inner"}


def test_each_thing_has_one_name():
    # State is the NLS state, GridSpec.n its shape, and fourier.half_rows the
    # one way to the half-spectrum columns of a full-layout table; the error
    # norms and convergence orders serve the runner alone and are not exported
    assert not hasattr(nls, "NlsState") and not hasattr(GridSpec, "shape")
    assert not hasattr(fourier, "half_spectrum")
    assert len(set(expsav.__all__)) == len(expsav.__all__) == 28
    assert all(hasattr(expsav, name) for name in expsav.__all__)
    assert not {"convergence_orders", "error_norms"} & (set(expsav.__all__) | set(vars(expsav)))


def test_one_module_holds_the_run_layer():
    # runner.py builds, writes and documents the run rows and the driver rows;
    # the rows, the error norms and the orders have no module of their own
    assert not (SRC / "diagnostics.py").exists()
    assert importlib.util.find_spec("expsav.diagnostics") is None
    for row in (runner.RunRecord, runner.LadderRow, runner.CompareRow):
        assert row.__module__ == "expsav.runner"
    assert expsav.RunRecord is runner.RunRecord
    assert runner.error_norms.__module__ == "expsav.runner"
    assert "runner.error_norms" in names_the_tracer_touches()


def names_the_tracer_touches() -> set[str]:
    """module.name of every src attribute that bench/tracer.py's Tracer replaces,
    or whose class attributes it replaces, from vars() inside and outside it."""
    spec = importlib.util.spec_from_file_location("tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {path.stem: importlib.import_module(f"expsav.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}

    def snapshot():
        return {(stem, name): (value, dict(vars(value)) if isinstance(value, type) else None)
                for stem, module in modules.items() for name, value in vars(module).items()}

    outside = snapshot()
    with tracer.Tracer("sg2d_ring"):
        inside = snapshot()
    return {f"{stem}.{name}" for (stem, name), (value, attrs) in outside.items()
            if inside[stem, name][0] is not value
            or (attrs is not None and any(inside[stem, name][1][k] is not v
                                          for k, v in attrs.items()))}


def kept_for_the_tracer(path: Path, tree: ast.Module) -> set[str]:
    """Names bound by the module-level statement that each comment naming
    bench/tracer.py sits in or precedes."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    names = set()
    for line in (tok.start[0] for tok in tokens
                 if tok.type == tokenize.COMMENT and "bench/tracer.py" in tok.string):
        stmt = next(stmt for stmt in tree.body if stmt.end_lineno >= line)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        else:
            names.update(alias.asname or alias.name for alias in stmt.names)
    return {f"{path.stem}.{name}" for name in names}


def test_names_kept_for_the_benchmark_are_the_ones_its_tracer_touches():
    # CI runs no linter: the names that src/ keeps only for bench/tracer.py
    # (the unused apply_multipliers imports of avf and nls, grids.ComplexField,
    # runner.write_run_csv, avf.avf_gradient_kg) must each be one it replaces
    touched = names_the_tracer_touches()
    unread, kept = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.asname or alias.name.split(".")[0]
                    for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
                    and getattr(stmt, "module", None) != "__future__"
                    for alias in stmt.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            read |= set(expsav.__all__)  # imported to be exported
        unread |= {f"{path.stem}.{name}" for name in imported - read}
        kept |= kept_for_the_tracer(path, tree)
    assert unread <= touched
    assert kept <= touched
    assert unread <= kept
