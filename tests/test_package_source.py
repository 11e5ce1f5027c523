"""Static checks on the package sources."""

import ast
from pathlib import Path

import expsav

SRC = Path(expsav.__file__).resolve().parent


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
    # wave steppers and Parseval sums reduce with np.einsum, whose loop is
    # fixed. nls.py keeps np.dot and np.vdot, which are 2-3x faster at its
    # catalog sizes; there its bytes match at 1 and 2 threads.
    blas = {"dot", "vdot", "inner", "matmul"}
    found = []
    for name in ("kg.py", "fourier.py", "avf.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ((isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
                    or (isinstance(node, ast.Attribute) and node.attr in blas)):
                found.append(f"{name}:{node.lineno}")
    assert found == []
