"""Source rules on the library: every operator norm and every eigen- and
singular value decomposition is taken in opcore, every tolerance is named
once, in opcore's table, and every JSON object's keys are read by
jsonkeys' one reader.

Each rule reads one module's source and returns its (line, finding) pairs,
so the tests feed it the library's own files and planted violations alike.
"""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "ovmkit"


def spectra_outside_opcore(name: str, source: str) -> list[tuple[int, str]]:
    """opcore.op_norms is the one operator-norm rule, and every eigen- and
    singular value decomposition, with its 2^k rule, is taken in opcore:
    no other module names eigvalsh, eigh, svd or opcore._pow2_scales, or
    calls np.linalg.norm(..., 2)."""
    if name == "opcore.py":
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        named = (node.attr if isinstance(node, ast.Attribute)
                 else node.name if isinstance(node, ast.alias) else getattr(node, "id", None))
        if named in ("eigvalsh", "eigh", "svd", "_pow2_scales"):
            found.append((node.lineno, named))
        if not isinstance(node, ast.Call):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "norm"
                and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"):
            order = node.args[1] if len(node.args) > 1 else kw.get("ord")
            if isinstance(order, ast.Constant) and order.value == 2:
                found.append((node.lineno, "linalg.norm(..., 2)"))
    return found


def _floors(expr):
    """The max(1, .) and np.maximum(1, .) calls in ``expr``."""
    for node in ast.walk(expr):
        if (isinstance(node, ast.Call)
                and (isinstance(node.func, ast.Name) and node.func.id == "max"
                     or isinstance(node.func, ast.Attribute) and node.func.attr == "maximum")
                and any(isinstance(arg, ast.Constant) and type(arg.value) in (int, float)
                        and arg.value == 1 for arg in node.args)):
            yield node


def _names_constant(expr) -> bool:
    """Does ``expr`` name a table constant ("TOL" or "RCOND" in the name)?
    WIDTH_TOL is exempt: it is floored at 1 in the sample space's units,
    not a measure's scale."""
    for node in ast.walk(expr):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        if isinstance(name, str) and name != "WIDTH_TOL" and ("TOL" in name or "RCOND" in name):
            return True
    return False


def tolerances_outside_table(name: str, source: str) -> list[tuple[int, str]]:
    """Every library tolerance is named once, in opcore's module-level
    constants: no other float literal with 0 < |x| < 1e-5 appears (demos.py
    and cli.py are exempt: their literals are published report limits and
    scenario defaults).  A tolerance that judges a matrix or a measure is
    relative to its norm with no floor: no statement that names a table
    constant also takes max(1, .) or np.maximum(1, .)."""
    tree = ast.parse(source)
    found = []
    if name not in ("demos.py", "cli.py"):
        table = set()
        if name == "opcore.py":
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                    table.update(map(id, ast.walk(node.value)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0 < abs(node.value) < 1e-5 and id(node) not in table):
                found.append((node.lineno, f"tolerance literal {node.value!r} outside the table"))
    for stmt in ast.walk(tree):
        if not isinstance(stmt, ast.stmt):
            continue
        for expr in ast.iter_child_nodes(stmt):
            if isinstance(expr, ast.expr) and _names_constant(expr):
                found += [(node.lineno, "max(1, .) floor on a table tolerance")
                          for node in _floors(expr)]
    return found


def json_keys_outside_reader(name: str, source: str) -> list[tuple[int, str]]:
    """jsonkeys is the one reader of a JSON object's keys: no function
    named *_from_json, and no cli._load_* function, reads keys itself.  It
    calls no .get() or .keys() and tests no "key" in an object."""
    if name == "jsonkeys.py":
        return []
    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and (
                func.name.endswith("_from_json")
                or name == "cli.py" and func.name.startswith("_load_"))):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "keys")):
                found.append((node.lineno, f"{func.name} calls .{node.func.attr}()"))
            if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
                    and isinstance(node.left.value, str)
                    and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)):
                found.append((node.lineno, f"{func.name} tests {node.left.value!r} in an object"))
    return found


RULES = [spectra_outside_opcore, tolerances_outside_table, json_keys_outside_reader]


def _source(name: str) -> str:
    return (LIBRARY / name).read_text(encoding="utf-8")


def _planted(name: str, old: str, new: str) -> tuple[str, int]:
    """``name``'s source with its one ``old`` replaced by ``new``, and the
    line of the replacement."""
    source = _source(name)
    assert source.count(old) == 1
    return source.replace(old, new), source[: source.index(old)].count("\n") + 1


@pytest.mark.parametrize("rule", RULES)
def test_library_keeps_rule(rule):
    found = [f"{path.name}:{line}: {what}" for path in sorted(LIBRARY.glob("*.py"))
             for line, what in rule(path.name, path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("name, old, new, rule", [
    ("opcore.py", "if abs(tr - 1.0) > UNIT_TOL:", "if abs(tr - 1.0) > 1e-12:",
     tolerances_outside_table),
    ("qintegrate.py", "<= DEDUP_TOL * max(scale, ", "<= 2e-10 * max(scale, ",
     tolerances_outside_table),
    ("opcore.py", "(w >= -TOL_PSD * norms[..., None])",
     "(w >= -TOL_PSD * np.maximum(1.0, norms)[..., None])", tolerances_outside_table),
    ("lyapunov.py", "opcore.op_norm(achieved - target)",
     "float(np.abs(np.linalg.eigvalsh(achieved - target)).max())", spectra_outside_opcore),
    ("lyapunov.py", "opcore._kernel_svd(cols)",
     "np.linalg.svd(cols, full_matrices=False)[1:]", spectra_outside_opcore),
    ("lyapunov.py", "opcore._kernel_svd(cols)",
     "opcore._kernel_svd(cols / opcore._pow2_scales(cols))", spectra_outside_opcore),
    ("opcore.py", 'p = read_keys(obj, _MATRIX_KEYS, "matrix JSON")',
     "p = obj if _MATRIX_KEYS.keys() <= obj else {}", json_keys_outside_reader),
    ("ovm.py", 'direct = tag(obj, "variant", "OVM JSON") == "direct_sum"',
     'direct = obj.get("variant") == "direct_sum"', json_keys_outside_reader),
    ("cli.py", 'if tag(spec, "total_fraction", "target") is None:',
     'if "total_fraction" not in spec:', json_keys_outside_reader),
], ids=["literal_in_make_state", "literal_in_ess_equal", "floor_in_psd_ok",
        "eigvalsh_in_lyapunov", "svd_in_lyapunov", "pow2_scales_in_lyapunov",
        "keys_in_matrix_stacks", "get_in_ovm_from_json",
        "in_in_load_target"])
def test_rule_finds_planted_violation(name, old, new, rule):
    source, line = _planted(name, old, new)
    assert rule(name, _source(name)) == []
    found = rule(name, source)
    assert [at for at, _ in found] == [line]


def test_spectra_rule_finds_the_scaled_kernel_svd():
    # A kernel SVD taken outside opcore with its own 2^k rule: both names.
    line = "_, sing, vt = np.linalg.svd(cols / opcore._pow2_scales(cols), full_matrices=False)"
    assert spectra_outside_opcore("lyapunov.py", line) == [(1, "svd"), (1, "_pow2_scales")]


@pytest.mark.parametrize("snippet, rule", [
    ("w = np.linalg.eigh(a)[0]", spectra_outside_opcore),
    ("s = np.linalg.svd(a, compute_uv=False)", spectra_outside_opcore),
    ("_, s, vt = np.linalg.svd(a, full_matrices=False)", spectra_outside_opcore),
    ("from numpy.linalg import svd as decompose", spectra_outside_opcore),
    ("k = opcore._pow2_scales(a)", spectra_outside_opcore),
    ("n = np.linalg.norm(a, 2)", spectra_outside_opcore),
    ("n = np.linalg.norm(a, ord=2)", spectra_outside_opcore),
    ("ok = err <= TOL_PSD * max(1, scale)", tolerances_outside_table),
    ("ok = err <= opcore.RANK_RCOND * max(scale, 1.0)", tolerances_outside_table),
    ("tol = 3e-9", tolerances_outside_table),
    ("def space_from_json(obj): return obj.get('a')", json_keys_outside_reader),
    ("def set_from_json(space, obj): return 'cells' in obj", json_keys_outside_reader),
    ("def f_from_json(obj): return [o.keys() for o in obj]", json_keys_outside_reader),
])
def test_rule_finds_snippet(snippet, rule):
    assert [line for line, _ in rule("ovm.py", snippet)] == [1]


@pytest.mark.parametrize("name, snippet, rule", [
    ("opcore.py", "w = np.linalg.eigvalsh(a)", spectra_outside_opcore),
    ("ovm.py", "n = np.linalg.norm(a)", spectra_outside_opcore),
    ("lyapunov.py", 'out = opcore._decompose(cols, "svd")', spectra_outside_opcore),
    ("lyapunov.py", "sing, vt = opcore._kernel_svd(cols)", spectra_outside_opcore),
    ("ovm.py", "width = WIDTH_TOL * max(1.0, span)", tolerances_outside_table),
    ("ovm.py", "ok = err <= TOL_PSD * scale", tolerances_outside_table),
    ("opcore.py", "TOL = 1e-12", tolerances_outside_table),
    ("cli.py", "tol = 1e-10", tolerances_outside_table),
    ("ovm.py", "def space_to_json(obj): return obj.get('a')", json_keys_outside_reader),
    ("ovm.py", "def _load_ovm(spec): return 'model' in spec", json_keys_outside_reader),
    ("cli.py", "def _load_ovm(spec): return name not in _MODELS", json_keys_outside_reader),
    ("ovm.py", "def ovm_from_json(obj): return read_keys(obj, KEYS, 'OVM')",
     json_keys_outside_reader),
    ("jsonkeys.py", "def tag_from_json(obj): return obj.get('kind')", json_keys_outside_reader),
])
def test_rule_spares_snippet(name, snippet, rule):
    assert rule(name, snippet) == []
