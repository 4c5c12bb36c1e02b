"""Source rules on the library: every operator norm and Hermitian spectrum is
taken in opcore, and every tolerance is named once, in opcore's table.

Each rule reads one module's source and returns its (line, finding) pairs,
so the tests feed it the library's own files and planted violations alike.
"""

import ast
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "ovmkit"


def spectra_outside_opcore(name: str, source: str) -> list[tuple[int, str]]:
    """opcore.op_norms is the one operator-norm rule, and every Hermitian
    spectrum is taken in opcore: no other module calls eigvalsh, eigh, an
    SVD with compute_uv=False or np.linalg.norm(..., 2)."""
    if name == "opcore.py":
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("eigvalsh", "eigh"):
            found.append((node.lineno, node.attr))
        if not isinstance(node, ast.Call):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        uv = kw.get("compute_uv")
        if isinstance(uv, ast.Constant) and uv.value is False:
            found.append((node.lineno, "compute_uv=False"))
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


RULES = [spectra_outside_opcore, tolerances_outside_table]


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
], ids=["literal_in_make_state", "literal_in_ess_equal", "floor_in_psd_ok",
        "eigvalsh_in_lyapunov"])
def test_rule_finds_planted_violation(name, old, new, rule):
    source, line = _planted(name, old, new)
    assert rule(name, _source(name)) == []
    found = rule(name, source)
    assert [at for at, _ in found] == [line]


@pytest.mark.parametrize("snippet, rule", [
    ("w = np.linalg.eigh(a)[0]", spectra_outside_opcore),
    ("s = np.linalg.svd(a, compute_uv=False)", spectra_outside_opcore),
    ("n = np.linalg.norm(a, 2)", spectra_outside_opcore),
    ("n = np.linalg.norm(a, ord=2)", spectra_outside_opcore),
    ("ok = err <= TOL_PSD * max(1, scale)", tolerances_outside_table),
    ("ok = err <= opcore.RANK_RCOND * max(scale, 1.0)", tolerances_outside_table),
    ("tol = 3e-9", tolerances_outside_table),
])
def test_rule_finds_snippet(snippet, rule):
    assert [line for line, _ in rule("ovm.py", snippet)] == [1]


@pytest.mark.parametrize("name, snippet, rule", [
    ("opcore.py", "w = np.linalg.eigvalsh(a)", spectra_outside_opcore),
    ("ovm.py", "n = np.linalg.norm(a)", spectra_outside_opcore),
    ("ovm.py", "width = WIDTH_TOL * max(1.0, span)", tolerances_outside_table),
    ("ovm.py", "ok = err <= TOL_PSD * scale", tolerances_outside_table),
    ("opcore.py", "TOL = 1e-12", tolerances_outside_table),
    ("cli.py", "tol = 1e-10", tolerances_outside_table),
])
def test_rule_spares_snippet(name, snippet, rule):
    assert rule(name, snippet) == []
