"""The package's public surface, its import layering, and the rule that
result checks in src/ survive ``python -O``."""
import ast
import importlib
import re
from graphlib import TopologicalSorter
from pathlib import Path

import nullpoly

ROOT = Path(__file__).resolve().parents[1]

KEPT = [
    "Polynomial",
    "canonical_form",
    "count_monic",
    "count_monic_le",
    "count_null_le",
    "enumerate_null",
    "equivalent",
    "factor",
    "is_null_binomial",
    "kempner_mu",
    "least_monic_null",
    "null_order",
    "omega0_composite",
    "omega1_composite",
    "reduce_degree",
]


def test_public_surface_is_the_kept_list():
    assert nullpoly.__all__ == KEPT
    for name in KEPT:
        assert getattr(nullpoly, name) is not None


def _bench_called() -> set[str]:
    return set(re.findall(r"\bnp\.(\w+)", (ROOT / "bench" / "worker.py").read_text()))


def test_every_name_the_bench_worker_calls_is_public():
    called = _bench_called()
    assert len(called) == 15
    assert called == set(nullpoly.__all__)


def test_src_defines_only_what_src_or_the_bench_calls():
    # a public def or class that only the tests reach belongs in the tests;
    # __init__'s re-exports do not count as a use
    defined, used = set(), _bench_called()
    for path in sorted((ROOT / "src" / "nullpoly").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                used.add(node.name)
    assert sorted(defined - used) == []


def test_what_the_bench_harness_reads_exists():
    # the tracer and the worker read bench/ as text here, so a rename in src/
    # fails this test instead of zeroing rows of the traced run
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    spans = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if getattr(target, "id", None) in ("MODULES", "_METHODS")
    }
    for name in spans["MODULES"]:
        importlib.import_module(f"nullpoly.{name}")
    for method in spans["_METHODS"]:
        assert callable(getattr(nullpoly.Polynomial, method, None)), method
    worker = (ROOT / "bench" / "worker.py").read_text()
    plain = worker[worker.index("def plain("):worker.index("\ndef ", worker.index("def plain("))]
    # plain's x.factors branch read the factorization record; factor now
    # returns (p, d) pairs, which plain reads as tuples
    assert set(re.findall(r"\bx\.(\w+)", plain)) == {"coeffs", "value", "p_exponent", "factors", "a"}
    assert nullpoly.factor(12) == [(2, 2), (3, 1)]
    f = nullpoly.Polynomial([1, 0, 1])
    carriers = {
        "coeffs": [nullpoly.least_monic_null(2, 3), nullpoly.reduce_degree(f, 6),
                   *nullpoly.enumerate_null(2, 2, 3)],
        "value": [nullpoly.count_null_le(3, 2, 2), nullpoly.count_monic(4, 2, 2),
                  nullpoly.count_monic_le(4, 2, 2)],
        "a": [nullpoly.canonical_form(f, 6)],
    }
    carriers["p_exponent"] = carriers["value"]
    for attr, results in carriers.items():
        for result in results:
            assert hasattr(result, attr), (attr, type(result).__name__)


def test_intra_package_imports_are_layered():
    # modulus owns what is read off m's factorization; construct is the tower
    graph, names = {}, {}
    for path in sorted((ROOT / "src" / "nullpoly").glob("*.py")):
        modules, imported = set(), set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                aliases = {alias.name for alias in node.names}
                imported |= aliases
                modules |= {node.module} if node.module else aliases
        graph[path.stem], names[path.stem] = modules, imported
    assert graph["modulus"] and graph["cli"]
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert "modulus" not in graph["construct"]
    assert "counting" not in graph["modulus"]
    assert "prime_factorization" not in names["construct"]


def test_only_polys_packs_integers_into_slots():
    # one packing format: every other module multiplies through polys._kronecker
    packers = {"to_bytes", "from_bytes", "pack", "unpack", "Decimal"}
    found = []
    for path in sorted((ROOT / "src" / "nullpoly").glob("*.py")):
        if path.stem == "polys":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            if field and getattr(node, field) in packers:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_module_constant_is_read():
    # a module-level _UPPER_CASE constant that nothing in src/ reads is a
    # dead tuning knob
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "nullpoly").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for name in (n for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)):
                if re.fullmatch(r"_[A-Z][A-Z0-9_]*", name.id):
                    defined[name.id] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    assert defined
    assert sorted(where for name, where in defined.items() if name not in read) == []


def test_src_has_no_bare_assert():
    # python -O strips assert statements; result checks must raise instead
    found = []
    for path in sorted((ROOT / "src" / "nullpoly").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
