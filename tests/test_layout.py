"""Where code lives: the package holds what its commands run, the tests' second routes stay apart.

Read with ``ast``, never imported, so a check fails on the source as written.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "primebound"

# The spec dataclasses hold parameters and validate them; they compute nothing.
SPEC_CLASSES = {"HankelSpec", "GeneralizedSpec", "SelbergSpec", "KrattenthalerInstance", "BoundParams"}

# Point reads documented in the README that no command calls.
PUBLIC_POINT_READS = {"hankel_det", "mangoldt", "psi1_increment", "asymptotic_gap"}


def _package_imports(tree):
    """(module, name) for every import from primebound; name is None for a bare import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "primebound":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "primebound":
            for alias in node.names:
                yield node.module, alias.name


def test_witnesses_import_only_spec_classes_from_the_package():
    tree = ast.parse((ROOT / "tests" / "witnesses.py").read_text())
    imports = list(_package_imports(tree))
    assert imports, "witnesses.py should build its inputs from the spec classes"
    bad = [(module, name) for module, name in imports if name not in SPEC_CLASSES]
    assert not bad, f"witnesses.py imports computing code from primebound: {bad}"


def test_every_public_package_name_is_read_by_the_package_or_documented():
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    orphans = {f"{module}.{name}" for name, module in defined.items() if name not in read | PUBLIC_POINT_READS}
    assert not orphans, f"public names no package code reads; move them to tests/witnesses.py: {sorted(orphans)}"
    assert PUBLIC_POINT_READS <= defined.keys()


def test_no_module_stem_is_shared_by_tests_and_bench():
    # pytest's prepend import mode puts both directories on sys.path in one
    # run, so a shared stem imports whichever module came first.
    tests, bench = ({p.stem for p in (ROOT / d).rglob("*.py")} for d in ("tests", "bench"))
    assert not tests & bench, f"module stems in both tests/ and bench/: {sorted(tests & bench)}"
