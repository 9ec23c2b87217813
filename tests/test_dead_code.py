"""Every module-level function and every class method in src/drtricks is
referenced in src/."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "drtricks"

# Public functions that nothing in src/ calls, each with the acceptance
# criterion that pins it. Private functions get no allowlist: one that
# nothing calls is deleted.
ALLOWED_UNREFERENCED = {
    "auc_macro_ovr": "criterion 2 pins the macro one-vs-rest AUC",
    "grade_postedit": "criterion 6 pins the mask-guided grade edit",
    "seg_total_loss": "criterion 1 pins dice + alpha * aux; the segmenter trainer "
                      "computes its gradient without the loss value",
}


def _functions_and_references() -> tuple[list[tuple[str, str]], set[str]]:
    """(file, name) of every module-level function, and every name used in src/."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def _public_functions_and_references() -> tuple[dict[str, str], set[str]]:
    defined, referenced = _functions_and_references()
    return {name: file for file, name in defined if not name.startswith("_")}, referenced


def test_every_public_function_is_referenced():
    defined, referenced = _public_functions_and_references()
    unreferenced = sorted(f"{defined[name]}:{name}" for name in defined
                          if name not in referenced and name not in ALLOWED_UNREFERENCED)
    assert unreferenced == [], "wire these into a command or delete them"


def test_every_private_function_is_referenced():
    defined, referenced = _functions_and_references()
    unreferenced = sorted(f"{file}:{name}" for file, name in defined
                          if name.startswith("_") and name not in referenced)
    assert unreferenced == [], "delete these orphaned helpers"


def test_allowlist_is_exact():
    defined, referenced = _public_functions_and_references()
    assert set(ALLOWED_UNREFERENCED) <= set(defined)
    assert not set(ALLOWED_UNREFERENCED) & referenced, "drop wired-in names from the allowlist"


def _methods_and_attribute_reads() -> tuple[list[str], set[str]]:
    """file:Class.name of every method or property that is not a dunder, and
    every attribute name that src/ reads (``x.name``).

    A local variable or function of the same name does not count, so only
    attribute reads are collected.
    """
    methods, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods.extend(f"{path.name}:{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not (item.name.startswith("__") and item.name.endswith("__")))
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return methods, read


def test_every_method_is_referenced():
    methods, read = _methods_and_attribute_reads()
    assert methods, "the scan found no methods"
    unreferenced = sorted(m for m in methods if m.rsplit(".", 1)[1] not in read)
    assert unreferenced == [], "wire these into a command or delete them"
