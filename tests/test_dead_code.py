"""No definition in src/ without a caller, apart from the ones tests need,
and no import there that its module never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"

# Definitions that only tests call. Each one stays because a test uses it.
TEST_ONLY = {
    # test_kclosure.py::test_oracle_model_idempotence and
    # test_acceptance.py::test_criterion_11_invariant_property_suites
    "KClosureOracleModel",
    # test_acceptance.py::test_criterion_02_bs_local_action_and_edge_labels
    "edge_label",
    # test_acceptance.py::test_criterion_05_nondiscreteness_certificates and
    # test_models_contract.py::test_element_json_round_trip
    "element_from_json",
    # test_kclosure.py::test_common_counts_are_the_intersections_of_element_germ_sets,
    # the reference for kclosure-compare's common transitive germs, and
    # test_acceptance.py criteria 01 and 11
    "element_germs_at",
    # test_acceptance.py::test_criterion_09_generator_germ_exponents, and the
    # reference for plusk-generators' closure count and legality
    "germ_closure",
    # test_acceptance.py::test_criterion_01_constant_local_truncations and
    # test_criterion_04_padic_unipotent_depth, and the reference for
    # local_action
    "induced_perm_group",
    # test_acceptance.py::test_criterion_02_bs_local_action_and_edge_labels,
    # through _random_one_legal_germ
    "minimal_fixing_exponent",
    # test_acceptance.py::test_criterion_11_invariant_property_suites
    "random_ball_germ",
    # test_germ_core.py::test_compose_invert_apply_agree, against the
    # reference germ's key
    "sort_key",
    # test_acceptance.py criteria 01 and 04, and the per-family stabiliser
    # references such as test_models_contract.py::test_stab_germ_group_is_closed;
    # perfbench/tracer.py also wraps it on every family, so its traced pass
    # needs it
    "stab_germ_group",
}

# Definitions that only the benchmark's input script calls.
BENCH_ONLY = {
    # perfbench/make_inputs.py draws its legality pool from
    # GroupModel.iter_elements
    "iter_elements",
}


def definitions_and_references(root):
    """Names of the defs and classes under root, and the names that a Name
    or Attribute there refers to."""
    defined, used = set(), set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def unreferenced_definitions(root):
    """Names of the defs and classes under root that no Name or Attribute
    there refers to, dunders left out."""
    defined, used = definitions_and_references(root)
    return {
        name for name in defined - used
        if not (name.startswith("__") and name.endswith("__"))
    }


def test_every_definition_has_a_caller_in_src():
    assert unreferenced_definitions(SRC_DIR) == TEST_ONLY | BENCH_ONLY


def test_every_allowlisted_definition_has_a_caller_outside_src():
    for allowed, where in ((TEST_ONLY, "tests"), (BENCH_ONLY, "perfbench")):
        assert allowed <= definitions_and_references(ROOT / where)[1], where


def unused_imports(root):
    """(file, name) for each name a module under root imports and never
    refers to; `from __future__` imports left out."""
    out = set()
    for path in sorted(root.rglob("*.py")):
        imported, used = set(), set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                # `import a.b` binds a
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        out.update((path.relative_to(root).as_posix(), name) for name in imported - used)
    return out


def test_every_import_is_used_in_src():
    assert unused_imports(SRC_DIR) == set()
