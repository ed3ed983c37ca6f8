import ast

from . import mutants


def test_each_mutant_applies_once():
    # the gate applies a mutant by replacing its old text, which must name
    # one place in its file; a mutant and its equivalent twin differ
    for file, old, new, why, _ in mutants.MUTANTS + mutants.EQUIVALENT:
        text = (mutants.ROOT / mutants.PACKAGE / file).read_text()
        assert text.count(old) == 1, (file, old)
        assert new != old and why, (file, old)
    entries = [m[:3] for m in mutants.MUTANTS + mutants.EQUIVALENT]
    assert len(set(entries)) == len(entries)


def _test_names(path):
    """{class name or "": names of the test functions it defines} of a test
    file, read from its syntax tree, without importing or collecting it."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            found[node.name] = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        elif isinstance(node, ast.FunctionDef):
            found.setdefault("", set()).add(node.name)
    return found


def test_named_tests_exist():
    # every mutant names the tests that kill it, an equivalent none; each
    # name is a test function of a file under tests/, in its class if it
    # names one, with or without a parameter id
    for entry in mutants.MUTANTS + mutants.EQUIVALENT:
        tests = entry[4]
        assert bool(tests) == (entry in mutants.MUTANTS), entry[:3]
        for test in tests:
            file, *scope, name = test.split("[")[0].split("::")
            path = mutants.ROOT / file
            assert file.startswith("tests/test_") and path.is_file(), test
            assert len(scope) <= 1 and name in _test_names(path).get(
                scope[0] if scope else "", set()), test
