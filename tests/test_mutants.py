from . import mutants


def test_each_mutant_applies_once():
    # the gate applies a mutant by replacing its old text, which must name
    # one place in its file; a mutant and its equivalent twin differ
    for file, old, new, why in mutants.MUTANTS + mutants.EQUIVALENT:
        text = (mutants.ROOT / mutants.PACKAGE / file).read_text()
        assert text.count(old) == 1, (file, old)
        assert new != old and why, (file, old)
    entries = [m[:3] for m in mutants.MUTANTS + mutants.EQUIVALENT]
    assert len(set(entries)) == len(entries)
