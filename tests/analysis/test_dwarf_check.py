"""DWARF structural invariants: clean cubes pass, corrupted cubes are caught."""

from repro.analysis.dwarf_check import dwarf_check, structural_signature
from repro.dwarf.builder import DwarfBuilder


def rules_of(report):
    return {violation.rule for violation in report.violations}


class TestCleanCubes:
    def test_sample_cube_passes(self, sample_cube):
        report = dwarf_check(sample_cube)
        assert report.ok, "\n".join(report.format_lines())
        assert report.n_checks > 0

    def test_uncoalesced_cube_passes(self, sample_facts):
        cube = DwarfBuilder(sample_facts.schema, coalesce=False).build(sample_facts)
        report = dwarf_check(cube, coalesce=False)
        assert report.ok, "\n".join(report.format_lines())

    def test_bike_cube_passes(self, bike_bundle):
        _, _, cube = bike_bundle
        assert dwarf_check(cube).ok


class TestCorruption:
    def test_broken_cell_order_flagged(self, sample_cube):
        root = sample_cube.root
        items = list(root._cells.items())
        root._cells.clear()
        for key, cell in reversed(items):
            root._cells[key] = cell
        assert "dwarf.cell-order" in rules_of(dwarf_check(sample_cube))

    def test_wrong_all_aggregate_flagged(self, sample_cube):
        # Dublin's leaf node: cells 3 and 5, ALL must aggregate to 8.
        leaf = sample_cube.root.cell("Ireland").node.cell("Dublin").node
        leaf.all_cell.value = 999
        assert "dwarf.all-aggregate" in rules_of(dwarf_check(sample_cube))

    def test_unclosed_node_flagged(self, sample_cube):
        sample_cube.root.cell("France").node.all_cell = None
        assert "dwarf.unclosed" in rules_of(dwarf_check(sample_cube))


class TestBuildEquivalence:
    def test_serial_rebuild_is_identical(self, sample_facts, sample_cube):
        rebuilt = DwarfBuilder(sample_facts.schema).build(sample_facts)
        assert structural_signature(rebuilt) == structural_signature(sample_cube)

    def test_divergent_cubes_flagged(self, sample_facts, sample_cube):
        rows = [tuple(fact.keys) + (fact.measure,) for fact in sample_facts]
        rows[-1] = rows[-1][:-1] + (rows[-1][-1] + 1,)
        other = DwarfBuilder(sample_facts.schema).build(rows)
        assert structural_signature(other) != structural_signature(sample_cube)
