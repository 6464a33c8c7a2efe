"""Tests for relaxation-site discovery and application (repro.relaxations.sites)."""

import pytest

from repro.casestudies.lu import LU
from repro.casestudies.swish import SWISH
from repro.casestudies.water import WATER
from repro.lang import builder as b
from repro.lang.analysis import check_program
from repro.lang.ast import Assign, If, Relax, Seq, While
from repro.relaxations.sites import RelaxationSite, apply_site, discover_sites
from repro.relaxations.transforms import _replace_statement, perforate_loop, restrict_relax
from repro.semantics.interpreter import run_original, run_relaxed
from repro.semantics.choosers import FixedChoiceChooser
from repro.semantics.state import State


class TestReplaceStatement:
    def test_replaces_after_an_if_containing_a_seq(self):
        """Regression: a Seq inside an If used to absorb the replacement
        attempt, leaving statements after the If unreachable."""
        branch = b.if_(b.gt("a", "m"), b.block(b.assign("m", "a"), b.assign("p", "i")))
        increment = b.assign("i", b.add("i", 1))
        body = b.block(b.assign("a", 1), branch, increment)
        replaced = _replace_statement(body, increment, b.assign("i", b.add("i", "s")))
        assert replaced != body
        assert any(
            isinstance(node, Assign) and node.value == b.add("i", "s")
            for node in replaced.walk()
        )

    def test_identity_preserved_when_target_absent(self):
        body = b.block(b.assign("x", 1), b.assign("y", 2))
        assert _replace_statement(body, b.assign("z", 3), b.skip) is body

    def test_lu_perforation_actually_changes_the_increment(self):
        case = LU
        program = case.build_program()
        loop = next(n for n in program.body.walk() if isinstance(n, While))
        result = perforate_loop(program, loop, counter="i", perforation_stride_var="s")
        assert any(
            isinstance(node, Assign) and node.value == b.add("i", "s")
            for node in result.program.body.walk()
        )


class TestDiscovery:
    def test_lu_sites(self):
        program = LU.build_program()
        sites = discover_sites(program)
        kinds = {site.kind for site in sites}
        assert kinds == {"perforate-loop", "restrict-relax", "dynamic-knob"}
        ids = [site.site_id for site in sites]
        assert len(ids) == len(set(ids))
        assert any(site.site_id.startswith("restrict:a@") for site in sites)

    def test_swish_sites_include_max_r_restriction(self):
        program = SWISH.build_program()
        assert any(
            site.kind == "restrict-relax" and site.names[0] == "max_r"
            for site in discover_sites(program)
        )

    def test_water_has_no_restrict_site_for_array_relax(self):
        program = WATER.build_program()
        assert not any(
            site.kind == "restrict-relax" for site in discover_sites(program)
        )

    def test_knob_sites_only_for_unwritten_scalars(self):
        program = LU.build_program()
        for site in discover_sites(program):
            if site.kind == "dynamic-knob":
                assert site.names[0] == "N"

    def test_deterministic_order(self):
        program = LU.build_program()
        first = [site.site_id for site in discover_sites(program)]
        second = [site.site_id for site in discover_sites(program)]
        assert first == second


class TestApplication:
    def test_apply_every_lu_site_yields_well_formed_program(self):
        case = LU
        program = case.build_program()
        for site in discover_sites(program):
            result = apply_site(program, site)
            assert check_program(result.program).ok

    def test_restrict_narrows_the_envelope(self):
        case = LU
        program = case.build_program()
        site = next(
            s for s in discover_sites(program) if s.site_id.endswith("d0")
            and s.kind == "restrict-relax"
        )
        candidate = apply_site(program, site).program
        initial = case.workloads(3, seed=0)[2]
        original = run_original(candidate, initial)
        # With a +-0 envelope every relaxed choice must equal the original.
        relaxed = run_relaxed(
            candidate, initial, chooser=FixedChoiceChooser([], strict=False)
        )
        assert original.state.scalar("maxval") == relaxed.state.scalar("maxval")

    def test_stale_site_raises(self):
        program = LU.build_program()
        sites = discover_sites(program)
        restrict = next(s for s in sites if s.kind == "restrict-relax")
        transformed = apply_site(program, restrict).program
        # The original relax no longer occurs in the transformed program.
        with pytest.raises(ValueError):
            apply_site(transformed, restrict)

    def test_unknown_kind_raises(self):
        program = LU.build_program()
        with pytest.raises(ValueError):
            apply_site(program, RelaxationSite(kind="nope", site_id="x"))

    def test_restrict_relax_missing_statement_raises(self):
        program = b.program("p", b.assign("x", 1), variables=("x",))
        with pytest.raises(ValueError):
            restrict_relax(program, Relax(("x",), b.true), b.le("x", 5))
