"""The failing-program minimizer."""

from repro.frontend.lower import lower_source
from repro.fuzz.generator import generate_program
from repro.fuzz.shrink import shrink_program


def non_blank(source):
    return sum(1 for line in source.splitlines() if line.strip())


class TestShrink:
    def test_shrink_reduces_while_preserving_predicate(self):
        program = generate_program(0)

        def still_fails(source):
            return "gp" in source

        small = shrink_program(program, still_fails)
        assert "gp" in small.source
        assert non_blank(small.source) < non_blank(program.source)
        assert small.name.endswith("-shrunk")

    def test_shrunk_program_still_lowers(self):
        program = generate_program(2)
        small = shrink_program(program, lambda src: "main" in src)
        lower_source(small.source, name=small.name)

    def test_predicate_exceptions_reject_candidate(self):
        """A candidate that makes the checker crash must not be kept."""
        program = generate_program(1)
        original_lines = non_blank(program.source)

        def picky(source):
            if "g0" not in source:
                raise RuntimeError("checker crashed")
            return True

        small = shrink_program(program, picky)
        assert "g0" in small.source
        assert non_blank(small.source) <= original_lines

    def test_noop_when_nothing_removable(self):
        program = generate_program(3)
        small = shrink_program(program, lambda src: False)
        # predicate never holds -> nothing can be removed
        assert small.source == program.source
