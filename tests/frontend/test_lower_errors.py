"""The modeled C subset's boundaries (paper §2 caveats)."""

import pytest

import contextlib
import io

from repro.cli import main
from repro.errors import (
    LoweringError,
    ParseError,
    TypeError_,
    UnsupportedFeatureError,
)
from tests.conftest import analyze_both, lower


class TestPaperCaveats:
    def test_int_to_pointer_cast_rejected(self):
        with pytest.raises(UnsupportedFeatureError, match="cast"):
            lower("int main(void) { int *p = (int *)42; return 0; }")

    def test_pointer_to_int_cast_rejected(self):
        with pytest.raises(UnsupportedFeatureError, match="cast"):
            lower("""
                int g;
                int main(void) { long x = (long)&g; return (int)x; }
            """)

    def test_null_pointer_casts_allowed(self):
        program = lower(
            "int main(void) { int *p = (int *)0; return p == 0; }")
        assert "main" in program.functions

    def test_void_pointer_roundtrip_allowed(self):
        program = lower("""
            int g;
            int main(void) {
                void *v = (void *)&g;
                int *p = (int *)v;
                return *p;
            }
        """)
        assert "main" in program.functions

    def test_integer_assigned_to_pointer_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            lower("int main(void) { int *p; p = 42; return 0; }")

    def test_zero_assigned_to_pointer_allowed(self):
        program = lower("int main(void) { int *p; p = 0; return 0; }")
        assert "main" in program.functions


class TestStructuralLimits:
    def test_goto_rejected(self):
        with pytest.raises(UnsupportedFeatureError, match="goto"):
            lower("""
                int main(void) {
                    int x = 0;
                    goto done;
                done:
                    return x;
                }
            """)

    def test_knr_definitions_rejected(self):
        with pytest.raises(UnsupportedFeatureError, match="K&R"):
            lower("""
                int f(x)
                    int x;
                { return x; }
                int main(void) { return f(1); }
            """)

    def test_compound_literal_rejected(self):
        with pytest.raises((UnsupportedFeatureError, Exception)):
            lower("""
                struct s { int a; };
                int main(void) { struct s v = (struct s){1}; return 0; }
            """)

    def test_undeclared_identifier(self):
        with pytest.raises(TypeError_, match="undeclared"):
            lower("int main(void) { return ghost_var; }")

    def test_break_outside_loop(self):
        with pytest.raises(LoweringError, match="break"):
            lower("int main(void) { break; return 0; }")

    def test_continue_outside_loop(self):
        with pytest.raises(LoweringError, match="continue"):
            lower("int main(void) { continue; return 0; }")


def _deep_pointer(levels: int) -> str:
    return (f"int g; int {'*' * levels}p;\n"
            "int main(void) { int *q = &g; return q == 0; }\n")


def _deep_parens(levels: int) -> str:
    return ("int main(void) { int x = " + "(" * levels + "1"
            + ")" * levels + "; return x; }\n")


def _deep_blocks(levels: int) -> str:
    return ("int main(void) " + "{" * levels + " return 0; "
            + "}" * levels + "\n")


class TestDeepNesting:
    """Input nested deeper than the interpreter's recursion limit ends
    in a result or a typed error naming the file, never a bare
    ``RecursionError``."""

    def test_deep_pointer_type_lowers_and_analyzes(self):
        program, ci, cs = analyze_both(_deep_pointer(5000))
        assert "main" in program.functions
        assert ci.counters.transfers > 0
        assert cs.counters.transfers > 0

    @pytest.mark.parametrize("source", [_deep_parens(3000),
                                        _deep_blocks(3000)],
                             ids=["parentheses", "blocks"])
    def test_deep_nesting_is_a_parse_error(self, source):
        with pytest.raises(ParseError, match="deep.c: nesting too deep"):
            lower(source, name="deep.c")

    def test_cli_reports_the_error_kind(self, tmp_path, monkeypatch):
        path = tmp_path / "deep.c"
        path.write_text(_deep_blocks(3000))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
        assert code == 1
        assert "deep.c" in err.getvalue()
        assert "ParseError" in err.getvalue()
