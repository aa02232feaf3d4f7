"""Unit tests: each checker on small crafted programs.

Every program here lowers under the hazard model (``<null>`` /
``<uninit>`` summary cells); without it the null/uninit checkers have
nothing to see and stay silent, which the last test pins down.
"""

import pytest

import repro
from repro.analysis.checkers import run_checkers

from ...conftest import lower


def check(source, names=None, flavor="insensitive", **options):
    program = lower(source, hazard_model=True, **options)
    ci = repro.analyze_insensitive(program)
    if flavor == "insensitive":
        result = ci
    elif flavor == "sensitive":
        result = repro.analyze_sensitive(program, ci_result=ci)
    else:
        result = repro.analyze_flowinsensitive(program)
    return run_checkers(result, names)


class TestNullDeref:
    def test_must_null_is_error(self):
        findings = check("""
int main(void) { int *q = 0; *q = 2; return 0; }
""", names=["nullderef"])
        assert len(findings) == 1
        f = findings[0]
        assert f.severity == "error"
        assert "is null" in f.message
        assert f.path == "<null>"

    def test_may_null_is_warning(self):
        findings = check("""
int g;
int main(void) {
    int *p = 0;
    if (g) p = &g;
    *p = 1;
    return 0;
}
""", names=["nullderef"])
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "may be null" in findings[0].message

    def test_clean_pointer_silent(self):
        findings = check("""
int g;
int main(void) { int *p = &g; *p = 1; return *p; }
""", names=["nullderef"])
        assert findings == []

    def test_null_stored_through_memory(self):
        # The null constant travels through a cell, not just SSA: the
        # lowering must coerce stored nulls into <null> pairs too.
        findings = check("""
int g;
int main(void) {
    int *p;
    int **h = &p;
    *h = 0;
    return *p;
}
""", names=["nullderef"])
        assert any("null" in f.message for f in findings)


class TestUninit:
    def test_deref_of_uninit_pointer(self):
        findings = check("""
int main(void) { int *p; *p = 1; return 0; }
""", names=["uninit"])
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "uninitialized" in findings[0].message

    def test_read_of_uninit_pointer_cell(self):
        findings = check("""
int main(void) {
    int *q;
    int **h = &q;
    int *r = *h;
    return *r;
}
""", names=["uninit"])
        # Both arms: the lookup of q's cell reads an uninitialized
        # pointer, and the dereference of r goes through it.
        assert any(f.message == "reads a pointer that may be "
                                "uninitialized" for f in findings)
        assert any("indirect read through a pointer" in f.message
                   for f in findings)

    def test_initialized_pointer_silent(self):
        findings = check("""
int g;
int main(void) { int *p = &g; return *p; }
""", names=["uninit"])
        assert findings == []

    def test_strong_update_kills_marker(self):
        # Initialization through a must-alias strongly updates the
        # cell, killing the <uninit> seed before the read.
        findings = check("""
int g;
int main(void) {
    int *q;
    int **h = &q;
    *h = &g;
    int *r = *h;
    return *r;
}
""", names=["uninit"])
        assert findings == []


class TestStackRef:
    def test_escape_through_global(self):
        findings = check("""
int *gp;
void leak(void) { int x; gp = &x; }
int main(void) { leak(); return 0; }
""", names=["stackref"])
        assert len(findings) >= 1
        f = findings[0]
        assert f.function == "main"
        assert "dead frame" in f.message
        assert "leak" in f.message

    def test_escape_through_return(self):
        findings = check("""
int *mk(void) { int y; return &y; }
int main(void) { int *p = mk(); return 0; }
""", names=["stackref"])
        assert any("return a pointer into the dead frame" in f.message
                   for f in findings)

    def test_no_escape_silent(self):
        findings = check("""
int g;
int *mk(void) { return &g; }
int main(void) { int *p = mk(); return *p; }
""", names=["stackref"])
        assert findings == []

    #: Escapes through a global, the heap and a return; a recursive
    #: call (its own frame stays live); a holder cell that dies with
    #: the frame it points into (``holder``); and a transitive callee
    #: (``outer`` → ``to_global``).
    PINNED = """\
extern void *malloc(unsigned long n);
struct box { int *p; };
int *gp;
struct box *heap;

void to_global(void) { int x; gp = &x; }
void to_heap(int *unused) { int y; heap->p = &y; }
int *to_return(void) { int z; return &z; }
void holder(void) { int w; int *cell = &w; int **pp = &cell; *pp = &w; }
int rec(int n) { int r; if (n) rec(n - 1); gp = &r; return 0; }
void outer(void) { to_global(); }
int main(void) {
    heap = malloc(sizeof(struct box));
    to_global();
    to_heap(0);
    int *p = to_return();
    holder();
    rec(3);
    outer();
    return 0;
}
"""

    GLOBAL = "gp may hold a pointer into the dead frame of {} after " \
        "this call returns"
    FINDINGS = [
        ("main", "call#7", "stackref.c:14", "to_global::x",
         GLOBAL.format("to_global")),
        ("main", "call#10", "stackref.c:15", "to_heap::y",
         "<heap:malloc@main:13>.p may hold a pointer into the dead "
         "frame of to_heap after this call returns"),
        ("main", "call#12", "stackref.c:16", "to_return::z",
         "call may return a pointer into the dead frame of to_return"),
        ("main", "call#17", "stackref.c:18", "rec::r",
         GLOBAL.format("rec")),
        ("main", "call#19", "stackref.c:19", "to_global::x",
         GLOBAL.format("to_global")),
        ("outer", "call#2", "stackref.c:11", "to_global::x",
         GLOBAL.format("to_global")),
    ]

    @pytest.mark.parametrize("flavor", ["insensitive", "sensitive"])
    def test_pinned_findings(self, flavor):
        findings = check(self.PINNED, names=["stackref"], flavor=flavor,
                         name="stackref.c")
        assert [f.key() for f in findings] == [
            ("stackref", flavor, function, node, origin, path,
             "warning", message)
            for function, node, origin, path, message in self.FINDINGS]


class TestWildCall:
    def test_null_function_pointer(self):
        findings = check("""
int main(void) {
    int (*fp)(int) = 0;
    return fp(1);
}
""", names=["wildcall"])
        assert len(findings) >= 1
        assert findings[0].severity == "error"

    def test_uninit_function_pointer(self):
        findings = check("""
int main(void) {
    int (*fp)(int);
    return fp(1);
}
""", names=["wildcall"])
        assert len(findings) >= 1

    def test_valid_indirect_call_silent(self):
        findings = check("""
int f(int a) { return a; }
int main(void) {
    int (*fp)(int) = f;
    return fp(1);
}
""", names=["wildcall"])
        assert findings == []


class TestFlavors:
    SRC = """
int g;
int main(void) {
    int *p = 0;
    if (g) p = &g;
    *p = 1;
    return 0;
}
"""

    def test_ci_and_cs_agree_here(self):
        ci = check(self.SRC, flavor="insensitive")
        cs = check(self.SRC, flavor="sensitive")
        assert [f.key()[:1] + f.key()[2:] for f in ci] \
            == [f.key()[:1] + f.key()[2:] for f in cs]  # flavor differs

    def test_without_hazard_model_null_checkers_silent(self):
        program = lower(self.SRC)  # default lowering: no hazard cells
        result = repro.analyze_insensitive(program)
        assert run_checkers(result, ["nullderef", "uninit"]) == []
