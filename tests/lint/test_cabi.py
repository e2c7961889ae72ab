"""R008 C-ABI parity: cdef/kernel/buffer agreement fixtures."""

from __future__ import annotations

from repro.lint.rules.cabi import parse_c_declarations

CLEAN_WRAPPER = """
import numpy as np

CDEF = '''
void kern_fill(const uint64_t *keys, int64_t n, int32_t *counts);
'''

def run(ffi, lib, n):
    keys = np.empty(n, dtype=np.uint64)
    counts = np.empty(n, dtype=np.int32)
    lib.kern_fill(
        ffi.from_buffer("uint64_t[]", keys),
        n,
        ffi.from_buffer("int32_t[]", counts),
    )
    return counts
"""

KERNEL_C = """
#include <stdint.h>

void kern_fill(const uint64_t *keys, int64_t n, int32_t *counts) {
    for (int64_t i = 0; i < n; i++) counts[i] = (int32_t)keys[i];
}
"""


def r008(report):
    return [v for v in report.violations if v.rule_id == "R008"]


class TestDeclarationParser:
    def test_parses_cdef_text(self):
        sigs = parse_c_declarations(
            "void f(const uint64_t *keys, int64_t n);\n"
            "int64_t g(int32_t *out, int32_t banks);"
        )
        assert set(sigs) == {"f", "g"}
        f = sigs["f"]
        assert f.ret == "void"
        assert [(p.base, p.pointer) for p in f.params] == [
            ("uint64_t", True),
            ("int64_t", False),
        ]
        assert f.params[0].name == "keys"

    def test_parses_definitions_with_bodies(self):
        sigs = parse_c_declarations(KERNEL_C)
        assert "kern_fill" in sigs
        assert len(sigs["kern_fill"].params) == 3

    def test_void_params(self):
        sigs = parse_c_declarations("int64_t ticks(void);")
        assert sigs["ticks"].params == ()


class TestCleanWrapper:
    def test_matching_wrapper_and_kernel_lint_clean(self, project):
        project.write("src/wrapper.py", CLEAN_WRAPPER)
        project.write("src/_kern.c", KERNEL_C)
        assert r008(project.lint(["R008"])) == []

    def test_real_native_module_lints_clean(self, project):
        # the real backend is the rule's raison d'être: 8 buffer sites
        from pathlib import Path

        native = (
            Path(__file__).resolve().parents[2] / "src/repro/sim/native.py"
        )
        source = native.read_text(encoding="utf-8")
        assert source.count("from_buffer") == 8
        project.write("src/fixture_native.py", source)
        kernel = native.with_name("_native_kernel.c")
        project.write("src/_native_kernel.c", kernel.read_text())
        assert r008(project.lint(["R008"])) == []


class TestMistypedBuffer:
    def test_wrong_declared_type_fires(self, project):
        project.write(
            "src/wrapper.py",
            CLEAN_WRAPPER.replace(
                'ffi.from_buffer("int32_t[]", counts)',
                'ffi.from_buffer("int64_t[]", counts)',
            ),
        )
        violations = r008(project.lint(["R008"]))
        assert len(violations) == 1
        assert "int64_t" in violations[0].message
        assert violations[0].symbol == "run"

    def test_dtype_mismatch_behind_matching_declaration_fires(self, project):
        project.write(
            "src/wrapper.py",
            CLEAN_WRAPPER.replace(
                "keys = np.empty(n, dtype=np.uint64)",
                "keys = np.empty(n, dtype=np.uint32)",
            ),
        )
        violations = r008(project.lint(["R008"]))
        assert len(violations) == 1
        assert "reinterprets a uint32 array" in violations[0].message

    def test_swapped_buffer_arguments_fire(self, project):
        swapped = CLEAN_WRAPPER.replace(
            'ffi.from_buffer("uint64_t[]", keys),\n        n,\n'
            '        ffi.from_buffer("int32_t[]", counts),',
            'ffi.from_buffer("int32_t[]", counts),\n        n,\n'
            '        ffi.from_buffer("uint64_t[]", keys),',
        )
        assert swapped != CLEAN_WRAPPER
        project.write("src/wrapper.py", swapped)
        assert len(r008(project.lint(["R008"]))) == 2

    def test_arity_mismatch_fires(self, project):
        project.write(
            "src/wrapper.py",
            CLEAN_WRAPPER.replace("        n,\n", ""),
        )
        violations = r008(project.lint(["R008"]))
        assert len(violations) == 1
        assert "takes 3 arguments but this call passes 2" in (
            violations[0].message
        )

    def test_buffer_passed_to_scalar_fires(self, project):
        project.write(
            "src/wrapper.py",
            CLEAN_WRAPPER.replace(
                "        n,\n", '        ffi.from_buffer("int64_t[]", keys),\n'
            ),
        )
        violations = r008(project.lint(["R008"]))
        assert any("argument order is off" in v.message for v in violations)


class TestKernelParity:
    def test_cdef_drift_from_kernel_fires(self, project):
        project.write(
            "src/wrapper.py",
            CLEAN_WRAPPER.replace(
                "const uint64_t *keys, int64_t n",
                "const uint64_t *keys, int32_t n",
            ),
        )
        project.write("src/_kern.c", KERNEL_C)
        violations = r008(project.lint(["R008"]))
        assert len(violations) == 1
        assert "int64_t in the kernel but int32_t in the cdef" in (
            violations[0].message
        )

    def test_missing_kernel_definition_fires(self, project):
        project.write("src/wrapper.py", CLEAN_WRAPPER)
        project.write(
            "src/_kern.c", KERNEL_C.replace("kern_fill", "kern_other")
        )
        violations = r008(project.lint(["R008"]))
        assert len(violations) == 1
        assert "no sibling .c file defines it" in violations[0].message

    def test_no_sibling_kernel_is_silent(self, project):
        # cdef-only wrappers (kernel shipped elsewhere) make no claim
        project.write("src/wrapper.py", CLEAN_WRAPPER)
        assert r008(project.lint(["R008"])) == []


class TestBufferFlow:
    def test_ffi_null_satisfies_pointer(self, project):
        project.write(
            "src/wrapper.py",
            CLEAN_WRAPPER.replace(
                'ffi.from_buffer("int32_t[]", counts)', "ffi.NULL"
            ),
        )
        assert r008(project.lint(["R008"])) == []

    def test_branch_defined_buffer_name_is_traced(self, project):
        project.write(
            "src/wrapper.py",
            """
            import numpy as np

            CDEF = '''
            void kern_fill(const uint64_t *keys, int64_t n, int32_t *counts);
            '''

            def run(ffi, lib, n, want_counts):
                keys = np.empty(n, dtype=np.uint64)
                if want_counts:
                    counts = np.empty(n, dtype=np.int32)
                    count_buffer = ffi.from_buffer("int64_t[]", counts)
                else:
                    count_buffer = ffi.NULL
                lib.kern_fill(
                    ffi.from_buffer("uint64_t[]", keys), n, count_buffer
                )
            """,
        )
        violations = r008(project.lint(["R008"]))
        assert len(violations) == 1
        assert "declared 'int64_t[]'" in violations[0].message

    def test_caller_seeded_param_dtype(self, project):
        # the buffer's array is a *parameter*; its dtype only exists at
        # the call site one function up
        project.write(
            "src/wrapper.py",
            """
            import numpy as np

            CDEF = '''
            void kern_fill(const int64_t *values, int64_t n);
            '''

            def kernel_call(ffi, lib, values, n):
                lib.kern_fill(ffi.from_buffer("int64_t[]", values), n)

            def driver(ffi, lib, parts, n):
                values = np.concatenate(
                    [np.asarray(p, dtype=np.int32) for p in parts]
                )
                kernel_call(ffi, lib, values, n)
            """,
        )
        violations = r008(project.lint(["R008"]))
        assert len(violations) == 1
        assert "reinterprets a int32 array as int64_t[]" in (
            violations[0].message
        )

    def test_pragma_silences(self, project):
        project.write(
            "src/wrapper.py",
            CLEAN_WRAPPER.replace(
                'ffi.from_buffer("int32_t[]", counts),',
                'ffi.from_buffer("int64_t[]", counts),'
                "  # repro-lint: disable=R008",
            ),
        )
        assert r008(project.lint(["R008"])) == []

