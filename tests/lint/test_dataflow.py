"""Unit tests for the numpy-dtype dataflow R008 reads."""

from __future__ import annotations

import ast
from textwrap import dedent

from repro.lint.dataflow import FunctionDataflow, dtype_from_name

NP = {"np": "numpy"}


def analyze(body: str, imports=NP) -> FunctionDataflow:
    source = "import numpy as np\n" + dedent(body)
    tree = ast.parse(source)
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef))
    return FunctionDataflow(fn, imports=imports)


class TestTransfer:
    def test_scalar_cast_sets_dtype(self):
        df = analyze(
            """
            def f(x):
                word = np.uint32(x)
                return word
            """
        )
        assert df.env["word"].dtype == "uint32"

    def test_astype_sets_dtype(self):
        df = analyze(
            """
            def f(arr):
                narrow = arr.astype(np.uint16)
                return narrow
            """
        )
        assert df.env["narrow"].dtype == "uint16"

    def test_array_ctor_dtype_keyword(self):
        df = analyze(
            """
            def f(n):
                buf = np.empty(n, dtype=np.uint64)
                return buf
            """
        )
        assert df.env["buf"].dtype == "uint64"

    def test_subscript_preserves_dtype(self):
        df = analyze(
            """
            def f(n):
                buf = np.empty(n, dtype=np.uint64)
                block = buf[1:4]
                return block
            """
        )
        assert df.env["block"].dtype == "uint64"

    def test_ufunc_out_sets_dtype(self):
        df = analyze(
            """
            def f(stream, shift, n):
                packed = np.empty(n, dtype=np.uint32)
                result = np.left_shift(
                    stream, shift, out=packed, casting="unsafe"
                )
                return result
            """
        )
        assert df.env["result"].dtype == "uint32"

    def test_concatenate_joins_element_dtypes(self):
        df = analyze(
            """
            def f(a, b):
                joined = np.concatenate(
                    [np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]
                )
                return joined
            """
        )
        assert df.env["joined"].dtype == "int64"

    def test_if_joins_branches(self):
        df = analyze(
            """
            def f(flag, n):
                if flag:
                    x = np.zeros(n, dtype=np.uint16)
                else:
                    x = np.zeros(n, dtype=np.uint32)
                y = np.zeros(n, dtype=np.int64) if flag else x
                return x
            """
        )
        # unsigned widths join to the wider; signed with unsigned is
        # no single dtype
        assert df.env["x"].dtype == "uint32"
        assert df.env["y"].dtype == "unknown"

    def test_definitions_record_every_assignment(self):
        df = analyze(
            """
            def f(flag):
                x = 1
                if flag:
                    x = 2
                return x
            """
        )
        assert len(df.definitions["x"]) == 2


class TestDtypeNames:
    def test_attribute_form(self):
        assert dtype_from_name("np.uint64", {"np"}, {}) == "uint64"
        assert dtype_from_name("np.bogus", {"np"}, {}) is None

    def test_from_import_form(self):
        imports = {"uint32": "numpy.uint32"}
        assert dtype_from_name("uint32", set(), imports) == "uint32"

