"""End-to-end tests of the command line front end.

The mathematics is covered module by module elsewhere; these tests freeze
the file formats, the text and JSON output, and the exit code contract:
0 success, 2 parse error, 3 precondition error.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import binoids
from binoids import cli, spectrum
from binoids.binoid import BinoidPresentation, Relation
from binoids.cech import local_picard_general, local_picard_groups
from binoids.cli import _HELP, _dump, _format_degrees, main
from binoids.divisors import valuation_matrix
from binoids.errors import PreconditionError
from binoids.exactalg import IntMatrix, cokernel
from binoids.spectrum import SpecPoset

from fixtures import presentation_text, quadric_cone
from oracles import make_rng

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
DATA = pathlib.Path(__file__).resolve().parent / "data"

FAVOURITE_CPLX = """\
# triangle with a tail
vertices: 1 2 3 4
facet: 1 2 3
facet: 3 4
"""

FAVOURITE_BINOID = """\
generators: a b c d
relation: a + d = inf
relation: b + d = inf
"""

CYCLE3_CPLX = """\
vertices: 1 2 3
facet: 1 2
facet: 2 3
facet: 1 3
"""

CYCLE4_CPLX = """\
vertices: 1 2 3 4
facet: 1 2
facet: 2 3
facet: 3 4
facet: 1 4
"""

XY_2Z = """\
generators: x y z
relation: x + y = 2 z
"""

XY_4Z = """\
generators: x y z
relation: x + y = 4 z
"""

XYZW = """\
generators: x y z w
relation: x + y = z + w
"""

XYZW_SMASHED = """\
generators: x y z w t
relation: x + y = z + w
"""

# smashed with free generators, like the slowest picard-general cases of
# the benchmark's integral-units workload
X_Y_5Z_SMASHED = """\
generators: x y z t
relation: x + y = 5 z
"""

TWO_X_3Y_SMASHED_TWICE = """\
generators: x y s t
relation: 2 x = 3 y
"""

SQUARE_POINTS = [(x, y) for x in range(3) for y in range(3)]

NOT_CANCELLATIVE = """\
generators: a b c d
relation: a + d = b + c
relation: 2 a = c + d
"""

RANK_ZERO = """\
generators: g0 g1
relation: g1 + g0 = 2 g0 + 3 g1
relation: g1 + g0 = 1 g0 + 2 g1
"""

# x + z = y + z and 2 x = 2 y: at <z> the unit y - x has order 2
UNIT_OF_ORDER_TWO = """\
generators: x y z
relation: x + z = y + z
relation: 2 x = 2 y
"""

# x + y = 2 x = 2 y, not cancellative, but its units are the lattices
LATTICE_UNITS = """\
generators: x y z
relation: x + y = 2 x
relation: x + y = 2 y
"""

XYZ_INF = """\
generators: x y z
relation: x + y + z = inf
"""

MONOMIAL = """\
variables: x y z
gen: x^2 y z^3
gen: x y^2 z^2
"""


def invoke(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    """A JSON document frozen in tests/data."""
    return json.loads((DATA / name).read_text())


def write(tmp_path, text, name="input.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_missing_file(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "picard", str(tmp_path / "absent.cplx"))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_empty_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "picard", write(tmp_path, "# only a comment\n"))
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_keyword_reports_line(self, capsys, tmp_path):
        text = "vertices: 1 2\nfacet: 1 2\nfct: 1\n"
        code, _, err = invoke(capsys, "picard", write(tmp_path, text))
        assert code == 2
        assert "line 3" in err

    def test_undeclared_vertex_reports_line(self, capsys, tmp_path):
        text = "vertices: 1 2\nfacet: 1 5\n"
        code, _, err = invoke(capsys, "picard", write(tmp_path, text))
        assert code == 2
        assert "line 2" in err

    def test_duplicate_vertices_line(self, capsys, tmp_path):
        text = "vertices: 1 2\nvertices: 3\n"
        code, _, err = invoke(capsys, "picard", write(tmp_path, text))
        assert code == 2
        assert "line 2" in err

    def test_relation_without_equals(self, capsys, tmp_path):
        text = "generators: x y\nrelation: x + y\n"
        code, _, err = invoke(capsys, "spec", write(tmp_path, text))
        assert code == 2
        assert "line 2" in err

    def test_relation_unknown_generator(self, capsys, tmp_path):
        text = "generators: x y\nrelation: x = 2 q\n"
        code, _, err = invoke(capsys, "spec", write(tmp_path, text))
        assert code == 2
        assert "line 2" in err

    def test_relation_with_equal_sides(self, capsys, tmp_path):
        text = "generators: g0 g1\nrelation: g0 + g1 = 1 g0 + 1 g1\n"
        code, out, err = invoke(capsys, "picard-general", write(tmp_path, text))
        assert (code, out) == (2, "")
        assert err == "error: line 2: the two sides of the relation are equal\n"

    def test_bad_coefficient(self, capsys, tmp_path):
        text = "generators: x y\nrelation: x = 1.5 y\n"
        code, _, err = invoke(capsys, "spec", write(tmp_path, text))
        assert code == 2

    def test_infinity_on_the_left(self, capsys, tmp_path):
        text = "generators: x y\nrelation: inf = x + y\n"
        code, _, err = invoke(capsys, "spec", write(tmp_path, text))
        assert code == 2

    def test_bad_power(self, capsys, tmp_path):
        text = "variables: x y\ngen: x^a y\n"
        code, _, err = invoke(capsys, "monomial-report", write(tmp_path, text))
        assert code == 2
        assert "line 2" in err

    def test_json_mirror_input(self, capsys, tmp_path):
        mirror = json.dumps(
            {"vertices": [1, 2, 3, 4], "facets": [[1, 2, 3], [3, 4]]}
        )
        path = write(tmp_path, mirror, name="favourite.json")
        code, out, _ = invoke(capsys, "picard", path)
        assert code == 0
        assert out == "H^0 = 0, H^1 = Z\n"

    def test_malformed_json(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "picard", write(tmp_path, '{"vertices": [1, 2')
        )
        assert code == 2

    def test_json_missing_key(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "picard", write(tmp_path, '{"vertices": [1, 2]}')
        )
        assert code == 2

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"vertices": ["a", "b", "c"], "facets": ["abc"]}', "facet 1 is not an array"),
            ('{"vertices": [1.0, 2], "facets": [[2]]}', "label 1.0 is neither"),
            ('{"vertices": [true, 2], "facets": [[2]]}', "label true is neither"),
            ('{"vertices": [[1], 2], "facets": [[2]]}', "label [1] is neither"),
        ],
        ids=["string-facet", "float-label", "bool-label", "list-label"],
    )
    def test_json_facets_are_arrays_of_int_or_string_labels(
        self, capsys, tmp_path, document, message
    ):
        code, out, err = invoke(capsys, "picard", write(tmp_path, document))
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "verb, text, message",
        [
            ("picard", "vertices: 1 2\nfacet 1 2\n", "line 2: expected 'key: values'"),
            ("picard", "facet: 1 2\n",
             "line 1: file must start with 'vertices:', 'generators:' or 'variables:'"),
            ("picard", "vertices: 1 a 1\n", "line 1: duplicate vertex label"),
            ("picard", "vertices: a b\nfacet: a c\n", "line 2: vertex 'c' not declared"),
            ("picard", "vertices: 1 2\nfacet: 1 2 1\n", "line 2: facet repeats a vertex"),
            ("spec", "generators: x x\n", "line 1: duplicate generator name"),
            ("spec", "generators: x y\nrelation: x = 2 y z\n", "line 2: cannot read term '2 y z'"),
            ("spec", "generators: x y\nrelation: x = -1 y\n",
             "line 2: coefficients must be nonnegative"),
            ("monomial-report", "variables: x x\n", "line 1: duplicate variable name"),
            ("monomial-report", "variables: x y\ngen:\n",
             "line 2: a generator needs at least one variable"),
            ("monomial-report", "variables: x y\ngen: x^0 y\n", "line 2: powers must be positive"),
            ("monomial-report", "variables: x y\ngen: x q\n", "line 2: unknown variable 'q'"),
            ("picard", '{"vertices": {}, "facets": []}', "'vertices' and 'facets' must be lists"),
            ("picard", '{"vertices": [1, 2], "facets": [[1, 3]]}', "vertex 3 not declared"),
            ("picard", '{"vertices": [1, 1], "facets": [[1]]}', "duplicate vertex labels"),
            ("spec", '{"vertices": [1, "1"], "facets": [[1, "1"]]}',
             "two vertices print as 1"),
            ("picard", '{"vertices": ["a", 2, "2"], "facets": [["a"]]}',
             "two vertices print as 2"),
            ("picard", '{"vertices": [1, 2], "facets": [[2, 1, 2]]}',
             "face with repeated vertex: (2, 1, 2)"),
        ],
        ids=["no-colon", "first-key", "duplicate-vertex", "undeclared-name", "facet-repeats",
             "duplicate-generator", "bad-term", "negative-coefficient", "duplicate-variable",
             "empty-gen", "zero-power", "unknown-variable", "json-not-lists", "json-undeclared",
             "json-duplicate-vertex", "json-same-print", "json-same-print-unused",
             "json-facet-repeats"],
    )
    def test_rejected_input_names_the_fault(self, capsys, tmp_path, verb, text, message):
        assert invoke(capsys, verb, write(tmp_path, text)) == (2, "", "error: %s\n" % message)

    def test_not_utf8_names_the_byte(self, capsys, tmp_path):
        data = b"vertices: 1 2\nfacet: 1 \xff 2\n"
        path = tmp_path / "latin1.cplx"
        path.write_bytes(data)
        code, out, err = invoke(capsys, "picard", str(path))
        assert (code, out) == (2, "")
        assert err == "error: input is not UTF-8: invalid byte at offset %d\n" % data.index(b"\xff")


class TestLineEndings:
    """CRLF and lone-CR files read as their LF originals, as in text mode."""

    MIRROR = '{"vertices": [1, 2, 3, 4],\n "facets": [[1, 2, 3], [3, 4]]}\n'
    CASES = [
        ("# comment\n" + FAVOURITE_CPLX, ["picard", "spec", "nerve"]),
        (FAVOURITE_BINOID, ["spec", "cohomology"]),
        (XY_4Z + "# trailing comment\n", ["class-group", "picard-general"]),
        (MONOMIAL, ["monomial-report"]),
        (MIRROR, ["picard", "sr-cohomology"]),
    ]

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("text, verbs", CASES, ids=["cplx", "binoid", "xy4z", "mono", "json"])
    def test_same_output_as_lf(self, capsys, tmp_path, text, verbs, ending):
        lf = tmp_path / "lf.txt"
        lf.write_bytes(text.encode())
        other = tmp_path / "other.txt"
        other.write_bytes(text.replace("\n", ending).encode())
        for verb in verbs:
            for flags in ([], ["--json"]):
                expected = invoke(capsys, verb, str(lf), *flags)
                assert expected[0] == 0
                assert invoke(capsys, verb, str(other), *flags) == expected

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_json_error_line(self, capsys, tmp_path, ending):
        text = '{\n"vertices": [1, 2],\n"facets": [[1, 2]\n}\n'.replace("\n", ending)
        path = tmp_path / "broken.json"
        path.write_bytes(text.encode())
        code, out, err = invoke(capsys, "picard", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 4: invalid JSON: Expecting ',' delimiter\n"


class TestSpecVerb:
    def test_text_output(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "spec", write(tmp_path, XY_2Z))
        assert code == 0
        assert out == "<inf>\n<x,z>\n<y,z>\n<x,y,z>\n"
        assert err == ""

    def test_json_output(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "spec", write(tmp_path, XY_2Z), "--json")
        assert code == 0
        assert json.loads(out) == {
            "generators": ["x", "y", "z"],
            "primes": [
                {"generators": [], "height": 0},
                {"generators": ["x", "z"], "height": 1},
                {"generators": ["y", "z"], "height": 1},
                {"generators": ["x", "y", "z"], "height": 2},
            ],
        }

    def test_zero_generators_is_precondition_error(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "spec", write(tmp_path, "generators:\n"))
        assert code == 3
        assert err.startswith("error:") and err.count("\n") == 1

    def test_simplicial_input_is_converted(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "spec", write(tmp_path, FAVOURITE_CPLX))
        assert code == 0
        assert len(out.splitlines()) == 10  # one prime per face

    def test_non_positive_relation(self, capsys, tmp_path):
        text = "generators: x y\nrelation: 0 x = y\n"
        code, _, err = invoke(capsys, "spec", write(tmp_path, text))
        assert code == 3


class TestDotVerb:
    def test_dot_output(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "dot", write(tmp_path, XY_2Z))
        assert code == 0
        assert out.startswith("digraph spec {")
        assert '"<x,z>"' in out
        assert out.endswith("}\n")

    def test_spec_dot_flag_is_unknown(self, capsys, tmp_path):
        """DOT output has one spelling, the verb; `--dot` is no option."""
        path = write(tmp_path, XY_2Z)
        error = (2, "", "error: unrecognized arguments: --dot\n")
        assert invoke(capsys, "spec", path, "--dot") == error
        assert invoke(capsys, "dot", path, "--dot") == error

    def test_deterministic(self, capsys, tmp_path):
        path = write(tmp_path, XYZW)
        _, first, _ = invoke(capsys, "dot", path)
        _, second, _ = invoke(capsys, "dot", path)
        assert first == second

    def test_quotes_and_backslashes_in_names_are_escaped(self, capsys, tmp_path):
        """Inside a DOT string a name's quotes and backslashes are escaped;
        other names, and `spec`'s text, print as they are."""
        path = write(tmp_path, 'generators: a"b c\\d e\n')
        code, out, _ = invoke(capsys, "dot", path)
        assert code == 0
        assert out.splitlines()[2:6] == [
            '  p0 [label="<inf>"];',
            r'  p1 [label="<a\"b>"];',
            r'  p2 [label="<c\\d>"];',
            '  p3 [label="<e>"];',
        ]
        assert r'  p7 [label="<a\"b,c\\d,e>"];' in out.splitlines()
        _, text, _ = invoke(capsys, "spec", path)
        assert text.splitlines()[:4] == ["<inf>", '<a"b>', r"<c\d>", "<e>"]


class TestPicardVerb:
    def test_favourite_example(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "picard", write(tmp_path, FAVOURITE_CPLX))
        assert code == 0
        assert out == "H^0 = 0, H^1 = Z\n"

    def test_favourite_as_binoid_file(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "picard", write(tmp_path, FAVOURITE_BINOID))
        assert code == 0
        assert out == "H^0 = 0, H^1 = Z\n"

    def test_cycle(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "picard", write(tmp_path, CYCLE4_CPLX))
        assert code == 0
        assert out == "H^0 = 0, H^1 = Z^4\n"

    def test_json(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "picard", write(tmp_path, FAVOURITE_CPLX), "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "start_degree": 0,
            "groups": [
                {"free_rank": 0, "torsion": []},
                {"free_rank": 1, "torsion": []},
                {"free_rank": 0, "torsion": []},
            ],
        }

    def test_degree_flag(self, capsys, tmp_path):
        path = write(tmp_path, FAVOURITE_CPLX)
        assert invoke(capsys, "picard", path, "--degree", "1")[1] == "H^1 = Z\n"
        assert invoke(capsys, "picard", path, "--degree", "5")[1] == "H^5 = 0\n"

    def test_needs_simplicial(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "picard", write(tmp_path, XY_2Z))
        assert code == 3
        assert err.startswith("error:")


class TestPicardGeneralVerb:
    def test_torsion_class(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "picard-general", write(tmp_path, XY_4Z))
        assert code == 0
        assert out == "H^0 = 0, H^1 = Z/4\n"

    def test_free_class(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "picard-general", write(tmp_path, XYZW))
        assert code == 0
        assert out == "H^0 = 0, H^1 = Z\n"

    @pytest.mark.parametrize(
        "text, lines",
        [
            (XYZW, ["H^0 = 0, H^1 = Z", "H^0 = 0", "H^1 = Z", "H^2 = 0", "H^3 = 0", "H^4 = 0"]),
            (XYZW_SMASHED, ["H^0 = 0, H^1 = 0"] + ["H^%d = 0" % j for j in range(6)]),
            (presentation_text(quadric_cone(SQUARE_POINTS)),
             ["H^0 = 0, H^1 = Z + Z/2", "H^0 = 0", "H^1 = Z + Z/2", "H^2 = 0", "H^3 = 0",
              "H^4 = 0"]),
        ],
        ids=["x+y=z+w", "x+y=z+w smashed", "square cone"],
    )
    def test_text_of_every_degree(self, capsys, tmp_path, text, lines):
        """The text as the Čech complex on all intersections of the k cover
        opens printed it, then --degree J for each J from 0 to k."""
        path = write(tmp_path, text)
        assert invoke(capsys, "picard-general", path) == (0, lines[0] + "\n", "")
        for j, line in enumerate(lines[1:]):
            got = invoke(capsys, "picard-general", path, "--degree", str(j))
            assert got == (0, line + "\n", "")

    def test_units_that_are_the_lattices(self, capsys, tmp_path):
        # not cancellative, but every prime's units are its lattice
        assert invoke(capsys, "picard-general", write(tmp_path, LATTICE_UNITS)) == (
            0, "H^0 = 0, H^1 = 0\n", ""
        )

    def test_json(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "picard-general", write(tmp_path, XY_2Z), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"groups", "cover", "complex"}
        assert payload["cover"] == [[0], [1]]
        assert payload["groups"] == [
            {"free_rank": 0, "torsion": []},
            {"free_rank": 0, "torsion": [2]},
        ]
        assert payload["complex"]["ranks"] == [2, 2]

    @pytest.mark.parametrize(
        "text, document",
        [
            (
                XY_2Z,
                {
                    "complex": {
                        "differentials": [[[-1, -1], [0, 2]]],
                        "labels": [[[[0], 0], [[1], 0]], [[[0, 1], 0], [[0, 1], 1]]],
                        "ranks": [2, 2],
                    },
                    "cover": [[0], [1]],
                    "groups": [
                        {"free_rank": 0, "torsion": []},
                        {"free_rank": 0, "torsion": [2]},
                    ],
                },
            ),
            (
                XYZW,
                {
                    "complex": {
                        "differentials": [
                            [[-1, 0, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0], [0, 0, 0, 1],
                             [0, -1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]],
                            [[1, 0, -1, 0, 1, 0, -1, 0],
                             [0, 1, 0, 0, -1, -1, 1, 0],
                             [0, 1, 0, 1, 0, -1, 0, -1]],
                        ],
                        "labels": [
                            [[[0], 0], [[1], 0], [[2], 0], [[3], 0]],
                            [[[0, 2], 0], [[0, 2], 1], [[0, 3], 0], [[0, 3], 1],
                             [[1, 2], 0], [[1, 2], 1], [[1, 3], 0], [[1, 3], 1]],
                            [[[0, 1, 2, 3], 0], [[0, 1, 2, 3], 1], [[0, 1, 2, 3], 2]],
                        ],
                        "ranks": [4, 8, 3],
                    },
                    "cover": [[0], [1], [2], [3]],
                    "groups": [
                        {"free_rank": 0, "torsion": []},
                        {"free_rank": 1, "torsion": []},
                        {"free_rank": 0, "torsion": []},
                    ],
                },
            ),
            # larger documents, frozen in tests/data: 19 cells of the pyramid
            # over a square, and the cone over the 3 x 3 square, whose
            # H^1 = Z + Z/2 has torsion
            (XYZW_SMASHED, golden("picard_general_xyzw_smashed.json")),
            (presentation_text(quadric_cone(SQUARE_POINTS)),
             golden("picard_general_square_cone.json")),
            (X_Y_5Z_SMASHED, golden("picard_general_x_y_5z_smashed.json")),
            (TWO_X_3Y_SMASHED_TWICE, golden("picard_general_2x_3y_smashed_twice.json")),
        ],
        ids=["x+y=2z", "x+y=z+w", "x+y=z+w smashed", "square cone",
             "x+y=5z smashed", "2x=3y smashed twice"],
    )
    def test_json_document(self, capsys, tmp_path, text, document):
        """The whole document, byte for byte, so a sign or offset slip in a
        differential, or a changed cover, label or block, shows."""
        code, out, _ = invoke(capsys, "picard-general", write(tmp_path, text), "--json")
        assert code == 0
        assert out == json.dumps(document, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_rank_zero_difference_group(self, capsys, tmp_path, json_flag):
        code, out, err = invoke(
            capsys, "picard-general", write(tmp_path, RANK_ZERO), *json_flag
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: not cancellative: the generators outside the prime <g0> "
            "are not the generators on a face of the cone\n"
        )

    @pytest.mark.parametrize("n", [7, 12])
    def test_large_torsion_class(self, capsys, tmp_path, n):
        text = "generators: x y z\nrelation: x + y = %d z\n" % n
        code, out, _ = invoke(capsys, "picard-general", write(tmp_path, text))
        assert code == 0
        assert out == "H^0 = 0, H^1 = Z/%d\n" % n

    def test_single_generator(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "picard-general", write(tmp_path, "generators: x\n"))
        assert code == 0
        assert out == "H^0 = Z, H^1 = 0\n"

    def test_not_cancellative_exits_3(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "picard-general", write(tmp_path, NOT_CANCELLATIVE)
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "<a,c>" in err

    def test_not_integral(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "picard-general", write(tmp_path, XYZ_INF))
        assert code == 3


def smashed(M, k, at):
    """M with k free generators t1..tk declared from position `at` on."""
    pad = lambda v: v and v[:at] + (0,) * k + v[at:]  # None, for ∞, stays None
    names = M.generator_names[:at] + tuple("t%d" % i for i in range(1, k + 1))
    relations = [Relation(pad(r.lhs), pad(r.rhs)) for r in M.relations]
    return BinoidPresentation(names + M.generator_names[at:], relations)


def load_text(tmp_path, names, relations):
    """The presentation of a file with these generators and relations."""
    lines = ["generators: " + names] + ["relation: " + r for r in relations]
    return binoids.cli.load_input(write(tmp_path, "\n".join(lines) + "\n", "base.binoid"))


# the integral-units families of the benchmark, as (generators, relations)
FREE_SPLIT_FAMILIES = [("x y z", ["x + y = %d z" % n]) for n in range(1, 13)] + [
    ("x y", ["2 x = 3 y"]),
    ("x y z w", ["x + z = y + w"]),
    ("a", []),
    ("a b", []),
    ("a b c", []),
]

# refused before smashing: a unit of order 2 at <z>; torsion in Γ from more
# relations than generators, so the message's diagonal grows with the
# generators; and an ∞ relation
FREE_SPLIT_REFUSED = [
    ("x y z", ["x + z = y + z", "2 x = 2 y"]),
    ("x y", ["2 x = 2 y", "4 x = 4 y", "6 x = 6 y"]),
    ("x y z", ["x + y = inf"]),
]

P20 = """\
generators: g0 g1 g2 g3 g4 g5 g6 g7 g8 g9 g10 g11 g12 g13 g14 g15 g16 g17 g18 g19
relation: 1 g19 + 2 g8 = 1 g12 + 3 g17
relation: 2 g1 + 1 g5 = 2 g4 + 3 g13
relation: 3 g3 + 1 g18 = 2 g8 + 2 g0
"""


class TestPicardGeneralFreeSplit:
    """picard-general's text splits off free generators (in no relation) and
    prints every group as 0 without cells; it must print what the cell
    route's groups print, and refuse what it refuses with its exit code and
    message.  --json keeps the cell route."""

    def check(self, capsys, tmp_path, M):
        """Assert that the text, whole and at --degree 0..4, is the cell
        route's; return the error message of a refusal, or None."""
        path = write(tmp_path, presentation_text(M))
        message = None
        try:
            groups = local_picard_general(M).groups
        except PreconditionError as error:
            message = str(error)
            with pytest.raises(PreconditionError) as raised:
                local_picard_groups(M)
            assert (type(raised.value), str(raised.value)) == (type(error), message)
            err = "error: %s\n" % message
            assert invoke(capsys, "picard-general", path, "--json") == (3, "", err)
            expected = [(3, "", err)] * 6
        else:
            assert local_picard_groups(M) == groups
            shown = [str(g) for g in groups]
            expected = [(0, _format_degrees(shown), "")]
            expected += [(0, _format_degrees(shown, 0, j), "") for j in range(5)]
        got = [invoke(capsys, "picard-general", path)]
        got += [invoke(capsys, "picard-general", path, "--degree", str(j)) for j in range(5)]
        assert got == expected
        return message

    @pytest.mark.parametrize(
        "names, relations", FREE_SPLIT_FAMILIES,
        ids=["x+y=%dz" % n for n in range(1, 13)] + ["2x=3y", "x+z=y+w", "free1", "free2",
                                                     "free3"],
    )
    def test_families_before_between_and_after(self, capsys, tmp_path, names, relations):
        M = load_text(tmp_path, names, relations)
        for k in (1, 2, 3):
            for at in (0, 1, M.generator_count):
                assert self.check(capsys, tmp_path, smashed(M, k, at)) is None

    @pytest.mark.parametrize(
        "names, relations", FREE_SPLIT_REFUSED, ids=["unit-of-order-2", "torsion", "infinity"]
    )
    def test_refused_bases(self, capsys, tmp_path, names, relations):
        M = load_text(tmp_path, names, relations)
        messages = set()
        for k in (0, 1, 2):
            for at in (0, 1, M.generator_count):
                message = self.check(capsys, tmp_path, smashed(M, k, at))
                assert message is not None
                messages.add(message)
        if "6 x = 6 y" in relations:  # one diagonal entry per generator, up to 3 relations
            assert messages == {"difference group has torsion: diagonal %s" % (d,)
                                for d in [(2, 0), (2, 0, 0)]}

    @pytest.mark.parametrize("seed", range(8))
    def test_random_presentations(self, capsys, tmp_path, seed):
        # one or two relations, each generator on one side or on neither;
        # about half of them are refused, mostly for torsion
        rng = make_rng(seed)
        outcomes = set()
        for _ in range(12):
            n, count = rng.randint(2, 4), rng.randint(1, 2)
            relations = []
            while len(relations) < count:
                sides = [rng.choice("lr-") for _ in range(n)]
                lhs = tuple(rng.randint(1, 3) if s == "l" else 0 for s in sides)
                rhs = tuple(rng.randint(1, 3) if s == "r" else 0 for s in sides)
                if any(lhs) and any(rhs):
                    relations.append(Relation(lhs, rhs))
            M = BinoidPresentation(tuple("g%d" % i for i in range(n)), tuple(relations))
            M = smashed(M, rng.randint(1, 2), rng.randint(0, n))
            outcomes.add(self.check(capsys, tmp_path, M) is None)
        assert outcomes == {True, False}

    def test_p20_builds_no_cells(self, capsys, tmp_path, monkeypatch):
        # nine free generators: the cell route would build 520 * 2^9 cells
        def refuse(S):
            raise AssertionError("a cell complex was built")

        monkeypatch.setattr(binoids.cech, "_cell_complex", refuse)
        path = write(tmp_path, P20)
        assert invoke(capsys, "picard-general", path) == (0, "H^0 = 0, H^1 = 0\n", "")
        assert invoke(capsys, "picard-general", path, "--degree", "3") == (0, "H^3 = 0\n", "")


class TestClassGroupFreeSplit:
    """class-group decides on the presentation without its free generators;
    it must print what the valuation matrix of the whole presentation gives,
    and refuse what that refuses with its exit code and message."""

    def check(self, capsys, tmp_path, M):
        """Assert the text and --json; return the error message of a refusal, or None."""
        path = write(tmp_path, presentation_text(M))
        message = None
        try:
            normals = valuation_matrix(M).normals
        except PreconditionError as error:
            message = str(error)
            expected = [(3, "", "error: %s\n" % message)] * 2
        else:
            rank = len(normals[0]) if normals else 0
            group = cokernel(IntMatrix.from_rows([list(n) for n in normals], cols=rank))
            expected = [(0, str(group) + "\n", ""), (0, _dump(group.to_json()), "")]
        got = [invoke(capsys, "class-group", path), invoke(capsys, "class-group", path, "--json")]
        assert got == expected
        return message

    @pytest.mark.parametrize(
        "names, relations", FREE_SPLIT_FAMILIES,
        ids=["x+y=%dz" % n for n in range(1, 13)] + ["2x=3y", "x+z=y+w", "free1", "free2",
                                                     "free3"],
    )
    def test_families_before_between_and_after(self, capsys, tmp_path, names, relations):
        M = load_text(tmp_path, names, relations)
        for k in (1, 2, 3):
            for at in (0, 1, M.generator_count):
                assert self.check(capsys, tmp_path, smashed(M, k, at)) is None

    @pytest.mark.parametrize(
        "names, relations",
        FREE_SPLIT_REFUSED[1:] + [
            ("g0 g1", ["g1 + g0 = 2 g0 + 3 g1", "g1 + g0 = 1 g0 + 2 g1"]),
            ("a b c d", ["a + d = b + c", "2 a = c + d"]),
        ],
        ids=["torsion", "infinity", "rank-zero", "not-cancellative"],
    )
    def test_refused_bases(self, capsys, tmp_path, names, relations):
        M = load_text(tmp_path, names, relations)
        messages = set()
        for k in (0, 1, 2):
            for at in (0, 1, M.generator_count):
                message = self.check(capsys, tmp_path, smashed(M, k, at))
                assert message is not None
                messages.add(message)
        if "6 x = 6 y" in relations:  # one diagonal entry per generator, up to 3 relations
            assert messages == {"difference group has torsion: diagonal %s" % (d,)
                                for d in [(2, 0), (2, 0, 0)]}

    def test_p20_spectrum_on_its_eleven_used_generators(self, capsys, tmp_path, monkeypatch):
        # nine free generators: the whole spectrum would have 520 * 2^9 primes
        sizes = []
        compute_spec = binoids.divisors.compute_spec

        def recording_compute_spec(M):
            sizes.append(M.generator_count)
            return compute_spec(M)

        monkeypatch.setattr(binoids.divisors, "compute_spec", recording_compute_spec)
        assert invoke(capsys, "class-group", write(tmp_path, P20)) == (0, "Z^4 + Z/2\n", "")
        assert sizes == [11]


class TestCohomologyVerb:
    def test_complex_input(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "cohomology", write(tmp_path, CYCLE4_CPLX))
        assert code == 0
        assert out == "H^0 = Z, H^1 = Z\n"

    def test_reduced(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "cohomology", write(tmp_path, CYCLE3_CPLX), "--reduced"
        )
        assert code == 0
        assert out == "H^-1 = 0, H^0 = 0, H^1 = Z\n"

    def test_binoid_input_uses_cover_nerve(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "cohomology", write(tmp_path, XYZ_INF))
        assert code == 0
        assert out == "H^0 = Z, H^1 = Z\n"

    def test_binoid_reduced(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "cohomology", write(tmp_path, XYZ_INF), "--reduced"
        )
        assert code == 0
        assert out == "H^-1 = 0, H^0 = 0, H^1 = Z\n"

    def test_reduced_degree_minus_one(self, capsys, tmp_path):
        text = "vertices:\nfacet:\n"
        code, out, _ = invoke(
            capsys,
            "cohomology",
            write(tmp_path, text),
            "--reduced",
            "--degree",
            "-1",
        )
        assert code == 0
        assert out == "H^-1 = Z\n"

    def test_reduced_json_records_start_degree(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "cohomology", write(tmp_path, CYCLE3_CPLX), "--reduced", "--json"
        )
        assert code == 0
        assert json.loads(out)["start_degree"] == -1


class TestSrCohomologyVerb:
    def test_triangle_boundary(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "sr-cohomology", write(tmp_path, CYCLE3_CPLX))
        assert code == 0
        assert out == "H^0 = K*, H^1 = K* + Z^3\n"

    def test_favourite(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "sr-cohomology", write(tmp_path, FAVOURITE_CPLX)
        )
        assert code == 0
        assert out == "H^0 = K*, H^1 = Z\n"

    def test_json(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "sr-cohomology", write(tmp_path, CYCLE3_CPLX), "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "degrees": [
                {
                    "constant": {
                        "symbol": "K*",
                        "free": 1,
                        "cotorsion": [],
                        "torsion_sub": [],
                    },
                    "integer": {"free_rank": 0, "torsion": []},
                },
                {
                    "constant": {
                        "symbol": "K*",
                        "free": 1,
                        "cotorsion": [],
                        "torsion_sub": [],
                    },
                    "integer": {"free_rank": 3, "torsion": []},
                },
            ]
        }


class TestClassGroupVerb:
    def test_torsion(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "class-group", write(tmp_path, XY_4Z))
        assert code == 0
        assert out == "Z/4\n"

    def test_free(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "class-group", write(tmp_path, XYZW))
        assert code == 0
        assert out == "Z\n"

    def test_trivial(self, capsys, tmp_path):
        text = "generators: x y z\n"
        code, out, _ = invoke(capsys, "class-group", write(tmp_path, text))
        assert code == 0
        assert out == "0\n"

    def test_json(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "class-group", write(tmp_path, XY_4Z), "--json"
        )
        assert code == 0
        assert json.loads(out) == {"free_rank": 0, "torsion": [4]}

    def test_non_cancellative(self, capsys, tmp_path):
        text = "generators: x y\nrelation: x + y = 2 y\n"
        code, _, err = invoke(capsys, "class-group", write(tmp_path, text))
        assert code == 3
        assert err.startswith("error:")

    def test_rank_zero_difference_group(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "class-group", write(tmp_path, RANK_ZERO))
        assert (code, out) == (3, "")
        assert err == (
            "error: facet supports do not match the height-1 primes: no facet selects <g0>\n"
        )


class TestPicOpenVerb:
    def test_favourite_weil_locus(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "pic-open", write(tmp_path, FAVOURITE_CPLX))
        assert code == 0
        assert out == "H^0 = Z, H^1 = 0\n"

    def test_triangle_boundary_degree_1(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "pic-open", write(tmp_path, CYCLE3_CPLX), "--degree", "1"
        )
        assert code == 0
        assert out == "H^1 = Z^3\n"


class TestNerveVerb:
    def test_favourite_nerve_is_the_complex(self, capsys, tmp_path):
        # the punctured spectrum of a simplicial binoid has the coordinate
        # cover as its minimal cover, so the nerve gives the complex back
        code, out, _ = invoke(capsys, "nerve", write(tmp_path, FAVOURITE_CPLX))
        assert code == 0
        assert out == (
            "# 1: D(1)\n"
            "# 2: D(2)\n"
            "# 3: D(3)\n"
            "# 4: D(4)\n"
            "vertices: 1 2 3 4\n"
            "facet: 1 2 3\n"
            "facet: 3 4\n"
        )

    def test_xyz_to_infinity(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "nerve", write(tmp_path, XYZ_INF))
        assert code == 0
        assert out == (
            "# 1: D(x)\n"
            "# 2: D(y)\n"
            "# 3: D(z)\n"
            "vertices: 1 2 3\n"
            "facet: 1 2\n"
            "facet: 1 3\n"
            "facet: 2 3\n"
        )

    def test_output_parses_back(self, capsys, tmp_path):
        _, out, _ = invoke(capsys, "nerve", write(tmp_path, XYZ_INF))
        code, round_trip, _ = invoke(
            capsys, "cohomology", write(tmp_path, out, name="nerve.cplx")
        )
        assert code == 0
        assert round_trip == "H^0 = Z, H^1 = Z\n"

    def test_json(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "nerve", write(tmp_path, XY_2Z), "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "cover": [
                {"index": 1, "support": ["x"]},
                {"index": 2, "support": ["y"]},
            ],
            "vertices": [1, 2],
            "facets": [[1, 2]],
        }


    @pytest.mark.parametrize("argv", [["nerve"], ["nerve", "--json"], ["spec", "--json"]])
    def test_complex_builds_no_hasse_diagram(self, capsys, tmp_path, monkeypatch, argv):
        # the cover and the nerve of a complex, and the heights of its
        # primes, are read off its faces; nerve builds no spectrum at all
        def refuse(*args):
            raise AssertionError("the Hasse diagram or the spectrum was built")

        monkeypatch.setattr(SpecPoset, "_hasse_diagram", refuse)
        if argv[0] == "nerve":
            monkeypatch.setattr(cli, "spectrum_of_complex", refuse)
            monkeypatch.setattr(spectrum, "spectrum_of_complex", refuse)
        code, out, err = invoke(capsys, argv[0], write(tmp_path, FAVOURITE_CPLX), *argv[1:])
        assert (code, err) == (0, "")
        if argv == ["nerve"]:
            assert out.endswith("vertices: 1 2 3 4\nfacet: 1 2 3\nfacet: 3 4\n")


class TestLinkVerb:
    def test_link_of_a_vertex(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "link", write(tmp_path, FAVOURITE_CPLX), "3")
        assert code == 0
        assert out == "vertices: 1 2 4\nfacet: 1 2\nfacet: 4\n"

    def test_link_of_an_edge(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "link", write(tmp_path, FAVOURITE_CPLX), "3", "4"
        )
        assert code == 0
        assert out == "vertices:\nfacet:\n"

    def test_link_json(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "link", write(tmp_path, FAVOURITE_CPLX), "3", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"vertices": [1, 2, 4], "facets": [[1, 2], [4]]}

    def test_link_of_non_face(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "link", write(tmp_path, FAVOURITE_CPLX), "1", "4"
        )
        assert code == 3

    def test_link_needs_labels(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "link", write(tmp_path, FAVOURITE_CPLX))
        assert code == 2

    def test_label_names_the_vertex_that_prints_as_it(self, capsys, tmp_path):
        # "1" is a string vertex here, not the integer the label reads as
        path = write(tmp_path, '{"vertices": ["1", "2", "a"], "facets": [["1", "2"], ["2", "a"]]}')
        assert invoke(capsys, "link", path, "1") == (0, "vertices: 2\nfacet: 2\n", "")
        code, out, _ = invoke(capsys, "link", path, "2", "--json")
        assert code == 0
        assert json.loads(out) == {"vertices": ["1", "a"], "facets": [["1"], ["a"]]}

    def test_label_of_no_printed_vertex_is_read_as_before(self, capsys, tmp_path):
        # no vertex prints as "03", so it reads as the integer 3
        path = write(tmp_path, FAVOURITE_CPLX)
        assert invoke(capsys, "link", path, "03") == invoke(capsys, "link", path, "3")
        code, _, err = invoke(capsys, "link", path, "5")
        assert (code, err) == (3, "error: vertex 5 not in complex\n")


class TestMonomialReportVerb:
    def test_non_radical_report(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "monomial-report", write(tmp_path, MONOMIAL)
        )
        assert code == 0
        assert out == (
            "facets: x y | x z | y z\n"
            "radical: no\n"
            "H^0 = K*\n"
            "H^1 = K* + Z^3\n"
            "nonvanishing H^1: yes\n"
            "unipotent part: NOT COMPUTED\n"
        )

    def test_radical_report(self, capsys, tmp_path):
        text = "variables: x y z\ngen: x y z\n"
        code, out, _ = invoke(capsys, "monomial-report", write(tmp_path, text))
        assert code == 0
        assert "radical: yes\n" in out

    def test_json(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "monomial-report", write(tmp_path, MONOMIAL), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["is_radical"] is False
        assert payload["nonvanishing_h1"] is True
        assert payload["unipotent_part"] == "NOT COMPUTED"
        assert payload["complex"] == [["x", "y"], ["x", "z"], ["y", "z"]]

    def test_element_relation_rejected(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "monomial-report", write(tmp_path, XY_2Z))
        assert code == 3


class TestPreconditionDiagnostics:
    """A precondition error names the relation or prime at fault, on one line."""

    @pytest.mark.parametrize(
        "verb, text, message",
        [
            ("picard", XY_2Z, "element relation present: x + y = 2 z"),
            (
                "sr-cohomology",
                "generators: x y z\nrelation: x + 2 z = inf\n",
                "relation is not squarefree: x + 2 z = inf",
            ),
            (
                "monomial-report",
                XYZW,
                "all relations must send a monomial to infinity, not x + y = z + w",
            ),
            (
                "class-group",
                XYZ_INF,
                "∞-relation present; the binoid is not integral: x + y + z = inf",
            ),
            (
                "picard-general",
                XYZ_INF,
                "∞-relation present; the binoid is not integral: x + y + z = inf",
            ),
            (
                "class-group",
                NOT_CANCELLATIVE,
                "facet supports do not match the height-1 primes: no facet selects <a,c>",
            ),
            (
                "picard-general",
                UNIT_OF_ORDER_TWO,
                "not cancellative: the units at the prime <z> are not the lattice "
                "the generators outside it span in the difference group",
            ),
        ],
        ids=["element", "squarefree", "monomial", "integral-cl", "integral-pic", "facets",
             "units"],
    )
    def test_names_the_culprit(self, capsys, tmp_path, verb, text, message):
        code, out, err = invoke(capsys, verb, write(tmp_path, text))
        assert (code, out) == (3, "")
        assert err == "error: %s\n" % message


class TestComplexWithoutVertices:
    """The spectrum verbs refuse the void complex and {∅}, which have no vertex."""

    NO_VERTEX = (3, "", "error: need a complex with at least one vertex\n")

    @pytest.mark.parametrize("verb", ["spec", "dot", "nerve", "pic-open"])
    @pytest.mark.parametrize(
        "text", ["vertices:\n", '{"vertices": [], "facets": [[]]}\n'], ids=["void", "empty"]
    )
    def test_exits_3(self, capsys, tmp_path, verb, text):
        assert invoke(capsys, verb, write(tmp_path, text)) == self.NO_VERTEX

    def test_pic_open_of_an_all_infinity_presentation(self, capsys, tmp_path):
        """Every generator is sent to ∞, so the complex is {∅}."""
        text = "generators: x y\nrelation: x = inf\nrelation: y = inf\n"
        assert invoke(capsys, "pic-open", write(tmp_path, text)) == self.NO_VERTEX


class TestFlagValidation:
    def test_unknown_verb(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "frobnicate", write(tmp_path, XY_2Z))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_degree_rejected_where_meaningless(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys, "class-group", write(tmp_path, XY_4Z), "--degree", "1"
        )
        assert code == 2

    def test_reduced_only_for_cohomology(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys, "picard", write(tmp_path, FAVOURITE_CPLX), "--reduced"
        )
        assert code == 2

    def test_dot_is_unknown_option(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "picard", write(tmp_path, FAVOURITE_CPLX), "--dot"
        )
        assert (code, err) == (2, "error: unrecognized arguments: --dot\n")

    def test_negative_degree_without_reduced(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys, "picard", write(tmp_path, FAVOURITE_CPLX), "--degree", "-1"
        )
        assert code == 2

    def test_stray_labels(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys, "picard", write(tmp_path, FAVOURITE_CPLX), "3"
        )
        assert code == 2

    def test_bound_only_for_picard_general(self, capsys, tmp_path):
        # --bound is gone for picard-general, and no other verb ever took it.
        code, out, err = invoke(
            capsys, "picard", write(tmp_path, FAVOURITE_CPLX), "--bound", "3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--bound" in err

    def test_negative_bound(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "picard-general", write(tmp_path, XY_2Z), "--bound", "-2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--bound" in err

    def test_bound_is_unknown_option(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "picard-general", write(tmp_path, XY_2Z), "--bound", "6"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--bound" in err

    def test_deterministic_output(self, capsys, tmp_path):
        path = write(tmp_path, FAVOURITE_CPLX)
        _, first, _ = invoke(capsys, "picard", path, "--json")
        _, second, _ = invoke(capsys, "picard", path, "--json")
        assert first == second


TWO_POINTS = "vertices: 1 2\nfacet: 1\nfacet: 2\n"
NEGATIVE_LABEL = "vertices: -3 1 2\nfacet: -3 1\nfacet: 1 2\n"
PICARD_TEXT = "H^0 = Z^2, H^1 = 0\n"
PICARD_JSON = '{\n  "groups": [\n    {\n      "free_rank": 2,\n      "torsion": []\n    }\n  ],\n  "start_degree": 0\n}\n'
DOT_TEXT = """\
digraph spec {
  rankdir=BT;
  p0 [label="<1>"];
  p1 [label="<2>"];
  p2 [label="<1,2>"];
  p0 -> p2;
  p1 -> p2;
}
"""
REDUCED_TEXT = "H^-1 = 0, H^0 = Z\n"
LINK_TEXT = "vertices: 1\nfacet: 1\n"
LINK_JSON = '{\n  "facets": [\n    [\n      1\n    ]\n  ],\n  "vertices": [\n    1\n  ]\n}\n'
OK, BAD = "", "error:"

# argv, with P the two points and N a complex with the vertex -3, and the
# exit code, stdout and first word of stderr it gives
ARGV_TABLE = [
    (["--json", "picard", "P"], 0, PICARD_JSON, OK),
    (["picard", "--json", "P"], 0, PICARD_JSON, OK),
    (["picard", "P", "--json"], 0, PICARD_JSON, OK),
    (["dot", "P"], 0, DOT_TEXT, OK),
    (["--dot", "spec", "P"], 2, "", BAD),
    (["spec", "--dot", "P"], 2, "", BAD),
    (["spec", "P", "--dot"], 2, "", BAD),
    (["--reduced", "cohomology", "P"], 0, REDUCED_TEXT, OK),
    (["cohomology", "--reduced", "P"], 0, REDUCED_TEXT, OK),
    (["cohomology", "P", "--reduced"], 0, REDUCED_TEXT, OK),
    (["--degree", "0", "picard", "P"], 0, "H^0 = Z^2\n", OK),
    (["picard", "--degree", "0", "P"], 0, "H^0 = Z^2\n", OK),
    (["picard", "P", "--degree", "0"], 0, "H^0 = Z^2\n", OK),
    (["picard", "P", "--degree=1"], 0, "H^1 = 0\n", OK),
    (["picard", "P", "--deg", "1"], 0, "H^1 = 0\n", OK),
    (["picard", "P", "--deg=1"], 0, "H^1 = 0\n", OK),
    (["picard", "P", "--d", "1"], 0, "H^1 = 0\n", OK),
    (["picard", "P", "--json=1"], 2, "", BAD),
    (["picard", "P", "--jso"], 0, PICARD_JSON, OK),
    (["--", "picard", "P"], 0, PICARD_TEXT, OK),
    (["--json", "--", "picard", "P"], 0, PICARD_JSON, OK),
    (["picard", "P", "--", "--json"], 2, "", BAD),
    (["cohomology", "P", "--degree", "-1", "--reduced"], 0, "H^-1 = 0\n", OK),
    (["cohomology", "P", "--reduced", "--degree=-1"], 0, "H^-1 = 0\n", OK),
    (["cohomology", "P", "--degree", "-1"], 2, "", BAD),
    (["cohomology", "P", "--degree", "--reduced"], 2, "", BAD),
    (["link", "N", "-3"], 0, LINK_TEXT, OK),
    (["link", "N", "--", "-3"], 0, LINK_TEXT, OK),
    (["link", "N", "-3", "--json"], 0, LINK_JSON, OK),
    (["link", "N", "--json", "-3"], 0, LINK_JSON, OK),
    (["link", "N", "-x"], 2, "", BAD),
    ([], 2, "", BAD),
    (["picard"], 2, "", BAD),
    (["frobnicate", "P"], 2, "", BAD),
    (["picard", "P", "--bound", "3"], 2, "", BAD),
    (["pic-open", "P", "--json"], 0, PICARD_JSON, OK),
    (["-h"], 0, _HELP, OK),
    (["--help"], 0, _HELP, OK),
    (["picard", "P", "--help"], 0, _HELP, OK),
    (["frobnicate", "-h"], 0, _HELP, OK),
]


class TestArgv:
    @pytest.mark.parametrize(
        "argv, code, stdout, first_word", ARGV_TABLE, ids=[" ".join(row[0]) for row in ARGV_TABLE]
    )
    def test_table(self, capsys, tmp_path, argv, code, stdout, first_word):
        paths = {"P": write(tmp_path, TWO_POINTS, "p.cplx"), "N": write(tmp_path, NEGATIVE_LABEL, "n.cplx")}
        got_code, out, err = invoke(capsys, *[paths.get(token, token) for token in argv])
        assert (got_code, out, err.split(" ", 1)[0]) == (code, stdout, first_word)
        assert err.count("\n") == (first_word == BAD)

    def test_options_between_labels(self, capsys, tmp_path):
        # argparse refused `link FILE --json 3`: its labels came after an option
        path = write(tmp_path, FAVOURITE_CPLX)
        expected = invoke(capsys, "link", path, "3", "--json")
        assert expected[0] == 0
        assert invoke(capsys, "link", path, "--json", "3") == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: VERB, FILE"),
            (["picard"], "the following arguments are required: FILE"),
            (
                ["frobnicate", "P"],
                "argument VERB: invalid choice: 'frobnicate' (choose from 'spec', 'dot', "
                "'picard', 'picard-general', 'cohomology', 'sr-cohomology', 'class-group', "
                "'pic-open', 'nerve', 'link', 'monomial-report')",
            ),
            (["picard", "P", "--bound", "3"], "unrecognized arguments: --bound"),
            (["picard", "P", "-x", "--bogus=1"], "unrecognized arguments: -x --bogus=1"),
            (["picard", "P", "--degree"], "argument --degree: expected one argument"),
            (["picard", "P", "--degree", "one"], "argument --degree: invalid int value: 'one'"),
            (["picard", "P", "--json=1"], "argument --json: ignored explicit argument '1'"),
            (["picard", "P", "--help="], "argument -h/--help: ignored explicit argument ''"),
            (
                ["picard", "P", "--=1"],
                "ambiguous option: --=1 could match --help, --json, --reduced, --degree",
            ),
            (["picard", "P", "--degree", "-1.5"], "argument --degree: invalid int value: '-1.5'"),
            (["picard", "P", "--degree", "-.5"], "argument --degree: invalid int value: '-.5'"),
            (["picard", "P", "-1.x"], "unrecognized arguments: -1.x"),
            (["dot", "P", "--json"], "--json conflicts with DOT output"),
            (["dot", "--json", "P"], "--json conflicts with DOT output"),
            (["spec", "P", "--dot"], "unrecognized arguments: --dot"),
        ],
    )
    def test_error_wording(self, capsys, tmp_path, argv, message):
        path = write(tmp_path, TWO_POINTS)
        argv = [path if token == "P" else token for token in argv]
        assert invoke(capsys, *argv) == (2, "", "error: %s\n" % message)

    def test_help_lists_every_verb_and_is_in_the_readme(self):
        assert _HELP.startswith("usage: binoids VERB FILE [LABEL...]")
        verbs = _HELP.split("verbs:", 1)[1].split("\n\n", 1)[0].replace(",", " ").split()
        assert verbs == list(binoids.cli._HANDLERS)
        assert "```\n" + _HELP + "```\n" in README.read_text(encoding="utf-8")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=25,
)

# quotes, backslashes, control characters and non-ASCII text; long all-int
# and all-str lists repeat a short one
escapes = 'a"\\/\x00\x01\x1f\x7f\n\t\u2028\u00e9\U0001f600'
escaped_text = st.text(st.sampled_from(escapes) | st.characters())
wide_ints = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
json_payloads = st.recursive(
    st.none()
    | st.booleans()
    | wide_ints
    | escaped_text
    | st.lists(wide_ints, min_size=1, max_size=8).map(lambda items: items * 25)
    | st.lists(escaped_text, min_size=1, max_size=8).map(lambda items: items * 25)
    | st.lists(st.booleans() | st.none(), max_size=4),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(escaped_text, children, max_size=6),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    @example({"": [], "a": {}, "b": [True, False, None, -7, [[], {}]], "c": {"d": {"e": [0]}}})
    @example(["\u00e9\u4e2d\U0001f600", '"', "\\", "\x00\x1f\x7f\n\t\u2028", -(2**70)])
    @example({'q"\\\x01\u00e9': "x"})
    def test_matches_json_dumps(self, value):
        assert _dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(json_payloads)
    @example([2**64, -(2**70), 0, 2**64 - 1])
    @example(["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f600", "\u2028\ud800"])
    @example({"": [], "a": {}, "b": [True, False], "c": [None, None], "d": [True, 1, None, "x"]})
    @example([[1, 2], ["a", "b"], [1, "a"], [[]], [{}], [True, 1], [1, True]])
    def test_scalar_lists_match_json_dumps(self, value):
        """Lists of only strs or only ints take one join; bools, None and
        mixed lists take the item-by-item path."""
        assert _dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def run_alone(*args):
    """Run the command line in a fresh interpreter; return (exit code, stdout)."""
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(binoids.__file__))
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-m", "binoids.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
    )
    return proc.returncode, proc.stdout


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        assert run_alone("class-group", write(tmp_path, XY_4Z)) == (0, "Z/4\n")

    def test_consecutive_calls_match_fresh_processes(self, capsys, tmp_path):
        # no flag may leak into the next call
        path = write(tmp_path, FAVOURITE_CPLX)
        calls = [
            ["spec", path, "--json"],
            ["spec", path],
            ["dot", path, "--json"],
            ["cohomology", path, "--reduced", "--degree", "-1"],
            ["cohomology", path],
            ["link", path, "3"],
        ]
        in_process = [invoke(capsys, *argv)[:2] for argv in calls]
        assert in_process == [run_alone(*argv) for argv in calls]
        assert in_process[2][0] == 2


def path_text(n):
    return "vertices: %s\n" % " ".join(map(str, range(1, n + 1))) + "".join(
        "facet: %d %d\n" % (i, i + 1) for i in range(1, n)
    )


def cycle_text(n):
    return "vertices: %s\n" % " ".join(map(str, range(1, n + 1))) + "".join(
        "facet: %d %d\n" % (i, i % n + 1) for i in range(1, n + 1)
    )


SIMPLEX12 = "vertices: %s\nfacet: %s\n" % ((" ".join(map(str, range(1, 13))),) * 2)

# the three relations of the 20-generator presentation P20 in ROADMAP.md,
# without its nine free generators: 11 generators and 520 primes, whose
# Hasse diagram takes the element-relation branch
P20_CORE = """\
generators: g0 g1 g3 g4 g5 g8 g12 g13 g17 g18 g19
relation: 1 g19 + 2 g8 = 1 g12 + 3 g17
relation: 2 g1 + 1 g5 = 2 g4 + 3 g13
relation: 3 g3 + 1 g18 = 2 g8 + 2 g0
"""

# facets of sizes 3, 2, 1 and 2 on labels with a quote, a backslash and
# non-ASCII text: the prime of the vertex \u00e9 lies in no widest facet
MIXED_CPLX = """\
vertices: a b"q c\\d \u00e9 e f
facet: a b"q c\\d
facet: c\\d \u00e9
facet: e
facet: b"q f
"""

# SHA-256 of stdout, recorded before primes were held as bitmasks only
# (`nerve --json` of the 12-simplex and the path: before the nerve of a
# complex was read off its faces; the last three inputs: before `--json`
# joined lists of scalars and wrote `spec --json` one prime at a time); the
# nerve of the 2,000-vertex path is 4,000 lines
OUTPUT_DIGESTS = {
    "simplex12": (SIMPLEX12, {
        "spec": "de8a4854d67b44012192a31a967f87fb0a41fba2f5359ae5948b21cd73d57769",
        "spec --json": "02b5c2e29d1e77516166743c70852cbe0f43bc953e7f54f266b91232161ae227",
        "dot": "972b943f1a429bb953425977bfc9fd66d4c13cc6dccc9d7a020561fda8a2425d",
        "nerve": "86e531fd5d34963b49ee9bf369dbdcf1ee14af316004e7d6c72ac908c9d4ac1d",
        "nerve --json": "22fb60416382a3d1ca1792fd9e97d7eec4733198d40df42bb5f3a1cf110737ed",
    }),
    "cycle64": (cycle_text(64), {
        "spec": "47c286b532facdec876e27119d84348c0804740ec385d3a044728acd4c93b873",
        "spec --json": "ccc6e4e0188951eb8382f13213ded6680c38755eee03ce65f6dbf97687888a81",
        "dot": "a831226af130dcf4a342ad0a7b58d0f5e320ce8c346d616c97b39a26077700b2",
        "nerve": "9f1677d04ec70dcbc78dd78b7dec421e56ac1decb4a7b0411e7795bc3595593c",
        "nerve --json": "fe0358cb213232b3b0e782710151cff7a8071469d798d55f24f942b7fc09230f",
    }),
    "path2000": (path_text(2000), {
        "spec": "cd042f1c157457eb4d064838e0d2f1c2682310ce7c7fa281a02acb65362f21af",
        "nerve": "75f609f27a1146df835485e143259d75824c120ee1bd7fb21c71bd7d18912306",
        "nerve --json": "2a1c9f7357fba624a0cc4103ebe6cf3b87be09fd8bcc4794c99969776e219cc9",
    }),
    "p20-core": (P20_CORE, {
        "spec": "4f4b76428cd902baa938c5c92af2e6b3a61fd2c4b4cf73d4169544f54450f0e6",
        "spec --json": "d353ac0fd790bb7a4c8abbf5551c1ddf39e9f16bde611e689a7b9574148d8138",
        "dot": "d5ac8e3022c1763a70216ceae8553e6e4369604dc25a5604e88a23f151bb6225",
        "nerve": "e176a5dde98e8d3d173ff64a9a1ee47b283151aae729565cc0db3b7da26fc4ce",
        "nerve --json": "fed042bb804ea47f0e23e2bd5f60ed5bbc55ff86c2998d918383b0d2dc7b6659",
        "cohomology": "bfc16a006271243cec3b7e0a4a48aa857dca11d6657a45c6992430801a0ad218",
        "cohomology --json": "25362cf66b81c7305c1226f8ed68f8b6c9052ecfbd6f3818c1e919f1000d38c4",
    }),
    "2x-3y": ("generators: x y\nrelation: 2 x = 3 y\n", {
        "picard-general --json": "ff0940e7315a59c62f2bccc48c1e23d57d3c12d89396d905e6f7a9075d66a54c",
    }),
    "free6": ("generators: a b c d e f\n", {
        "picard-general --json": "2371092623f387613ff9244d0e535080da41c560d4b71e55900ee0cb436b8068",
    }),
    "mixed-labels": (MIXED_CPLX, {
        "spec --json": "00f7e64fb5c4c7f3b6f1b46c34abc3f29df52e0c9a77d25bff51bb07ac12cdc9",
    }),
}


@pytest.mark.parametrize(
    "text, argv, digest",
    [pytest.param(text, argv, digest, id="%s-%s" % (name, argv.replace(" --", "-")))
     for name, (text, digests) in OUTPUT_DIGESTS.items()
     for argv, digest in digests.items()],
)
def test_stdout_digest(capsys, tmp_path, text, argv, digest):
    verb, *flags = argv.split()
    code, out, _ = invoke(capsys, verb, write(tmp_path, text), *flags)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
