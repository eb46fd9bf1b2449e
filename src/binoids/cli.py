"""Command line front end: parse input files, dispatch, print text/JSON/DOT.

Exit codes: 0 success, 2 parse error, 3 precondition error.  All syntax
lives here; the library modules only ever see built values.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .binoid import (
    BinoidPresentation,
    Relation,
    as_simplicial,
    from_simplicial,
)
from .cech import (
    _pic_open_subset,
    local_picard_formula,
    local_picard_general,
    monomial_report,
    stanley_reisner_cohomology,
)
from .divisors import class_group
from .errors import ParseError, PreconditionError, UnknownVertex
from .exactalg import TRIVIAL_GROUP
from .simplicial import SimplicialComplex
from .spectrum import (
    compute_spec,
    minimal_cover,
    nerve,
    prime_label,
    primes_of_height_at_most,
    punctured_spectrum,
    spectrum_of_complex,
    to_dot,
)

_GROUP_VERBS = {"picard", "picard-general", "cohomology", "sr-cohomology", "pic-open"}

_KIND_BY_KEY = {"vertices": "simplicial", "generators": "binoid", "variables": "monomial"}
_BODY_KEY = {"simplicial": "facet", "binoid": "relation", "monomial": "gen"}


# ---------------------------------------------------------------------------
# input files


def _label(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _content_lines(text: str) -> list[tuple[int, str, str]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError("expected 'key: values'", line=lineno)
        lines.append((lineno, key.strip(), value.strip()))
    return lines


def _parse_side(text: str, index: dict, lineno: int) -> tuple:
    vec = [0] * len(index)
    for term in text.split("+"):
        parts = term.split()
        if len(parts) == 1:
            coefficient, name = 1, parts[0]
        elif len(parts) == 2:
            try:
                coefficient = int(parts[0])
            except ValueError:
                raise ParseError(
                    "coefficient %r is not an integer" % parts[0], line=lineno
                )
            name = parts[1]
        else:
            raise ParseError("cannot read term %r" % term.strip(), line=lineno)
        if coefficient < 0:
            raise ParseError("coefficients must be nonnegative", line=lineno)
        if name not in index:
            raise ParseError("unknown generator %r" % name, line=lineno)
        vec[index[name]] += coefficient
    return tuple(vec)


def _build_complex(lines) -> SimplicialComplex:
    first_lineno, _, value = lines[0]
    vertices = [_label(t) for t in value.split()]
    if len(set(vertices)) != len(vertices):
        raise ParseError("duplicate vertex label", line=first_lineno)
    declared = set(vertices)
    facets = []
    for lineno, _, value in lines[1:]:
        face = [_label(t) for t in value.split()]
        for v in face:
            if v not in declared:
                raise ParseError("vertex %r not declared" % (v,), line=lineno)
        if len(set(face)) != len(face):
            raise ParseError("facet repeats a vertex", line=lineno)
        facets.append(tuple(face))
    return SimplicialComplex.make(vertices, facets)


def _build_binoid(lines) -> BinoidPresentation:
    first_lineno, _, value = lines[0]
    names = value.split()
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator name", line=first_lineno)
    index = {name: i for i, name in enumerate(names)}
    relations = []
    for lineno, _, value in lines[1:]:
        sides = value.split("=")
        if len(sides) != 2:
            raise ParseError("a relation needs exactly one '='", line=lineno)
        lhs_text, rhs_text = sides[0].strip(), sides[1].strip()
        if lhs_text == "inf":
            raise ParseError("infinity belongs on the right-hand side", line=lineno)
        lhs = _parse_side(lhs_text, index, lineno)
        rhs = None if rhs_text == "inf" else _parse_side(rhs_text, index, lineno)
        if lhs == rhs:
            raise ParseError("the two sides of the relation are equal", line=lineno)
        relations.append(Relation(lhs, rhs))
    return BinoidPresentation(tuple(names), tuple(relations))


def _build_monomial(lines) -> BinoidPresentation:
    first_lineno, _, value = lines[0]
    names = value.split()
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name", line=first_lineno)
    index = {name: i for i, name in enumerate(names)}
    relations = []
    for lineno, _, value in lines[1:]:
        vec = [0] * len(names)
        tokens = value.split()
        if not tokens:
            raise ParseError("a generator needs at least one variable", line=lineno)
        for token in tokens:
            name, sep, power = token.partition("^")
            if sep:
                try:
                    exponent = int(power)
                except ValueError:
                    raise ParseError("power %r is not an integer" % power, line=lineno)
                if exponent < 1:
                    raise ParseError("powers must be positive", line=lineno)
            else:
                exponent = 1
            if name not in index:
                raise ParseError("unknown variable %r" % name, line=lineno)
            vec[index[name]] += exponent
        relations.append(Relation(tuple(vec), None))
    return BinoidPresentation(tuple(names), tuple(relations))


def _load_json(text: str) -> SimplicialComplex:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e.msg, line=e.lineno)
    if not isinstance(payload, dict) or set(payload) != {"vertices", "facets"}:
        raise ParseError("JSON input needs exactly the keys 'vertices' and 'facets'")
    vertices, facets = payload["vertices"], payload["facets"]
    if not isinstance(vertices, list) or not isinstance(facets, list):
        raise ParseError("'vertices' and 'facets' must be lists")
    for k, facet in enumerate(facets, 1):
        if not isinstance(facet, list):
            raise ParseError("facet %d is not an array" % k)
    for v in vertices + [v for facet in facets for v in facet]:
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise ParseError("label %s is neither an integer nor a string" % json.dumps(v))
    try:
        return SimplicialComplex.make(
            vertices, [tuple(f) for f in facets]
        )
    except (UnknownVertex, ValueError, TypeError) as e:
        raise ParseError(str(e))


def load_input(path: str):
    """Parse a file into a complex or a presentation, sniffing the kind."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as e:
        raise ParseError(str(e))
    if text.lstrip().startswith("{"):
        return _load_json(text)
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty input: no content lines")
    first_lineno, first_key, _ = lines[0]
    if first_key not in _KIND_BY_KEY:
        raise ParseError(
            "file must start with 'vertices:', 'generators:' or 'variables:'",
            line=first_lineno,
        )
    kind = _KIND_BY_KEY[first_key]
    for lineno, key, _ in lines[1:]:
        if key != _BODY_KEY[kind]:
            raise ParseError(
                "unexpected '%s:' line in a %s file" % (key, kind), line=lineno
            )
    builder = {
        "simplicial": _build_complex,
        "binoid": _build_binoid,
        "monomial": _build_monomial,
    }[kind]
    return builder(lines)


# ---------------------------------------------------------------------------
# output


def _format_degrees(entries: list[str], start: int = 0, degree: int | None = None) -> str:
    """One `H^j = ...` per degree; everything beyond the list is trivial."""
    if degree is not None:
        position = degree - start
        text = entries[position] if 0 <= position < len(entries) else "0"
        return "H^%d = %s\n" % (degree, text)
    shown = list(entries)
    if start == 0:
        while len(shown) < 2:
            shown.append("0")
        while len(shown) > 2 and shown[-1] == "0":
            shown.pop()
    return ", ".join("H^%d = %s" % (start + j, t) for j, t in enumerate(shown)) + "\n"


def _groups_payload(groups, start: int = 0) -> dict:
    return {"start_degree": start, "groups": [g.to_json() for g in groups]}


def _pair_text(constant, integer) -> str:
    parts = []
    if not constant.is_trivial:
        parts.append(str(constant))
    if not integer.is_trivial:
        parts.append(str(integer))
    return " + ".join(parts) if parts else "0"


def _complex_text(delta: SimplicialComplex) -> str:
    lines = [("vertices: " + " ".join(str(v) for v in delta.vertices)).rstrip()]
    for facet in delta.facets:
        lines.append(("facet: " + " ".join(str(v) for v in facet)).rstrip())
    return "\n".join(lines) + "\n"


def _complex_payload(delta: SimplicialComplex) -> dict:
    return {
        "vertices": list(delta.vertices),
        "facets": [list(f) for f in delta.facets],
    }


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# dispatch


def _as_binoid(obj) -> BinoidPresentation:
    M = obj if isinstance(obj, BinoidPresentation) else from_simplicial(obj)
    if M.generator_count == 0:
        raise PreconditionError("the presentation has no generators")
    return M


def _as_complex(obj) -> SimplicialComplex:
    return obj if isinstance(obj, SimplicialComplex) else as_simplicial(obj)


def _spectrum(obj):
    if isinstance(obj, SimplicialComplex):
        return spectrum_of_complex(obj)
    return compute_spec(_as_binoid(obj))


def _run_spec(ns, obj):
    S = _spectrum(obj)
    if ns.dot or ns.verb == "dot":
        return to_dot(S)
    if ns.json:
        names = S.generator_names
        payload = {
            "generators": list(names),
            "primes": [
                {"generators": [names[i] for i in p], "height": h}
                for p, h in zip(S.primes, S._hasse_diagram()[1])
            ],
        }
        return _dump(payload)
    return "".join(prime_label(S, p) + "\n" for p in S.primes)


def _run_picard(ns, obj):
    groups = local_picard_formula(_as_complex(obj))
    if ns.json:
        return _dump(_groups_payload(groups))
    return _format_degrees([str(g) for g in groups], 0, ns.degree)


def _run_picard_general(ns, obj):
    result = local_picard_general(_as_binoid(obj))
    if ns.json:
        return _dump(result.to_json())
    return _format_degrees([str(g) for g in result.groups], 0, ns.degree)


def _cover_nerve(obj):
    S = _spectrum(obj)
    cover = minimal_cover(S, punctured_spectrum(S))
    return S, cover, nerve(S, cover)


def _run_cohomology(ns, obj):
    if isinstance(obj, SimplicialComplex):
        delta = obj
    else:
        _, _, delta = _cover_nerve(obj)
    groups = delta.cohomology(reduced=ns.reduced)
    start = -1 if ns.reduced else 0
    if ns.json:
        return _dump(_groups_payload(groups, start))
    return _format_degrees([str(g) for g in groups], start, ns.degree)


def _run_sr_cohomology(ns, obj):
    degrees = stanley_reisner_cohomology(_as_complex(obj))
    if ns.json:
        payload = {
            "degrees": [
                {"constant": constant.to_json(), "integer": integer.to_json()}
                for constant, integer in degrees
            ]
        }
        return _dump(payload)
    entries = [_pair_text(constant, integer) for constant, integer in degrees]
    return _format_degrees(entries, 0, ns.degree)


def _run_class_group(ns, obj):
    group = class_group(_as_binoid(obj))
    if ns.json:
        return _dump(group.to_json())
    return str(group) + "\n"


def _run_pic_open(ns, obj):
    delta = _as_complex(obj)
    S = spectrum_of_complex(delta)
    weil = primes_of_height_at_most(S, 1) & punctured_spectrum(S)
    groups = _pic_open_subset(S, delta, weil)
    if ns.json:
        return _dump(_groups_payload(groups))
    return _format_degrees([str(g) for g in groups], 0, ns.degree)


def _run_nerve(ns, obj):
    S, cover, N = _cover_nerve(obj)
    names = S.generator_names
    supports = [[names[i] for i in sup] for sup in cover]
    if ns.json:
        payload = _complex_payload(N)
        payload["cover"] = [
            {"index": i, "support": sup} for i, sup in enumerate(supports, start=1)
        ]
        return _dump(payload)
    comments = "".join(
        "# %d: D(%s)\n" % (i, ",".join(str(name) for name in sup))
        for i, sup in enumerate(supports, start=1)
    )
    return comments + _complex_text(N)


def _run_link(ns, obj):
    delta = _as_complex(obj)
    face = tuple(_label(t) for t in ns.labels)
    linked = delta.link(face)
    if ns.json:
        return _dump(_complex_payload(linked))
    return _complex_text(linked)


def _run_monomial_report(ns, obj):
    report = monomial_report(_as_binoid(obj))
    if ns.json:
        return _dump(report.to_json())
    facets = " | ".join(
        " ".join(str(v) for v in facet) for facet in report.complex.facets
    )
    lines = [("facets: " + facets).rstrip()]
    lines.append("radical: %s" % ("yes" if report.is_radical else "no"))
    for j, (constant, integer) in enumerate(report.degrees):
        lines.append("H^%d = %s" % (j, _pair_text(constant, integer)))
    lines.append("nonvanishing H^1: %s" % ("yes" if report.nonvanishing_h1 else "no"))
    lines.append("unipotent part: %s" % report.unipotent_part)
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "spec": _run_spec,
    "dot": _run_spec,
    "picard": _run_picard,
    "picard-general": _run_picard_general,
    "cohomology": _run_cohomology,
    "sr-cohomology": _run_sr_cohomology,
    "class-group": _run_class_group,
    "pic-open": _run_pic_open,
    "nerve": _run_nerve,
    "link": _run_link,
    "monomial-report": _run_monomial_report,
}


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="binoids",
        description="Spectra, Picard groups, and class groups of "
        "finitely presented binoids.",
    )
    parser.add_argument("verb", choices=tuple(_HANDLERS), metavar="VERB")
    parser.add_argument("path", metavar="FILE")
    parser.add_argument("labels", nargs="*", metavar="LABEL")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--dot", action="store_true", help="DOT output (spec only)")
    parser.add_argument("--reduced", action="store_true", help="reduced cohomology")
    parser.add_argument("--degree", type=int, metavar="J", help="print one degree")
    return parser


def _validate(ns):
    if ns.labels and ns.verb != "link":
        raise ParseError("unexpected extra arguments: %s" % " ".join(ns.labels))
    if ns.verb == "link" and not ns.labels:
        raise ParseError("link needs at least one vertex label")
    if ns.reduced and ns.verb != "cohomology":
        raise ParseError("--reduced only applies to cohomology")
    if ns.dot and ns.verb not in ("spec", "dot"):
        raise ParseError("--dot only applies to spec")
    if ns.json and (ns.dot or ns.verb == "dot"):
        raise ParseError("--json conflicts with DOT output")
    if ns.degree is not None:
        if ns.verb not in _GROUP_VERBS:
            raise ParseError("--degree does not apply to %s" % ns.verb)
        floor = -1 if ns.reduced else 0
        if ns.degree < floor:
            raise ParseError("--degree must be at least %d" % floor)


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
        _validate(ns)
        text = _HANDLERS[ns.verb](ns, load_input(ns.path))
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except ParseError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except PreconditionError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
