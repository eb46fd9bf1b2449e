"""Command line front end: parse input files, dispatch, print text, JSON
(`--json`) or DOT (the `dot` verb).

Exit codes: 0 success, 2 parse error, 3 precondition error.  All syntax
lives here; the library modules only ever see built values.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .binoid import (
    BinoidPresentation,
    Relation,
    as_simplicial,
    from_simplicial,
)
from .cech import (
    _pic_open_cover,
    _weil_cover,
    local_picard_formula,
    local_picard_general,
    local_picard_groups,
    monomial_report,
    stanley_reisner_cohomology,
)
from .divisors import class_group
from .errors import ParseError, PreconditionError, UnknownVertex
from .simplicial import SimplicialComplex
from .spectrum import (
    _complex_cover_nerve,
    _complex_heights,
    _labels,
    _members,
    _punctured_cover,
    compute_spec,
    nerve,
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
                raise ParseError("coefficient %r is not an integer" % parts[0], line=lineno)
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


def _names(lines, kind: str) -> tuple[list, dict]:
    """The names on the first line and the position of each."""
    first_lineno, _, value = lines[0]
    names = value.split()
    if len(set(names)) != len(names):
        raise ParseError("duplicate %s name" % kind, line=first_lineno)
    return names, {name: i for i, name in enumerate(names)}


def _build_binoid(lines) -> BinoidPresentation:
    names, index = _names(lines, "generator")
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
    names, index = _names(lines, "variable")
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
        return SimplicialComplex.make(vertices, [tuple(f) for f in facets])
    except (UnknownVertex, ValueError, TypeError) as e:
        raise ParseError(str(e))


def load_input(path: str):
    """Parse a file into a complex or a presentation, sniffing the kind."""
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as e:
        raise ParseError(str(e))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError("input is not UTF-8: invalid byte at offset %d" % e.start)
    if "\r" in text:  # the universal newlines of text mode
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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


def _groups_output(ns, groups, start: int = 0) -> str:
    """The groups from degree `start` on, as `--json` or one `H^j` per degree."""
    if ns.json:
        return _dump({"start_degree": start, "groups": [g.to_json() for g in groups]})
    return _format_degrees([str(g) for g in groups], start, ns.degree)


def _pair_text(constant, integer) -> str:
    return " + ".join(str(g) for g in (constant, integer) if not g.is_trivial) or "0"


def _complex_text(delta: SimplicialComplex) -> str:
    lines = [("vertices: " + " ".join(map(str, delta.vertices))).rstrip()]
    for facet in delta.facets:
        lines.append(("facet: " + " ".join(map(str, facet))).rstrip())
    return "\n".join(lines) + "\n"


def _complex_payload(delta: SimplicialComplex) -> dict:
    return {"vertices": list(delta.vertices), "facets": [list(f) for f in delta.facets]}


def _dump(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)` plus a newline: with an
    indent the standard library's encoder is pure Python, several calls per
    value.  `spec --json` writes its 2^n primes itself, one string each."""
    out = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_SCALAR_TEXT = {str: _quote, int: int.__repr__}


def _write(value, newline: str, out: list) -> None:
    """Append the JSON text of `value`, whose lines start with `newline`.
    A list of only strs or only ints, such as a row of a dense differential,
    is one join: one C call per item where recursing makes several."""
    if value.__class__ is str:
        out.append(_quote(value))
    elif value.__class__ is int:
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            out.append(separator + _quote(key) + ": ")
            _write(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        if len(kinds) == 1 and (text := _SCALAR_TEXT.get(*kinds)):
            out.append("[" + inner + ("," + inner).join(map(text, value)) + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


# ---------------------------------------------------------------------------
# dispatch


def _as_binoid(obj) -> BinoidPresentation:
    M = obj if isinstance(obj, BinoidPresentation) else from_simplicial(obj)
    if M.generator_count == 0:
        raise PreconditionError("the presentation has no generators")
    return M


def _as_complex(obj) -> SimplicialComplex:
    return obj if isinstance(obj, SimplicialComplex) else as_simplicial(obj)


def _run_spec(ns, obj):
    simplicial = isinstance(obj, SimplicialComplex)
    S = spectrum_of_complex(obj) if simplicial else compute_spec(_as_binoid(obj))
    if ns.verb == "dot":
        return to_dot(S)
    if not ns.json:
        return "".join([label + "\n" for label in _labels(S, S._primes)])
    # _dump's text, one string per prime and each name quoted once
    heights = _complex_heights(obj) if simplicial else S._hasse_diagram()[1]
    names = [_SCALAR_TEXT[type(v)](v) for v in S.generator_names]
    primes = [
        '{\n      "generators": [\n        %s\n      ],\n      "height": %d\n    }'
        % (",\n        ".join(_members(m, names)), h)
        for m, h in zip(S._primes, heights)
    ]
    if not S._primes[0]:  # the empty prime comes first, of height 0
        primes[0] = '{\n      "generators": [],\n      "height": 0\n    }'
    return '{\n  "generators": [\n    %s\n  ],\n  "primes": [\n    %s\n  ]\n}\n' % (
        ",\n    ".join(names), ",\n    ".join(primes))


def _run_picard(ns, obj):
    return _groups_output(ns, local_picard_formula(_as_complex(obj)))


def _run_picard_general(ns, obj):
    M = _as_binoid(obj)
    if ns.json:
        return _dump(local_picard_general(M).to_json())
    return _format_degrees([str(g) for g in local_picard_groups(M)], 0, ns.degree)


def _cover_nerve(obj):
    if isinstance(obj, SimplicialComplex):
        return (obj.vertices, *_complex_cover_nerve(obj))
    S = compute_spec(_as_binoid(obj))
    cover = [support for support, _ in _punctured_cover(S)]
    return S.generator_names, cover, nerve(S, cover)


def _run_cohomology(ns, obj):
    delta = obj if isinstance(obj, SimplicialComplex) else _cover_nerve(obj)[2]
    return _groups_output(ns, delta.cohomology(reduced=ns.reduced), -1 if ns.reduced else 0)


def _run_sr_cohomology(ns, obj):
    degrees = stanley_reisner_cohomology(_as_complex(obj))
    if ns.json:
        pairs = [{"constant": c.to_json(), "integer": i.to_json()} for c, i in degrees]
        return _dump({"degrees": pairs})
    entries = [_pair_text(constant, integer) for constant, integer in degrees]
    return _format_degrees(entries, 0, ns.degree)


def _run_class_group(ns, obj):
    group = class_group(_as_binoid(obj))
    if ns.json:
        return _dump(group.to_json())
    return str(group) + "\n"


def _run_pic_open(ns, obj):
    delta = _as_complex(obj)
    return _groups_output(ns, _pic_open_cover(delta, _weil_cover(delta)))


def _run_nerve(ns, obj):
    names, cover, N = _cover_nerve(obj)
    supports = [[names[i] for i in sup] for sup in cover]
    if ns.json:
        payload = _complex_payload(N)
        payload["cover"] = [{"index": i, "support": s} for i, s in enumerate(supports, 1)]
        return _dump(payload)
    comments = "".join(
        "# %d: D(%s)\n" % (i, ",".join(map(str, s))) for i, s in enumerate(supports, 1)
    )
    return comments + _complex_text(N)


def _run_link(ns, obj):
    delta = _as_complex(obj)
    shown = {str(v): v for v in delta.vertices}
    face = tuple(shown[t] if t in shown else _label(t) for t in ns.labels)
    linked = delta.link(face)
    if ns.json:
        return _dump(_complex_payload(linked))
    return _complex_text(linked)


def _run_monomial_report(ns, obj):
    report = monomial_report(_as_binoid(obj))
    if ns.json:
        return _dump(report.to_json())
    facets = " | ".join(" ".join(map(str, facet)) for facet in report.complex.facets)
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


_HELP = """\
usage: binoids VERB FILE [LABEL...] [--json] [--reduced] [--degree J]

Spectra, Picard groups, and class groups of finitely presented binoids.

verbs: spec, dot, picard, picard-general, cohomology, sr-cohomology,
       class-group, pic-open, nerve, link, monomial-report

options (anywhere; -- ends them):
  -h, --help    show this help and exit
  --json        machine-readable output
  --reduced     reduced cohomology
  --degree J    print one degree (also --degree=J)
"""

# in argparse's order, which the message for an ambiguous prefix keeps
_OPTIONS = ("--help", "--json", "--reduced", "--degree")


class _Args:
    """The command line: VERB FILE [LABEL...] and the options, off by default."""

    json = reduced = False
    degree = None


def _is_option(token: str) -> bool:
    """Whether a token is an option, as argparse reads it: `-` and negative
    numbers such as `-1` or `-.5` are values."""
    if token[:1] != "-" or token == "-":
        return False
    whole, dot, fraction = token[1:].partition(".")
    if dot:
        return not ((not whole or whole.isdecimal()) and fraction.isdecimal())
    return not whole.isdecimal()


def _parse_args(argv: list[str]) -> _Args | None:
    """Read argv with argparse's wording for its errors; None asks for help.

    Options may come anywhere and abbreviate to a unique prefix.
    """
    ns, positionals, unknown = _Args(), [], []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            positionals.extend(tokens)
            break
        if not _is_option(token):
            positionals.append(token)
            continue
        if token == "-h":
            return None
        name, eq, value = token.partition("=")
        matches = [o for o in _OPTIONS if o.startswith(name)] if name[:2] == "--" else []
        if not matches:
            unknown.append(token)
            continue
        if len(matches) > 1:
            raise ParseError("ambiguous option: %s could match %s" % (token, ", ".join(matches)))
        option = matches[0]
        if option == "--degree":
            if not eq:
                value = next(tokens, "--")
                if _is_option(value):
                    raise ParseError("argument --degree: expected one argument")
            try:
                ns.degree = int(value)
            except ValueError:
                raise ParseError("argument --degree: invalid int value: %r" % value)
        elif eq:
            shown = "-h/--help" if option == "--help" else option
            raise ParseError("argument %s: ignored explicit argument %r" % (shown, value))
        elif option == "--help":
            return None
        else:
            setattr(ns, option[2:], True)
    if len(positionals) < 2:
        missing = ("VERB", "FILE")[len(positionals):]
        raise ParseError("the following arguments are required: %s" % ", ".join(missing))
    ns.verb, ns.path, *ns.labels = positionals
    if ns.verb not in _HANDLERS:
        choices = ", ".join(map(repr, _HANDLERS))
        raise ParseError("argument VERB: invalid choice: %r (choose from %s)" % (ns.verb, choices))
    if unknown:
        raise ParseError("unrecognized arguments: %s" % " ".join(unknown))
    return ns


def _validate(ns):
    if ns.labels and ns.verb != "link":
        raise ParseError("unexpected extra arguments: %s" % " ".join(ns.labels))
    if ns.verb == "link" and not ns.labels:
        raise ParseError("link needs at least one vertex label")
    if ns.reduced and ns.verb != "cohomology":
        raise ParseError("--reduced only applies to cohomology")
    if ns.json and ns.verb == "dot":
        raise ParseError("--json conflicts with DOT output")
    if ns.degree is not None:
        if ns.verb not in _GROUP_VERBS:
            raise ParseError("--degree does not apply to %s" % ns.verb)
        floor = -1 if ns.reduced else 0
        if ns.degree < floor:
            raise ParseError("--degree must be at least %d" % floor)


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse_args(sys.argv[1:] if argv is None else argv)
        if ns is None:
            sys.stdout.write(_HELP)
            return 0
        _validate(ns)
        text = _HANDLERS[ns.verb](ns, load_input(ns.path))
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
