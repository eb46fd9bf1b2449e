"""Spans around the public functions of each package layer, installed from outside.

The package is not changed: each public module-level function, plus the
methods listed in METHODS, is replaced by a wrapper in every module that
holds a reference to it (the command line module binds names with
`from .cech import ...`).  O(1) accessors such as IntMatrix.entry are left
alone; they run millions of times and would only measure the tracer.

Spans (name, start, end, parent, case) are kept in memory in one flat
integer array and written out when the run ends.  A span's self time is
its length minus the length of its direct children.
"""

import gzip
import inspect
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "binoid", "spectrum", "simplicial", "cech", "divisors", "exactalg")

METHODS = {
    "exactalg": {"IntMatrix": {"__mul__": "mul"}},
    "simplicial": {"SimplicialComplex": {
        m: m for m in ("has_face", "link", "restriction", "crosscut",
                       "cochain_complex", "cohomology", "cohomology_with_coefficients")}},
    "cech": {"CechComplex": {"cohomology": "cohomology"}},
}

# matrices handed to these are counted in exactalg.matrix_entries / _nnz / max_rows
_MATRIX_ENTRY = {"exactalg.smith_normal_form", "exactalg.complex_cohomology",
                 "exactalg.solve_columns", "exactalg.kernel_basis",
                 "exactalg.column_lattice_basis"}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array("q")  # name, start, end, parent, case per span
        self.stack = []  # [span index, child nanoseconds] of the open spans
        self.case = -1
        self.calls = {}
        self.self_ns = {}
        self.total_ns = {}
        self.counters = {"matrix_entries": 0, "matrix_nnz": 0, "max_rows": 0,
                         "solve_returns": 0, "spec_primes": 0, "spec_candidates": 0,
                         "crosscut_faces": 0, "crosscut_candidates": 0}

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls[name] = self.self_ns[name] = self.total_ns[name] = 0
        count = self._counter(name)
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            index = len(spans) // 5
            parent = stack[-1][0] if stack else -1
            frame = [index, 0]
            spans.extend((nid, 0, 0, parent, self.case))
            stack.append(frame)
            start = perf_counter_ns()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[5 * index + 1] = start
                spans[5 * index + 2] = end
                self.calls[name] += 1
                self.self_ns[name] += end - start - frame[1]
                self.total_ns[name] += end - start
                if count is not None:
                    count(args, result if returned else None, returned)
                if stack:  # the counting above is charged to nobody
                    stack[-1][1] += perf_counter_ns() - start

        return traced

    def _counter(self, name):
        c = self.counters
        if name in _MATRIX_ENTRY:
            def count(args, result, returned):
                for m in args:
                    c["matrix_entries"] += m.rows * m.cols
                    c["matrix_nnz"] += sum(1 for row in m.entries for x in row if x)
                    c["max_rows"] = max(c["max_rows"], m.rows)
                if name == "exactalg.solve_columns" and returned:
                    c["solve_returns"] += 1
            return count
        if name == "spectrum.compute_spec":
            def count(args, result, returned):
                if returned:
                    c["spec_primes"] += len(result.primes)
                    c["spec_candidates"] += 2 ** args[0].generator_count
            return count
        if name == "simplicial.SimplicialComplex.crosscut":
            def count(args, result, returned):
                if returned:
                    c["crosscut_faces"] += len(result.all_faces()) if result.facets else 0
                    c["crosscut_candidates"] += 2 ** len(args[1])
            return count
        return None

    def install(self):
        """Wrap every public function of the layers in every module that binds it."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "binoids" or n.startswith("binoids.")}
        replace = {}
        for layer in LAYERS:
            module = modules["binoids." + layer]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    replace[id(fn)] = self.wrap("%s.%s" % (layer, attr), fn)
            for cls, methods in METHODS.get(layer, {}).items():
                klass = getattr(module, cls)
                for attr, short in methods.items():
                    setattr(klass, attr, self.wrap("%s.%s.%s" % (layer, cls, short),
                                                   vars(klass)[attr]))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])

    def metrics(self, passes, speed):
        """Per-layer metrics, each a per-pass average over `passes` traced passes.

        Times are multiplied by `speed` to bring them to reference speed.
        """
        per = lambda x: x / passes
        calls = lambda n: per(self.calls.get(n, 0))
        self_s = lambda n: speed * per(self.self_ns.get(n, 0)) / 1e9
        ratio = lambda a, b: a / b if b else 0.0
        out = {}
        for layer in LAYERS:
            names = [n for n in self.names if n.split(".", 1)[0] == layer]
            out[layer + ".calls"] = (sum(calls(n) for n in names), "count")
            out[layer + ".self_s"] = (sum(self_s(n) for n in names), "s")
        c = self.counters
        out["cli.load_input_s"] = (speed * per(self.total_ns["cli.load_input"]) / 1e9, "s")
        out["exactalg.complex_cohomology.self_s"] = (self_s("exactalg.complex_cohomology"), "s")
        out["exactalg.IntMatrix.mul.self_s"] = (self_s("exactalg.IntMatrix.mul"), "s")
        out["exactalg.smith_normal_form.calls"] = (calls("exactalg.smith_normal_form"), "count")
        out["exactalg.matrix_entries"] = (per(c["matrix_entries"]), "count")
        out["exactalg.matrix_nnz"] = (per(c["matrix_nnz"]), "count")
        out["exactalg.max_rows"] = (c["max_rows"], "rows")
        solves = self.calls["exactalg.solve_columns"]
        out["exactalg.solve_columns.calls"] = (per(solves), "count")
        out["exactalg.solve_columns.hit_ratio"] = (ratio(c["solve_returns"], solves), "ratio")
        out["cech.units_of_localization.calls"] = (calls("cech.units_of_localization"), "count")
        out["cech.units_of_localization.self_s"] = (self_s("cech.units_of_localization"), "s")
        out["divisors.cone_facets.calls"] = (calls("divisors.cone_facets"), "count")
        out["spectrum.height.calls"] = (calls("spectrum.height"), "count")
        out["spectrum.height.self_s"] = (self_s("spectrum.height"), "s")
        out["spectrum.compute_spec.self_s"] = (self_s("spectrum.compute_spec"), "s")
        out["spectrum.compute_spec.yield_ratio"] = (
            ratio(c["spec_primes"], c["spec_candidates"]), "ratio")
        out["spectrum.compute_spec.candidates"] = (per(c["spec_candidates"]), "count")
        out["binoid.from_simplicial.self_s"] = (self_s("binoid.from_simplicial"), "s")
        out["simplicial.has_face.calls"] = (calls("simplicial.SimplicialComplex.has_face"), "count")
        out["simplicial.crosscut.yield_ratio"] = (
            ratio(c["crosscut_faces"], c["crosscut_candidates"]), "ratio")
        out["simplicial.crosscut.candidates"] = (per(c["crosscut_candidates"]), "count")
        return out

    def write(self, path, case_ids):
        """All spans as CSV: span, name, start_ns, end_ns, parent span, case id."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span,name,start_ns,end_ns,parent,case\n")
            s = self.spans
            for i in range(len(s) // 5):
                n, start, end, parent, case = s[5 * i:5 * i + 5]
                out.write("%d,%s,%d,%d,%d,%s\n" % (
                    i, self.names[n], start, end, parent, case_ids[case] if case >= 0 else ""))
