"""Per-layer tracing from outside the program.

The tracer replaces each traced homforge function or method with a wrapper,
at every binding: the defining module, every other homforge module that
imported the name (``cli``, ``qops`` and ``hombialg`` import functions by
name), aliases under other names, and the package namespace. Methods are
patched on their class, which every caller shares.

Hot layers (called hundreds of thousands of times) keep count-and-time
aggregates only. The other layers also record a span each, kept in memory
and written out when the benchmark ends. Self time is a call's duration
minus the time of the traced calls it made.
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Dict, List, Optional, Tuple

PACKAGE = "homforge"

# (module, qualified name, hot). Hot layers get aggregates, the rest spans.
LAYERS: List[Tuple[str, str, bool]] = [
    ("expr", "parse_poly", False),
    ("homify", "catalog", False),
    ("fdalg", "builtin_algebra", False),
    ("fdalg", "hom_version", False),
    ("fdalg", "check_identity", False),
    ("fdalg", "check_sabinin_axioms", False),
    ("fdalg", "sabinin_from", False),
    ("fdalg", "MultilinearOp.eval", True),
    ("qops", "yiii_hom", False),
    ("qops", "NumericQSolver.q", True),
    ("qops", "QSolver.q", True),
    ("hombialg", "delta", True),
    ("hombialg", "antipode_defect", False),
    ("hombialg", "FreeHomAssocQuotient.reduce", False),
    ("hombialg", "FreeHomAssocQuotient.component", False),
    ("hombialg", "expand_exponents", True),
    ("hombialg", "u_hom_relations", False),
    ("hombialg", "FilteredQuotient.__init__", False),
    ("linalg", "RowSpace.add", True),
    ("linalg", "RowSpace.reduce", True),
]


def layer_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('.__init__', '')}"


class Layer:
    __slots__ = ("calls", "self_s", "counts", "open")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: Dict[str, int] = {}
        self.open = 0  # calls in progress

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


# Extra counters, taken around a call: before(args) -> token, after(layer, token, args, result).
def _q_before(args):
    solver, u, v, z = args[:4]
    return (tuple(u), tuple(v), z) in solver.cache


def _hit_after(layer, hit, args, result):
    if hit:
        layer.bump("hits")


def _component_before(args):
    return args[1] in args[0]._components


def _component_after(layer, hit, args, result):
    if hit:
        layer.bump("hits")
        return
    layer.bump("built")
    layer.bump("monomials", len(result.monomials))
    layer.bump("rank", result.rank)
    layer.bump("truncated", int(result.truncated))


def _check_identity_after(layer, token, args, result):
    layer.bump("tuples", result.checked)


def _yiii_after(layer, token, args, result):
    ops = list(result.brackets.values()) + list(result.phi.values())
    layer.bump("entries", sum(len(op.entries) for op in ops))


def _relations_after(layer, token, args, result):
    layer.bump("relations", len(result))


def _filtered_after(layer, token, args, result):
    layer.bump("rank", args[0].space.rank)


def _defect_after(layer, token, args, result):
    layer.bump("terms", len(result.terms))


def _rowspace_add_after(layer, token, args, result):
    if not result:
        layer.bump("dependent")


HOOKS = {
    "qops.NumericQSolver.q": (_q_before, _hit_after),
    "qops.QSolver.q": (_q_before, _hit_after),
    "hombialg.FreeHomAssocQuotient.component": (_component_before, _component_after),
    "fdalg.check_identity": (None, _check_identity_after),
    "qops.yiii_hom": (None, _yiii_after),
    "hombialg.u_hom_relations": (None, _relations_after),
    "hombialg.FilteredQuotient": (None, _filtered_after),
    "hombialg.antipode_defect": (None, _defect_after),
    "linalg.RowSpace.add": (None, _rowspace_add_after),
}

# Calls of an inner layer also counted on an outer layer while one of the
# outer layer's calls is open: inner -> (outer, counter name).
NESTED_COUNTS = {
    "fdalg.MultilinearOp.eval": ("fdalg.check_identity", "evals"),
    "hombialg.expand_exponents": ("hombialg.u_hom_relations", "expand_calls"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, better, value from the layer table).
def _calls(n):
    return lambda L: L[n].calls


def _self(n):
    return lambda L: L[n].self_s


def _count(n, key):
    return lambda L: L[n].counts.get(key, 0)


def _share(n, key):
    return lambda L: _ratio(L[n].counts.get(key, 0), L[n].calls)


METRICS: Dict[str, Tuple[str, str, object]] = {}


def _metric(name, unit, better, fn):
    METRICS[name] = (unit, better, fn)


for _n in ["expr.parse_poly", "homify.catalog", "fdalg.builtin_algebra",
           "fdalg.MultilinearOp.eval", "fdalg.check_identity"]:
    _metric(f"{_n}.calls", "count", "lower", _calls(_n))
    _metric(f"{_n}.self_s", "s", "lower", _self(_n))
_metric("fdalg.check_identity.tuples", "count", "lower", _count("fdalg.check_identity", "tuples"))
_metric("fdalg.evals_per_tuple", "ratio", "lower",
        lambda L: _ratio(L["fdalg.check_identity"].counts.get("evals", 0),
                         L["fdalg.check_identity"].counts.get("tuples", 0)))
for _n in ["fdalg.check_sabinin_axioms", "fdalg.hom_version", "fdalg.sabinin_from"]:
    _metric(f"{_n}.self_s", "s", "lower", _self(_n))
_metric("qops.yiii_hom.self_s", "s", "lower", _self("qops.yiii_hom"))
_metric("qops.yiii_hom.entries", "count", "lower", _count("qops.yiii_hom", "entries"))
_metric("qops.NumericQSolver.q.calls", "count", "lower", _calls("qops.NumericQSolver.q"))
_metric("qops.NumericQSolver.q.hit_ratio", "ratio", "higher", _share("qops.NumericQSolver.q", "hits"))
_metric("qops.QSolver.q.calls", "count", "lower", _calls("qops.QSolver.q"))
_metric("qops.QSolver.q.self_s", "s", "lower", _self("qops.QSolver.q"))
_metric("qops.QSolver.q.hit_ratio", "ratio", "higher", _share("qops.QSolver.q", "hits"))
_metric("hombialg.expand_exponents.calls", "count", "lower", _calls("hombialg.expand_exponents"))
_metric("hombialg.expand_exponents.self_s", "s", "lower", _self("hombialg.expand_exponents"))
_metric("hombialg.u_hom_relations.self_s", "s", "lower", _self("hombialg.u_hom_relations"))
_metric("hombialg.u_hom_relations.relations", "count", "lower",
        _count("hombialg.u_hom_relations", "relations"))
_metric("hombialg.u_hom_relations.useful_ratio", "ratio", "higher",
        lambda L: _ratio(L["hombialg.u_hom_relations"].counts.get("relations", 0),
                         L["hombialg.u_hom_relations"].counts.get("expand_calls", 0)))
_metric("hombialg.FilteredQuotient.self_s", "s", "lower", _self("hombialg.FilteredQuotient"))
_metric("hombialg.FilteredQuotient.rank", "count", "lower",
        _count("hombialg.FilteredQuotient", "rank"))
_metric("hombialg.delta.calls", "count", "lower", _calls("hombialg.delta"))
_metric("hombialg.delta.self_s", "s", "lower", _self("hombialg.delta"))
_metric("hombialg.antipode_defect.self_s", "s", "lower", _self("hombialg.antipode_defect"))
_metric("hombialg.antipode_defect.terms", "count", "lower",
        _count("hombialg.antipode_defect", "terms"))
_metric("hombialg.FreeHomAssocQuotient.reduce.self_s", "s", "lower",
        _self("hombialg.FreeHomAssocQuotient.reduce"))
_C = "hombialg.FreeHomAssocQuotient.component"
_metric(f"{_C}.self_s", "s", "lower", _self(_C))
_metric(f"{_C}.built", "count", "lower", _count(_C, "built"))
_metric(f"{_C}.hit_ratio", "ratio", "higher", _share(_C, "hits"))
for _k in ["monomials", "rank", "truncated"]:
    _metric(f"{_C}.{_k}", "count", "lower", _count(_C, _k))
_metric("linalg.RowSpace.add.calls", "count", "lower", _calls("linalg.RowSpace.add"))
_metric("linalg.RowSpace.add.self_s", "s", "lower", _self("linalg.RowSpace.add"))
_metric("linalg.RowSpace.add.dependent_ratio", "ratio", "lower",
        _share("linalg.RowSpace.add", "dependent"))
_metric("linalg.RowSpace.reduce.calls", "count", "lower", _calls("linalg.RowSpace.reduce"))
_metric("linalg.RowSpace.reduce.self_s", "s", "lower", _self("linalg.RowSpace.reduce"))
_metric("trace.overhead_s", "s", "lower", None)  # computed by the runner

# Metrics that the layer table predicts to move on each workload: each must
# be nonzero there (the wrapper self-test).
SHOULD_MOVE = {
    "fd-verify": [
        "homify.catalog.calls", "fdalg.builtin_algebra.calls",
        "fdalg.MultilinearOp.eval.calls", "fdalg.check_identity.calls",
        "fdalg.check_identity.tuples", "fdalg.evals_per_tuple",
        "fdalg.check_sabinin_axioms.self_s", "fdalg.hom_version.self_s",
        "fdalg.sabinin_from.self_s", "qops.yiii_hom.self_s", "qops.yiii_hom.entries",
        "qops.NumericQSolver.q.calls", "qops.NumericQSolver.q.hit_ratio",
    ],
    "antipode-fresh": [
        "expr.parse_poly.calls", "hombialg.delta.calls",
        "hombialg.antipode_defect.self_s", "hombialg.antipode_defect.terms",
        "hombialg.FreeHomAssocQuotient.reduce.self_s",
        f"{_C}.self_s", f"{_C}.built", f"{_C}.monomials", f"{_C}.rank",
        "linalg.RowSpace.add.calls", "linalg.RowSpace.add.dependent_ratio",
        "linalg.RowSpace.reduce.calls",
    ],
    "antipode-shared": [
        "hombialg.delta.calls", "hombialg.antipode_defect.terms",
        "hombialg.FreeHomAssocQuotient.reduce.self_s",
        f"{_C}.built", f"{_C}.hit_ratio", "linalg.RowSpace.add.calls",
    ],
    "envelope": [
        "qops.QSolver.q.calls", "qops.QSolver.q.self_s", "qops.QSolver.q.hit_ratio",
        "hombialg.expand_exponents.calls", "hombialg.expand_exponents.self_s",
        "hombialg.u_hom_relations.self_s", "hombialg.u_hom_relations.relations",
        "hombialg.u_hom_relations.useful_ratio", "hombialg.FilteredQuotient.self_s",
        "hombialg.FilteredQuotient.rank", "linalg.RowSpace.add.calls",
        "linalg.RowSpace.reduce.calls", "qops.yiii_hom.self_s", "fdalg.sabinin_from.self_s",
    ],
}


class Tracer:
    """Wraps the traced layers of the imported homforge while the context is open."""

    def __init__(self):
        self.layers: Dict[str, Layer] = {}
        self.spans: List[tuple] = []  # (id, parent id, job, layer, start, end)
        self._stack: List[list] = [[0.0, None]]  # frames: [child time, nearest span id]
        self._patches: List[Tuple[object, str, object]] = []  # (owner, attribute, original)
        self._job: Optional[str] = None
        self._next_id = 0

    # -- installing --------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def __enter__(self):
        for module, qualname, _ in LAYERS:
            self.layers[layer_name(module, qualname)] = Layer()
        for module, qualname, hot in LAYERS:
            name = layer_name(module, qualname)
            owner = sys.modules[f"{PACKAGE}.{module}"]
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(name, original, hot)
            if len(parts) > 1:  # a method: patch the class every caller shares
                self._patch(owner, parts[-1], original, wrapper)
                continue
            for mod in self._modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrapped_bindings(self) -> List[str]:
        """Bindings of a traced function that still point at the original."""
        originals = {id(orig) for _, _, orig in self._patches}
        return [
            f"{mod.__name__}.{attr}"
            for mod in self._modules()
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hot):
        layer = self.layers[name]
        before, after = HOOKS.get(name, (None, None))
        outer, key = NESTED_COUNTS.get(name, (None, None))
        outer = self.layers[outer] if outer else None
        stack, clock, tracer = self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            if hot:
                frame = [0.0, stack[-1][1]]
            else:
                tracer._next_id += 1
                frame = [0.0, tracer._next_id]
            stack.append(frame)
            layer.open += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                layer.open -= 1
                stack.pop()
                elapsed = end - start
                stack[-1][0] += elapsed
                layer.calls += 1
                layer.self_s += elapsed - frame[0]
                if not hot:
                    tracer.spans.append(
                        (frame[1], stack[-1][1], tracer._job, name, start, end)
                    )
            if outer is not None and outer.open:
                outer.bump(key)
            if after:
                after(layer, token, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def job(self, label: str):
        """Make one job the root span of the layer calls it makes."""
        self._next_id += 1
        frame = [0.0, self._next_id]
        self._job = label
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((frame[1], None, label, "job", start, end))
            self._job = None

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> Dict[str, float]:
        """Every per-layer metric, as totals per pass of the job list."""
        out = {}
        for name, (unit, _, fn) in METRICS.items():
            if fn is None:
                continue
            value = fn(self.layers)
            if unit == "ratio":
                out[name] = value
            elif isinstance(value, int) and value % passes == 0:
                out[name] = value // passes
            else:
                out[name] = value / passes
        return out
