"""Span tracer for the benchmark's traced runs.

The tracer replaces the public functions of the orbitcal layer modules
with thin wrappers that record one span per call: name, start, end,
parent span and the benchmark op it belongs to.  Spans stay in memory
until the run ends.  Every replaced attribute is put back by
``uninstall``, so an untraced run never sees a wrapper.

Names are looked up where the program looks them up: a function that
``decider`` imported by name is replaced in ``decider`` as well as in
its defining module, and ``ConsistencyWitness.verify`` is replaced on
the class.  The term-dict kernels are found by attribute name in every
loaded orbitcal module, so their spans keep the name
``polyring.kernels.<kernel>`` wherever the kernels end up living.
Four private helpers of ``elim`` are wrapped as well (``ELIM_HELPERS``),
where they still exist.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("exactmath", "polyring", "decider", "repmodel", "elim", "torusoracle", "degbound", "cli")
KERNELS = ("terms_mul", "term_times_into", "add_scaled_inplace")
KERNEL_PREFIX = "polyring.kernels."
# Private helpers of elim traced as spans of their own, so that
# buchberger's self time holds only its pair loop: content scaling
# (rational arithmetic), the chain criterion and the final
# interreduction are split out.
ELIM_HELPERS = ("_primitive", "_monic", "_chain_criterion", "_reduce_basis")


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


# Counts taken from return values at the boundary where the work
# happens; each probe gets the tracer and the wrapped call's result.
def _probe_solve(tracer, witness):
    tracer.count("exactmath.refutations" if witness.kind == "REFUTATION" else "exactmath.solutions")
    bits = max((_bits(v) for v in witness.vector), default=0)
    tracer.counters["exactmath.cert_bits_max"] = max(tracer.counters["exactmath.cert_bits_max"], bits)


def _probe_assemble(tracer, system):
    shape = (len(system.row_monomials), len(system.col_keys), system.matrix.nnz)
    tracer.count("decider.system_rows", shape[0])
    tracer.count("decider.system_cols", shape[1])
    tracer.count("decider.system_nnz", shape[2])
    tracer.shapes.append(shape)


def _probe_decide(tracer, result):
    decision = result[0] if isinstance(result, tuple) else result
    transcript = decision.transcript
    tracer.count("decider.decisions")
    tracer.count("decider.scrambled", transcript.get("scramble") is not None)
    tracer.count("decider.c_variables", transcript.get("c_variables", 0))
    tracer.count(f"decider.verdict.{decision.verdict}")


def _probe_normal_form(tracer, remainder):
    tracer.count("elim.normal_form.nonzero", bool(remainder))


def _probe_buchberger(tracer, basis):
    tracer.count("elim.basis_size", len(basis))


def _probe_closure(tracer, equations):
    tracer.count("elim.equations", len(equations))


PROBES = {
    "exactmath.solve_or_refute": _probe_solve,
    "decider.assemble_system": _probe_assemble,
    "decider.decide": _probe_decide,
    "elim.normal_form": _probe_normal_form,
    "elim.buchberger": _probe_buchberger,
    "elim.closure_equations": _probe_closure,
}


class Tracer:
    """Records spans in parallel lists; one index per span."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self.shapes: list[tuple[int, int, int]] = []
        self.raised: list[int] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key, amount=1):
        self.counters[key] += amount

    def wrap(self, name: str, fn):
        names, parents, ops, starts, ends = self.names, self.parents, self.ops, self.starts, self.ends
        stack = self._stack
        probe = PROBES.get(name)
        tracer = self

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                stack.pop()
                tracer.raised.append(idx)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if probe is not None:
                probe(tracer, result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every traced attribute; see the module docstring."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}

        def replace(owner, attr, name):
            original = getattr(owner, attr)
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self.wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

        for layer in LAYERS:
            module = importlib.import_module(f"orbitcal.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or attr in KERNELS or not inspect.isfunction(value):
                    continue
                home = value.__module__ or ""
                if home.startswith("orbitcal.") and not value.__name__.startswith("_"):
                    replace(module, attr, f"{home.rsplit('.', 1)[1]}.{value.__name__}")
        elim = importlib.import_module("orbitcal.elim")
        for attr in ELIM_HELPERS:
            if inspect.isfunction(getattr(elim, attr, None)):
                replace(elim, attr, f"elim.{attr}")
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "orbitcal" or modname.startswith("orbitcal.")):
                continue
            for kernel in KERNELS:
                if callable(vars(module).get(kernel)):
                    replace(module, kernel, KERNEL_PREFIX + kernel)
        witness = importlib.import_module("orbitcal.exactmath").ConsistencyWitness
        replace(witness, "verify", "exactmath.ConsistencyWitness.verify")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = self.durations()
        out = list(own)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[idx]
        return out

    def summarize(self):
        """Per span name: calls, self time and busy time."""
        self_s: Counter = Counter()
        for name, value in zip(self.names, self.self_times()):
            self_s[name] += value
        return Counter(self.names), self_s, self.busy(lambda name: name)

    def busy(self, group_of) -> Counter:
        """Busy time per group: the union of the group's spans, summed over
        its spans with no ancestor in the same group (so a recursive call
        counts once).  group_of maps a span name to its group, or None."""
        durations = self.durations()
        names, parents = self.names, self.parents
        out: Counter = Counter()
        for idx, name in enumerate(names):
            group = group_of(name)
            if group is None:
                continue
            parent = parents[idx]
            while parent >= 0 and group_of(names[parent]) != group:
                parent = parents[parent]
            if parent < 0:
                out[group] += durations[idx]
        return out

    def spans(self):
        """Spans as plain rows for writing out: name, start, end, parent, op."""
        return [
            [n, s, e, p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]


# Per-layer metrics: metric prefix -> (span name, stats reported).
SPAN_METRICS = {
    "exactmath.solve": ("exactmath.solve_or_refute", ("calls", "self_s")),
    "exactmath.witness_verify": ("exactmath.ConsistencyWitness.verify", ("calls", "busy_s")),
    "exactmath.rank": ("exactmath.rank", ("calls", "busy_s")),
    "polyring.generic_substitute": ("polyring.generic_substitute", ("calls", "busy_s")),
    "polyring.substitute": ("polyring.substitute", ("calls", "busy_s")),
    **{KERNEL_PREFIX + k: (KERNEL_PREFIX + k, ("calls",)) for k in KERNELS},
    "decider.decide": ("decider.decide", ("calls", "busy_s")),
    "decider.build_H": ("decider.build_generic_H", ("busy_s",)),
    "decider.assemble": ("decider.assemble_system", ("self_s",)),
    "repmodel.orbit_dimension": ("repmodel.orbit_dimension", ("busy_s",)),
    "repmodel.coordinate_pullbacks": ("repmodel.coordinate_pullbacks", ("busy_s",)),
    "repmodel.change_basis": ("repmodel.change_basis", ("busy_s",)),
    "repmodel.make_conic": ("repmodel.make_conic", ("busy_s",)),
    "elim.closure_equations": ("elim.closure_equations", ("calls", "busy_s", "raised")),
    "elim.buchberger": ("elim.buchberger", ("self_s",)),
    "elim.chain_criterion": ("elim._chain_criterion", ("calls", "self_s")),
    "elim.reduce_basis": ("elim._reduce_basis", ("self_s",)),
    "elim.primitive": ("elim._primitive", ("calls", "self_s")),
    "elim.monic": ("elim._monic", ("self_s",)),
    "elim.normal_form": ("elim.normal_form", ("calls", "self_s")),
    "elim.s_polynomial": ("elim.s_polynomial", ("calls",)),
    "torusoracle.torus_decide": ("torusoracle.torus_decide", ("calls", "busy_s")),
    "torusoracle.cone_inequalities": ("torusoracle.cone_inequalities", ("busy_s",)),
    "torusoracle.scaling_exists": ("torusoracle.scaling_exists", ("busy_s",)),
    "degbound.kazarnovskii": ("degbound.kazarnovskii", ("busy_s",)),
    "degbound.simplex_integral": ("degbound.simplex_integral", ("calls",)),
    "degbound.parametric_degree_bound": ("degbound.parametric_degree_bound", ("calls",)),
    "cli.main": ("cli.main", ("calls", "self_s")),
}
STAT_UNITS = {"calls": "count", "raised": "count", "busy_s": "s", "self_s": "s"}
COUNTER_METRICS = {
    "exactmath.cert_bits_max": "bits",
    "exactmath.refutations": "count",
    "exactmath.solutions": "count",
    "decider.system_rows": "count",
    "decider.system_cols": "count",
    "decider.system_nnz": "count",
    "decider.c_variables": "count",
    "elim.basis_size": "count",
    "elim.equations": "count",
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced pass as name -> (value, unit)."""
    calls, self_s, busy = tracer.summarize()
    raised = Counter(tracer.names[idx] for idx in tracer.raised)
    stats = {"calls": calls, "self_s": self_s, "busy_s": busy, "raised": raised}
    out = {}
    for prefix, (span, reported) in SPAN_METRICS.items():
        for stat in reported:
            out[f"{prefix}.{stat}"] = (stats[stat][span], STAT_UNITS[stat])
    for name, unit in COUNTER_METRICS.items():
        out[name] = (tracer.counters[name], unit)
    kernels = tracer.busy(lambda name: "kernels" if name.startswith(KERNEL_PREFIX) else None)
    out["polyring.kernels.busy_s"] = (kernels["kernels"], "s")
    decisions = tracer.counters["decider.decisions"]
    scrambled = tracer.counters["decider.scrambled"] / decisions if decisions else 0.0
    out["decider.scrambled_share"] = (scrambled, "ratio")
    forms = calls["elim.normal_form"]
    useful = tracer.counters["elim.normal_form.nonzero"] / forms if forms else 0.0
    out["elim.normal_form.useful_ratio"] = (useful, "ratio")
    return out


def layer_self_shares(tracer: Tracer, wall: float) -> dict[str, float]:
    """Share of the traced pass's op time spent in each layer's own code;
    "outside spans" is op time not covered by any span."""
    own: Counter = Counter()
    for name, value in zip(tracer.names, tracer.self_times()):
        own["polyring.kernels" if name.startswith(KERNEL_PREFIX) else name.split(".")[0]] += value
    own["outside spans"] = wall - sum(own.values())
    return {layer: value / wall for layer, value in sorted(own.items())}


def input_properties(tracer: Tracer, op_names) -> dict:
    """Properties of the inputs a traced pass met, for claims that a
    change helps only inputs of some kind."""
    counters = tracer.counters
    decisions = counters["decider.decisions"]
    props = {
        "decides": decisions,
        "scrambled_share": counters["decider.scrambled"] / decisions if decisions else 0.0,
        "verdicts": {
            key.rsplit(".", 1)[1]: value for key, value in sorted(counters.items())
            if key.startswith("decider.verdict.")
        },
    }
    if tracer.shapes:
        props["system_shapes"] = sorted(set(tracer.shapes))
    aborted = []
    for idx in tracer.raised:
        if tracer.names[idx] == "elim.closure_equations":
            op = tracer.ops[idx]
            pairs = sum(1 for n, o in zip(tracer.names, tracer.ops) if o == op and n == "elim.s_polynomial")
            aborted.append({"op": op_names[op], "elim.s_polynomial.calls": pairs})
    if aborted:
        props["aborted_eliminations"] = aborted
    return props
