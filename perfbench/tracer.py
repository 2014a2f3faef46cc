"""Span tracing of schurq's public functions, installed from outside the package.

`Tracer.install()` rebinds every binding of each traced function in the
loaded schurq modules (including names imported with `from ... import`)
to a wrapper; `uninstall()` puts the originals back.  Each wrapper call
is a span.  Spans of one op share the op's id.  The `algebra` functions
run millions of times, so their spans are not kept one by one: they are
summed per (op, parent span, name) as a call count and a self time, where
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Imported after workloads, which puts the checkout's src on sys.path.
from schurq import algebra, cli, linalg, operators, qfunctions, spectra

CACHED_SCHUR_Q = qfunctions.schur_q  # the lru_cache object, whose cache_info counts hits

# (owner, attribute, layer name)
TARGETS = [
    (algebra.Polynomial, "__mul__", "algebra.poly_mul"),
    (algebra.Polynomial, "__add__", "algebra.poly_add"),
    (algebra, "exact_divide", "algebra.exact_divide"),
    (algebra.RationalFunction, "__init__", "algebra.rf_new"),
    (algebra.RationalFunction, "__add__", "algebra.rf_add"),
    (algebra.RationalFunction, "__mul__", "algebra.rf_mul"),
    (algebra, "pfaffian", "algebra.pfaffian"),
    (algebra, "substitute", "algebra.substitute"),
    (qfunctions, "schur_q", "qfunctions.schur_q"),
    (qfunctions, "q_two", "qfunctions.q_two"),
    (qfunctions, "expand_in_power_sums", "qfunctions.expand"),
    (operators, "family_step", "operators.family_step"),
    (operators, "tilde_family_step", "operators.tilde_family_step"),
    (operators, "conjugated_apply", "operators.conjugated_apply"),
    (spectra, "apply_operator", "spectra.apply_operator"),
    (spectra, "eigen_check", "spectra.eigen_check"),
    (spectra, "uniqueness_sweep", "spectra.uniqueness"),
    (linalg, "solve", "linalg.solve"),
    (linalg, "nullspace", "linalg.nullspace"),
    (cli, "main", "cli.main"),
]

# Counts that must repeat exactly from pass to pass and run to run.
EXACT = {
    "algebra.poly_mul.term_pairs", "algebra.exact_divide.hits", "algebra.exact_divide.misses",
    "algebra.exact_divide.terms_in", "algebra.peak_terms", "algebra.peak_den_mult",
    "qfunctions.schur_q.cache_hits", "linalg.solve.cells", "cli.main.stdout_bytes",
}


class Tracer:
    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # [span_id, parent_id, op_id, name, start, end, self_s]
        self.sums: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # (op_id, parent_id, name) -> [calls, self_s]
        self.counters: dict[str, int] = defaultdict(int)
        self._child = [0.0]  # time covered by children, one entry per open span
        self._open = [0]  # ids of the open kept spans; 0 is the root
        self.op_id = 0

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans.clear()
        self.sums.clear()
        self.counters.clear()
        self._child[:] = [0.0]
        self._open[:] = [0]
        self.op_id = 0

    # -- installation ------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "schurq" or k.startswith("schurq.")]
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            for o in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(o).items()):
                    if value is original:
                        self._restore.append((o, key, original))
                        setattr(o, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- spans -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def _wrap(self, name: str, fn):
        short = name.split(".")[1]
        pre = getattr(self, "_pre_" + short, None)
        post = getattr(self, "_post_" + short, None)
        kept = not name.startswith("algebra.")
        child, open_ids, sums, spans = self._child, self._open, self.sums, self.spans

        def wrapper(*args, **kwargs):
            if kept:
                span_id = len(spans) + 1
                span = [span_id, open_ids[-1], self.op_id, name, 0.0, 0.0, 0.0]
                spans.append(span)
                open_ids.append(span_id)
            state = pre(args) if pre else None
            outcome = None
            child.append(0.0)
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter()
                duration = end - start
                own = duration - child.pop()
                child[-1] += duration
                if kept:
                    open_ids.pop()
                    span[4], span[5], span[6] = start, end, own
                else:
                    total = sums[self.op_id, open_ids[-1], name]
                    total[0] += 1
                    total[1] += own
                if post:
                    post(args, state, outcome)

        wrapper.__wrapped__ = fn
        return wrapper

    # Counters: `_pre_<name>(args)` runs before the call and its value is
    # passed to `_post_<name>(args, state, outcome)`, where outcome is the
    # result or the exception raised.

    def _post_poly_mul(self, args, state, outcome):
        a, b = args
        self.counters["algebra.poly_mul.term_pairs"] += len(a.terms) * len(b.terms)
        self._peak("algebra.peak_terms", len(getattr(outcome, "terms", ())))

    def _post_poly_add(self, args, state, outcome):
        self._peak("algebra.peak_terms", len(getattr(outcome, "terms", ())))

    def _post_exact_divide(self, args, state, outcome):
        self.counters["algebra.exact_divide.terms_in"] += len(args[0].terms)
        if isinstance(outcome, algebra.NotDivisible):
            self.counters["algebra.exact_divide.misses"] += 1
        else:
            self.counters["algebra.exact_divide.hits"] += 1

    def _post_rf_new(self, args, state, outcome):
        self._peak("algebra.peak_den_mult", sum(getattr(args[0], "den", {}).values()))

    def _pre_schur_q(self, args):
        return CACHED_SCHUR_Q.cache_info().hits

    def _post_schur_q(self, args, state, outcome):
        self.counters["qfunctions.schur_q.cache_hits"] += CACHED_SCHUR_Q.cache_info().hits - state

    def _post_solve(self, args, state, outcome):
        rows = args[0]
        self.counters["linalg.solve.cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _pre_main(self, args):
        return sys.stdout.tell()

    def _post_main(self, args, state, outcome):
        self.counters["cli.main.stdout_bytes"] += sys.stdout.tell() - state

    def _peak(self, key: str, value: int) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    # -- per-layer metrics --------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Calls, self time and counters of one traced pass, by metric name."""
        out: dict[str, float] = defaultdict(int)
        for _, _, _, name, _, _, own in self.spans:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
        for (_, _, name), (calls, own) in self.sums.items():
            out[name + ".calls"] += calls
            out[name + ".self_s"] += own
        out.update(self.counters)
        return out

