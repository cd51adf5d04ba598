"""Per-layer spans around the public functions of each ghzw module.

The wrappers are installed from outside the package: each traced name
is replaced on its module object, so calls made through the module
(including calls between functions of the same module, which look the
name up in the module's globals) pass through a span.  A name a later
version no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import json
import time

#: layer -> public functions whose spans the trace records
TRACED = {
    "qcore": ("hermitian_eigs", "partial_trace", "partial_transpose", "as_operator"),
    "states": ("check_pure", "check_density_matrix", "mix"),
    "witness": ("lambda_bound_analytic", "lambda_bound_stochastic"),
    "criterion": (
        "ghzw_criterion",
        "ghzw_criterion_pure",
        "min_ghz_expectation_mixed",
        "min_w_expectation_mixed",
    ),
    "classify": ("is_genuinely_entangled_pure", "bipartition_schmidt", "three_tangle", "ppt_min_eigenvalue"),
    "canonical": ("acin_decompose",),
    "scanner": ("scan_superposition_family", "sample_unwitnessed_mixtures", "family_state"),
}

#: scipy entry points as ghzw reaches them: (span name, module, attribute path)
SCIPY = (
    ("scipy.minimize", "canonical", ("minimize",)),
    ("scipy.minimize_scalar", "criterion", ("optimize", "minimize_scalar")),
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns) + tuple(
    name for name, _, _ in SCIPY
)


class _Proxy:
    """Stands in for a module attribute so one of its functions can be traced."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans kept in memory: (name, start, end, parent index or -1)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self._stack: list[list] = []  # [span index, child time]

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += (end - start) - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start

        return traced

    def install(self, package) -> None:
        """Wrap every traced name that ``package`` (the ghzw package) still has."""
        for layer, fns in TRACED.items():
            module = getattr(package, layer, None)
            for fn in fns:
                if module is not None and callable(getattr(module, fn, None)):
                    setattr(module, fn, self.wrap(f"{layer}.{fn}", getattr(module, fn)))
        for name, layer, path in SCIPY:
            module = getattr(package, layer, None)
            if module is None or not hasattr(module, path[0]):
                continue
            if len(path) == 1:
                if callable(getattr(module, path[0])):
                    setattr(module, path[0], self.wrap(name, getattr(module, path[0])))
                continue
            holder = getattr(module, path[0])
            if callable(getattr(holder, path[1], None)):
                # a proxy, so scipy's own module object stays untouched
                wrapped = self.wrap(name, getattr(holder, path[1]))
                setattr(module, path[0], _Proxy(holder, **{path[1]: wrapped}))

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        count = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "validations_in_verdicts": self.count_within(
                "states.check_density_matrix", "criterion.ghzw_criterion"
            ),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({**self.summary(), "spans": self.spans}, fh)


def merge(summaries) -> dict:
    """Sum the summaries of several traced processes."""
    total = {"calls": dict.fromkeys(SPAN_NAMES, 0), "self_s": dict.fromkeys(SPAN_NAMES, 0.0)}
    total["validations_in_verdicts"] = 0
    for summary in summaries:
        for name in SPAN_NAMES:
            total["calls"][name] += summary["calls"].get(name, 0)
            total["self_s"][name] += summary["self_s"].get(name, 0.0)
        total["validations_in_verdicts"] += summary["validations_in_verdicts"]
    return total


def layer_metrics(summary: dict) -> dict:
    """Per-function metrics plus the two waste ratios, as (value, unit) pairs.

    validations_per_verdict counts only the density-matrix validations
    made inside ghzw_criterion, so PPT and mixture calls do not inflate it.
    """
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    verdicts = calls["criterion.ghzw_criterion"]
    decompositions = calls["canonical.acin_decompose"]
    out["criterion.validations_per_verdict"] = (
        summary["validations_in_verdicts"] / verdicts if verdicts else 0.0,
        "ratio",
    )
    out["canonical.polishes_per_state"] = (
        calls["scipy.minimize"] / decompositions if decompositions else 0.0,
        "ratio",
    )
    return out
