"""Spans around the public functions of each mirrorint layer, from outside.

``Tracer.install`` replaces each traced function by a wrapper at every
binding that holds it: the defining module and every module that copied the
name with ``from .x import name``.  Methods are replaced on their class.
Spans live in memory as [name, parent id, start ns, end ns] and are summed
into per-name call counts and self times when the traced repetition ends;
``restore`` puts every original binding back.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# span name -> (defining module, attribute path)
TRACED = {
    "cli.main": ("mirrorint.cli", "main"),
    "landau.q_ratio": ("mirrorint.landau", "q_ratio"),
    "landau.harmonic": ("mirrorint.landau", "harmonic"),
    "landau.classify": ("mirrorint.landau", "classify"),
    "series.mul": ("mirrorint.series", "TruncatedSeries.__mul__"),
    "series.reciprocal": ("mirrorint.series", "TruncatedSeries.reciprocal"),
    "series.exp": ("mirrorint.series", "TruncatedSeries.exp"),
    "series.log": ("mirrorint.series", "TruncatedSeries.log"),
    "series.vth_root": ("mirrorint.series", "TruncatedSeries.vth_root"),
    "mirror.build_bundle": ("mirrorint.mirror", "build_bundle"),
    "padic.phi_membership_scan": ("mirrorint.padic", "phi_membership_scan"),
    "padic.s_membership_scan": ("mirrorint.padic", "s_membership_scan"),
    "padic.lemma_harmonic_check": ("mirrorint.padic", "lemma_harmonic_check"),
    "padic.lemma24_check": ("mirrorint.padic", "lemma24_check"),
    "padic.vp_rational": ("mirrorint.padic", "vp_rational"),
    "zhou.verify_zhou": ("mirrorint.zhou", "verify_zhou"),
    "zhou.enumerate_decompositions": ("mirrorint.zhou", "enumerate_decompositions"),
}

# The series these calls return are measured for series.max_coeff_bits.
RESULT_BITS = ("mirror.build_bundle", "series.vth_root")


def _lookup(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def binding_sites(original, owner, attr) -> list[tuple[object, str]]:
    """Every (namespace, name) that holds ``original``.

    A method lives on its class only.  A function is also found in every
    loaded mirrorint module that imported it by name.
    """
    if isinstance(owner, type):
        return [(owner, attr)]
    return [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name == "mirrorint" or module_name.startswith("mirrorint.")
        for name, value in list(vars(module).items())
        if value is original
    ]


def _coeff_bits(series) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in series.coeffs
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._bound: list[tuple[object, str, object]] = []
        self.max_harmonic_index = 0
        self.max_coeff_bits = 0

    def install(self) -> list[str]:
        """Wrap every traced function; returns the names not found."""
        missing = []
        for name, (module, path) in TRACED.items():
            try:
                owner, attr = _lookup(module, path)
                original = vars(owner)[attr]
            except (KeyError, AttributeError):
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for site, site_attr in binding_sites(original, owner, attr):
                self._bound.append((site, site_attr, original))
                setattr(site, site_attr, wrapper)
        return missing

    def restore(self) -> None:
        for site, attr, original in reversed(self._bound):
            setattr(site, attr, original)
        for site, attr, original in self._bound:
            if vars(site)[attr] is not original:
                raise RuntimeError(f"{site!r}.{attr} was not restored")
        self._bound.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observe_bits if name in RESULT_BITS else None
        is_harmonic = name == "landau.harmonic"

        def traced(*args, **kwargs):
            if is_harmonic and args[0] > self.max_harmonic_index:
                self.max_harmonic_index = args[0]
            span = [name, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_bits(self, result) -> None:
        # Timed as its own span, so the caller's self time excludes it.
        span = ["trace.observe", self._stack[-1], perf_counter_ns(), 0]
        self.spans.append(span)
        for series in _series_in(result):
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(series))
        span[3] = perf_counter_ns()

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the gauges."""
        spans = self.spans
        cover = [0] * len(spans)
        in_bundle = [False] * len(spans)
        for i, (_, parent, start, end) in enumerate(spans):
            if parent >= 0:
                cover[parent] += end - start
                in_bundle[i] = (
                    in_bundle[parent] or spans[parent][0] == "mirror.build_bundle"
                )
        calls = dict.fromkeys(list(TRACED) + ["trace.observe"], 0)
        self_ns = dict.fromkeys(calls, 0)
        exp_in_bundle = 0
        for i, (name, _, start, end) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - cover[i]
            if name == "series.exp" and in_bundle[i]:
                exp_in_bundle += 1
        # 0 when q_ratio has no lru_cache to ask.
        hit_ratio = 0.0
        cache_info = getattr(sys.modules["mirrorint.landau"].q_ratio, "cache_info", None)
        if cache_info is not None:
            cache = cache_info()
            lookups = cache.hits + cache.misses
            hit_ratio = cache.hits / lookups if lookups else 0.0
        return {
            "calls": calls,
            "q_ratio_hit_ratio": hit_ratio,
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "exp_in_bundle": exp_in_bundle,
            "max_harmonic_index": self.max_harmonic_index,
            "max_coeff_bits": self.max_coeff_bits,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("id\tname\tparent\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{parent}\t{start}\t{end}\n")


def _series_in(result):
    """The series a call returned: the result itself, or a bundle's fields."""
    if hasattr(result, "coeffs"):
        return [result]
    found = []
    for value in getattr(result, "__dict__", {}).values():
        values = value.values() if isinstance(value, dict) else (value,)
        found.extend(v for v in values if hasattr(v, "coeffs"))
    return found
