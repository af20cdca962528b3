"""Spans around the benchmark's calls into dcpolab's layers.

Every call a workload makes into dcpolab goes through one namespace built by
``make_api``.  Untraced, the namespace holds the plain functions; traced, each
entry is wrapped so that it records a span (name, start, end, parent, item)
and, for a few entries, a work count.  The wrappers sit in the benchmark, not
in ``src/``: dcpolab's internal calls are not spanned, so a layer's time is
the time of the calls the benchmark makes into it.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

LAYERS = ("finposet", "waybelow", "indcomp", "canonex", "idealcomp", "dyadics", "expo", "bilimit", "cli")


def _run_cli(main):
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    return run


def _count_directed(counts, out, poset):
    counts["finposet.directed_subsets"] += len(out[0])
    counts["finposet.subsets_scanned"] += (1 << poset.n) - 1


def _count_maps(counts, out, *args):
    counts["expo.maps"] += len(out)


def _count_carrier(counts, out, *args):
    counts["expo.exponential.carrier"] += out.poset.n


def _count_tuples(counts, out, tower):
    product = 1
    for stage in tower.stages:
        product *= stage.n
    counts["bilimit.tuples_scanned"] += product


def _count_ideals(counts, out, basis):
    counts["idealcomp.ideals"] += len(out.ideals)
    counts["idealcomp.masks_scanned"] += 1 << basis.n


def api_table(dc):
    """(attribute, span name, function, counter) for every call the workloads make."""
    fp, wb, ic, ce, ix, dy, ex, bl = (
        dc.finposet, dc.waybelow, dc.indcomp, dc.canonex, dc.idealcomp, dc.dyadics, dc.expo, dc.bilimit
    )
    limit = getattr(fp, "SUBSET_ENUM_LIMIT", 16)

    def way_below_route(poset, x, y):
        return "waybelow.way_below." + ("enumerated" if poset.n <= limit else "reduced")

    return [
        ("closure_from_covers", "finposet.closure_from_covers", fp.closure_from_covers, None),
        ("directed_table", "finposet.directed_table", lambda p: p.directed_table, _count_directed),
        ("MonoMap", "finposet.MonoMap", fp.MonoMap, None),
        ("EpPair", "finposet.EpPair", fp.EpPair, None),
        ("way_below", way_below_route, wb.way_below, None),
        ("compacts", "waybelow.compacts", wb.compacts, None),
        ("check_small_compact_basis", "waybelow.check_small_compact_basis", wb.check_small_compact_basis, None),
        ("interpolate_unary", "waybelow.interpolate_unary", wb.interpolate_unary, None),
        ("approximates", "waybelow.approximates", wb.approximates, None),
        ("transfer_basis_along_retract", "waybelow.transfer_basis_along_retract", wb.transfer_basis_along_retract, None),
        ("identity_basis", "waybelow.BasisMap.identity", wb.BasisMap.identity, None),
        ("directed_family", "indcomp.DirectedFamily.from_names", ic.DirectedFamily.from_names, None),
        ("is_left_adjunct", "indcomp.is_left_adjunct", ic.is_left_adjunct, None),
        ("powerset", "canonex.powerset", ce.powerset, None),
        ("lifting", "canonex.lifting", ce.lifting, None),
        ("abstract_basis", "idealcomp.AbstractBasis.from_pairs", ix.AbstractBasis.from_pairs, None),
        ("validate_abstract_basis", "idealcomp.validate_abstract_basis", ix.validate_abstract_basis, None),
        ("idl_poset", "idealcomp.idl_poset", ix.idl_poset, _count_ideals),
        ("idl_way_below", "idealcomp.idl_way_below", ix.idl_way_below, None),
        ("idl_basis_check", "idealcomp.idl_basis_check", ix.idl_basis_check, None),
        ("mediating_map", "idealcomp.mediating_map", ix.mediating_map, None),
        ("idl_iso_algebraic_check", "idealcomp.idl_iso_algebraic_check", ix.idl_iso_algebraic_check, None),
        ("idl_iso_continuous_check", "idealcomp.idl_iso_continuous_check", ix.idl_iso_continuous_check, None),
        ("directify", "idealcomp.directify", ix.directify, None),
        ("enumerate_monotone_maps", "expo.enumerate_monotone_maps", ex.enumerate_monotone_maps, _count_maps),
        ("exponential", "expo.exponential", ex.exponential, _count_carrier),
        ("step_basis", "expo.step_basis", ex.step_basis, None),
        ("close_basis_under_joins", "expo.close_basis_under_joins", ex.close_basis_under_joins, None),
        ("idl_supcomplete_check", "expo.idl_supcomplete_check", ex.idl_supcomplete_check, None),
        ("Tower", "bilimit.Tower", bl.Tower, None),
        ("scott_tower", "bilimit.scott_tower", bl.scott_tower, None),
        ("finite_bilimit", "bilimit.finite_bilimit", bl.finite_bilimit, _count_tuples),
        ("bilimit_basis", "bilimit.bilimit_basis", bl.bilimit_basis, None),
        ("dinfty_demo", "bilimit.dinfty_demo", bl.dinfty_demo, None),
        ("dyadic_validate", "dyadics.DyadicBasis.validate", lambda depth: dy.DyadicBasis().validate(depth), None),
        ("dy_prec", "dyadics.dy_prec", dy.dy_prec, None),
        ("dy_interpolant", "dyadics.dy_interpolant", dy.dy_interpolant, None),
        ("to_rational", "dyadics.to_rational", dy.to_rational, None),
        ("principal_stream", "dyadics.principal_stream", dy.principal_stream, None),
        ("stream_member", "dyadics.stream_member", dy.stream_member, None),
        ("stream_way_below", "dyadics.stream_way_below", dy.stream_way_below, None),
        ("no_compact_ideals_evidence", "dyadics.no_compact_ideals_evidence", dy.no_compact_ideals_evidence, None),
        ("cli", "cli.main", _run_cli(dc.cli.main), None),
    ]


def span_names(dc) -> list:
    """Every span name the API can record, way-below split by route."""
    names = []
    for _, name, _, _ in api_table(dc):
        if callable(name):
            names += ["waybelow.way_below.enumerated", "waybelow.way_below.reduced"]
        else:
            names.append(name)
    return names


class Tracer:
    """Spans and work counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index, item id)
        self.counts = Counter()
        self.speed = {}  # item id -> speed factor (see run.py)
        self.item_id = None
        self._item_span = None

    def wrap(self, name, fn, count):
        spans, counts = self.spans, self.counts

        def traced(*args):
            span = name(*args) if callable(name) else name
            start = time.perf_counter()
            try:
                out = fn(*args)
            except Exception:
                counts[span.split(".", 1)[0] + ".failed"] += 1
                raise
            finally:
                spans.append((span, start, time.perf_counter(), self._item_span, self.item_id))
            if count is not None:
                count(counts, out, *args)
            return out

        return traced

    @contextlib.contextmanager
    def item(self, item_id):
        self.item_id = item_id
        self._item_span = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[self._item_span] = ("item", start, time.perf_counter(), None, item_id)
            self._item_span = self.item_id = None

    def _adjusted(self, span):
        name, start, end, _, item = span
        return (end - start) * self.speed.get(item, 1.0)

    def self_times(self) -> dict:
        """Speed-adjusted seconds of self time per span name: duration minus
        the part its child spans cover."""
        child = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child[span[3]] += self._adjusted(span)
        out = defaultdict(float)
        for k, span in enumerate(self.spans):
            out[span[0]] += self._adjusted(span) - child[k]
        return out

    def busy(self) -> tuple:
        """Speed-adjusted seconds and call count per span name."""
        seconds, calls = defaultdict(float), Counter()
        for span in self.spans:
            seconds[span[0]] += self._adjusted(span)
            calls[span[0]] += 1
        return seconds, calls

    def write(self, path):
        """One JSON object per line: the raw spans, then each item's speed factor."""
        keys = ("name", "start", "end", "parent", "item")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            for item, factor in self.speed.items():
                fh.write(json.dumps({"item": item, "speed_factor": factor}) + "\n")


def make_api(dc, tracer=None):
    entries = {}
    for attr, name, fn, count in api_table(dc):
        entries[attr] = fn if tracer is None else tracer.wrap(name, fn, count)
    return SimpleNamespace(**entries)
