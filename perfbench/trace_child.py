"""Run one brandt-ranks CLI command with the library's layers wrapped.

Usage: python3 perfbench/trace_child.py <cli arguments...>

Every traced function is replaced in each module that binds it (``ranks``
and ``verify`` import kernel functions by name, so patching only their home
module would miss the hot calls). Each wrapper counts calls and accumulates
self time: its own duration minus the time spent in wrapped callees. The
cheap, very frequent kernel calls (``HOT``) record only those two numbers;
every other call also leaves a span with its parent. Search nodes are counted
by wrapping the budget clock and charged to the innermost traced function.

The command's own stdout is captured, and one JSON document is printed:
``{"rc", "stdout", "calls", "self_s", "nodes", "spans"}``. The exit code is
the command's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time

LAYERS = {
    "affine": ("enumerate_a_plus", "add_maps"),
    "engine": (
        "closure_bits",
        "extend_closure",
        "is_independent",
        "is_generating",
        "greens_classes",
        "indecomposables",
        "is_prime_subset",
    ),
    "ranks": (
        "upper_rank_search",
        "lower_rank_exact",
        "intermediate_rank_verify",
        "small_rank",
        "large_rank_exact",
        "construct_witness",
    ),
    "verify": ("verify_all",),
    "cli": ("run",),
}
HOT = frozenset(
    {
        "affine.add_maps",
        "engine.extend_closure",
        "engine.closure_bits",
        "engine.is_independent",
        "engine.is_generating",
    }
)


class Tracer:
    """Call counts, self times, node counts and spans, kept in memory."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.nodes: dict[str, int] = {}
        self.spans: list[dict] = []
        # one frame per active wrapped call: [name, child seconds, span id]
        self.stack: list[list] = [["(root)", 0.0, None]]
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn):
        calls, self_s, stack, spans = self.calls, self.self_s, self.stack, self.spans
        clock = time.perf_counter
        calls[name] = 0
        self_s[name] = 0.0

        if name in HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                parent = stack[-1]
                frame = [name, 0.0, parent[2]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    calls[name] += 1
                    self_s[name] += dur - frame[1]
                    parent[1] += dur

            return hot

        origin = self.origin

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1]
            span = {"name": name, "parent": parent[2], "start_s": 0.0, "end_s": 0.0}
            frame = [name, 0.0, len(spans)]
            spans.append(span)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                parent[1] += dur
                span["start_s"] = start - origin
                span["end_s"] = end - origin

        return spanned

    def count_nodes(self, spend):
        nodes, stack = self.nodes, self.stack

        @functools.wraps(spend)
        def counted(clock_self):
            ok = spend(clock_self)
            if ok:
                owner = stack[-1][0]
                nodes[owner] = nodes.get(owner, 0) + 1
            return ok

        return counted


def _rebind(old, new) -> None:
    """Replace ``old`` by ``new`` in every loaded brandt_ranks module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "brandt_ranks" or modname.startswith("brandt_ranks.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    from brandt_ranks import engine, ranks

    modules = {name: importlib.import_module(f"brandt_ranks.{name}") for name in LAYERS}
    for modname, names in LAYERS.items():
        mod = modules[modname]
        for attr in names:
            old = getattr(mod, attr)
            _rebind(old, tracer.wrap(f"{modname}.{attr}", old))

    sg_cls = engine.FiniteSemigroup
    from_elements = sg_cls.__dict__["from_elements"].__func__
    sg_cls.from_elements = classmethod(tracer.wrap("engine.from_elements", from_elements))
    sg_cls.__init__ = tracer.wrap("engine.validate", sg_cls.__init__)
    ranks._Clock.spend = tracer.count_nodes(ranks._Clock.spend)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from brandt_ranks import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(argv)
    json.dump(
        {
            "rc": rc,
            "stdout": out.getvalue(),
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "nodes": tracer.nodes,
            "spans": tracer.spans,
        },
        sys.stdout,
    )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
