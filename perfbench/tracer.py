"""Span recorder for the benchmark's traced run.

The recorder wraps public functions of predipd at run time; the source is
never touched.  Each wrapped call is a span.  Spans are aggregated in memory
by name (calls and self seconds) rather than kept one by one,
because a traced op makes up to a few million of them; the aggregate is
written out when the op ends.  Self time is a span's time minus the time of
the spans it caused.  A few boundaries are counted without being timed:
``RngStream.uniform`` (one per random draw) and the turns of every match.

Run as a script, it is the entry point of one traced CLI op::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- <predipd argv>

It installs the wrappers, calls ``predipd.cli.main(argv)`` and writes the
aggregate to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
import time


class Recorder:
    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []      # child time of every open span
        self._decide = None
        self._direct_method = None
        self._hits_at_install = 0

    def wrap(self, name, fn, after=None):
        """Time every call of ``fn`` as span ``name``.

        ``after(args, kwargs, result, self_s)`` runs once the span has
        ended; its own time is charged to no span.
        """
        stats = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                own = t1 - t0 - stack.pop()
                stats[0] += 1
                stats[1] += own
                if stack:
                    stack[-1] += t1 - t0
            if after is not None:
                after(args, kwargs, result, own)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return traced

    def count(self, name, fn):
        """Count calls of ``fn`` without timing them."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # hooks -------------------------------------------------------------

    def _after_match(self, args, kwargs, record, own):
        self.counts["engine.turns"] = self.counts.get("engine.turns", 0) + record.n_turns

    def _after_stationary(self, args, kwargs, result, own):
        kind = "direct" if result.method == self._direct_method else "fallback"
        stats = self.spans.setdefault(f"analysis.stationary.{kind}", [0, 0.0])
        stats[0] += 1
        stats[1] += own

    # installation ------------------------------------------------------

    def install(self):
        """Wrap predipd's public functions; returns a callable that undoes it."""
        from predipd import analysis, cli, core, engine, predictor, strategies

        modules = [m for n, m in list(sys.modules.items())
                   if n == "predipd" or n.startswith("predipd.")]
        undo = []

        def function(module, attr, name, after=None):
            # replace every module-level reference, including the copies
            # that `from .engine import run_round_robin` makes
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
            return original

        def method(cls, attr, wrapper_of):
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(wrapper_of(original.__func__)))
            else:
                setattr(cls, attr, wrapper_of(original))
            undo.append((cls, attr, original))

        function(cli, "main", "cli.main")
        function(engine, "run_round_robin", "engine.run_round_robin")
        function(engine, "play_match", "engine.play_match", self._after_match)
        function(predictor, "act", "predictor.act")
        self._decide = function(predictor, "decide", "predictor.decide")
        self._hits_at_install = self._decide.cache_info().hits
        function(predictor, "observe", "predictor.observe")
        function(strategies, "next_action", "strategies.next_action")
        method(strategies.RngStream, "bernoulli", lambda f: self.wrap("strategies.draw", f))
        method(strategies.RngStream, "uniform", lambda f: self.count("strategies.draws", f))
        method(core.PayoffMatrix, "payoff", lambda f: self.wrap("core.payoff", f))
        method(core.JointOutcome, "from_actions", lambda f: self.wrap("core.outcome", f))
        self._direct_method = analysis.DIRECT_SOLVE
        function(analysis, "stationary", "analysis.stationary", self._after_stationary)
        function(analysis, "build_chain", "analysis.build_chain")

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        if self._decide is not None:
            counts["predictor.decide.cache_hits"] = (
                self._decide.cache_info().hits - self._hits_at_install
            )
        return {"spans": self.spans, "counts": counts}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <predipd argv>", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    import predipd.cli

    try:
        return predipd.cli.main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(recorder.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
