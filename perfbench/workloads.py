"""The three benchmark workloads: inputs from a seed, one operation, its gate.

Each workload turns ``--seed`` into inputs, yielded one at a time after
``space.validate`` has checked every space in them (the only place the
benchmark runs it), and
defines one operation on an input plus a correctness gate that runs outside
the timed region. Every operation handles one pair of spaces. Every
lexmetric call goes through the package passed in as ``lx`` (attribute
lookups at call time) so that the tracer's wrappers see it.

``cap_s`` is the per-operation time cap. ``rate`` is pairs per second on the
seed commit on a moderately busy machine: a run of ``--seconds`` makes
``seconds * rate`` pairs, so a run lasts about ``--seconds``.

Why these three (also recorded in BENCHMARK.json):

* ``verify-graphs`` samples every connected graph on 2-4 vertices against
  every other one. Unit weights make all nearness values equal, so fibers
  repeat and twins are everywhere; the solver sees thousands of small spaces
  and per-call overhead shows.
* ``corpus-cli`` is the user-facing ``lexmetric corpus --json`` command, the
  only workload through the ``cli`` layer. Its weighted pairs have uneven
  nearness and few twins, and products reach the 36-point guard.
* ``dim-products`` runs the exact solver alone on products past the guard,
  bypassing ``theory`` and ``twins``. Weighted 7x7 products rarely have
  duplicate distinguisher sets; unit-weight graph 6x6 products have many.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np


class SetupError(RuntimeError):
    """A generated input failed ``space.validate``."""


def _validate_all(lx, spaces) -> None:
    for space in spaces:
        report = lx.space.validate(space)
        if not report.ok:
            raise SetupError(f"generated input is not a metric: {report.violations[0]}")


class VerifyGraphs:
    name = "verify-graphs"
    # Never reached on the seed commit (slowest pair: about 0.1 s); it only
    # bounds the run if a change makes some pair pathological.
    cap_s = 10.0
    rate = 40.0

    def inputs(self, lx, seed: int, count: int):
        """The first ``count`` pairs of a seeded permutation of all 43 x 43 pairs."""
        spaces = lx.theory.connected_graph_spaces(2, 4)
        _validate_all(lx, spaces)
        n = len(spaces)
        for k in np.random.default_rng(seed).permutation(n * n)[:count]:
            yield spaces[int(k) // n], spaces[int(k) % n]

    def run(self, lx, pair):
        return lx.theory.verify_all(*pair)

    def check(self, lx, pair, reports) -> str | None:
        for report in reports:
            if not report.skipped and report.passed is not True:
                return f"{report.theorem}: lhs={report.lhs} rhs={report.rhs}"
        return None


class CorpusCli:
    name = "corpus-cli"
    # One pair per invocation, so each latency is one pair's cost through the
    # command; the median over hundreds of pairs is steadier than over tens
    # of ten-pair invocations.
    pairs_per_call = 1
    # A pair normally takes under 1.5 s; about 2 pairs in 1000 need 20-45 s
    # each on the seed commit and are cut here, counted as failed.
    cap_s = 3.0
    rate = 30.0
    # Pair costs span 2 ms to 0.1 s by product size, so the median of the
    # pairs one run verifies moves by 10-15% between independent draws, and
    # the tail, set by the few largest products, moves more. Like
    # verify-graphs, each run therefore samples without replacement from one
    # fixed population, here the pairs of ``corpus --seed k --count 1`` for
    # k below 800, and covers most of it.
    population = 800

    def inputs(self, lx, seed: int, count: int):
        """CLI seeds for ``count`` invocations; their pairs are generated to validate them."""
        for k in np.random.default_rng(seed).permutation(self.population)[:count]:
            pairs = lx.theory.random_pairs(int(k), self.pairs_per_call)
            _validate_all(lx, [space for pair in pairs for space in pair])
            yield int(k)

    def run(self, lx, cli_seed: int):
        buf = io.StringIO()
        argv = ["corpus", "--seed", str(cli_seed), "--count", str(self.pairs_per_call), "--json"]
        with contextlib.redirect_stdout(buf):
            code = lx.cli.main(argv)
        return code, buf.getvalue()

    def check(self, lx, cli_seed, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if doc.get("failures") != 0:
            return f"{doc.get('failures')} failed checks"
        if len(doc.get("pairs", ())) != self.pairs_per_call:
            return f"{len(doc.get('pairs', ()))} pairs, expected {self.pairs_per_call}"
        return None


class DimProducts:
    name = "dim-products"
    # Per-instance cap. A capped instance is a failed operation whose latency
    # is the cap. On the seed commit about 7% of weighted and two thirds of
    # graph instances hit it; some of them would take over 40 s.
    cap_s = 0.25
    rate = 6.0

    def inputs(self, lx, seed: int, count: int):
        """Weighted 7x7 and graph 6x6 products, three weighted to one graph.

        At one to one the median latency falls in the gap between the fast
        weighted cluster and the graph shape's spread, and moves from run to
        run; at three to one it sits inside the weighted cluster.

        Each shape draws base then second from its own ``default_rng(seed)``,
        so either shape's sequence can be replayed alone from the seed.
        """
        weighted = np.random.default_rng(seed)
        graphs = np.random.default_rng(seed)
        for i in range(count):
            if i % 4 != 3:
                base = lx.theory.random_metric_space(weighted, 7, prefix="x")
                second = lx.theory.random_metric_space(weighted, 7, prefix="y")
            else:
                base = lx.construct.graph_metric(lx.theory.random_connected_graph(graphs, 6, prefix="x"))
                second = lx.construct.graph_metric(lx.theory.random_connected_graph(graphs, 6, prefix="y"))
            product = lx.construct.lexicographic(base, second).space
            _validate_all(lx, (base, second, product))
            yield base, second, product

    def run(self, lx, instance):
        result = lx.resolving.metric_dimension(instance[2])
        return result.dimension, result.basis

    def check(self, lx, instance, output) -> str | None:
        base, second, product = instance
        dimension, basis = output
        if len(basis) != dimension:
            return f"basis has {len(basis)} points, dimension is {dimension}"
        if not lx.resolving.resolves(product, basis):
            return "basis does not resolve the product"
        rhs = lx.theory.formula_rhs(base, second)
        if rhs != dimension:
            return f"solver gives {dimension}, closed form gives {rhs}"
        return None


WORKLOADS = {w.name: w for w in (VerifyGraphs(), CorpusCli(), DimProducts())}
