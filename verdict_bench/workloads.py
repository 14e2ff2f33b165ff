"""The five workloads: inputs made from a seed, the ops that call the
library, and each op's check against a reference that is not the timed
code path.

An *op* is one verdict-producing call.  A workload's ``round_ops`` gives
one round of ops; a run repeats the same ops a fixed number of times.
Each round runs them in its own seeded shuffled order (see
``_in_round_order``).
Checks raise ``CheckFailed`` (never a bare ``assert``) so that they hold
under ``python -O`` too.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Iterator

import reference as ref

PINS_FILE = Path(__file__).with_name("pins.json")

# OEIS A000088 (graphs) and A001349 (connected graphs) on n = 1..7 vertices.
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# Random ordering pairs are drawn from seed % ORDERINGS_POOL, the seeds whose
# verdict digests were recorded at the seed commit.
ORDERINGS_POOL = 64

SAMPLER_STEPS = 10**5
SAMPLER_BURN_IN = 10**4


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _never(_output) -> bool:
    return False


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], dict | None]
    inconclusive: Callable[[object], bool] = _never
    index: int = 0  # the op's place in the round before shuffling


@dataclass
class Result:
    op: Op
    seconds: float
    at: float = 0.0  # perf_counter when the op started
    scaled: float = 0.0  # seconds at the reference speed (speed.py), when tracked
    output: object = None
    error: str | None = None
    inconclusive: bool = False
    note: dict | None = None


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())


def _gnm(lib, n: int, m: int, rng: ref.SplitMix64, label: str):
    """Uniform random graph on n vertices with exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs[:m]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return lib.graphs.Graph(n, tuple(adj), label)


def _triangle_free(lib, n: int, rng: ref.SplitMix64, label: str):
    """Greedy random triangle-free graph: insert the pairs in random order,
    skipping any edge that would close a triangle."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return lib.graphs.Graph(n, tuple(adj), label)


def _in_round_order(ops: list[Op], seed: int, round_no: int, start: int = 0) -> list[Op]:
    """Number the ops in their fixed order, then shuffle them afresh for each
    round, from the run seed and the round number.  A garbage-collector
    pause or a burst of machine noise then lands on different ops in
    different rounds, and each op's median over the rounds leaves it out;
    nor does a stretch of noise land on one kind of op only."""
    for i, op in enumerate(ops, start):
        op.index = i
    return ref.SplitMix64(seed ^ 0x5EED ^ (round_no << 20)).shuffle(ops)


def _coeffs(p) -> tuple:
    return tuple(p.coeffs)


def _expect_z(out, z_ref: tuple, what: str) -> None:
    expect(_coeffs(out) == z_ref, f"{what}: Z differs from the reference")


# -- engine_sparse -------------------------------------------------------------

class EngineSparse:
    """Independence polynomials of sparse graphs, and full profiles with the
    pair-marginal variance route, on graphs the residual-mask recursion
    finds hard."""

    name = "engine_sparse"
    nominal_round_s = 9.0
    # The random graphs are G(n, m) draws from this fixed stream, and the run
    # seed relabels them.  Fresh draws varied up to 3.4x in cost (a G(50)
    # took 0.43-1.46 s), so the seed moved the throughput.  Relabeling still
    # moves the recursion, whose branch vertex is the lowest-indexed of
    # maximum degree.
    stream_seed = 40404

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        rng = ref.SplitMix64(seed)
        stream = ref.SplitMix64(self.stream_seed)
        gen = lib.graphs.generate

        def drawn(n: int, m: int, label: str):
            g = _gnm(lib, n, m, stream, label)
            return lib.graphs.Graph(n, ref.relabel(n, g.adj, rng.shuffle(list(range(n)))),
                                    label)

        pet = gen("petersen")
        kab = gen("kab:3,3")
        z_pet = ref.brute_z(pet.n, pet.adj)
        z_kab = ref.brute_z(kab.n, kab.adj)
        # (graph, reference thunk) pairs; the reference runs only when checked.
        self.z_inputs = []
        for n in range(30, 37):
            self.z_inputs.append((gen(f"path:{n}"), lambda n=n: ref.path_z(n)))
            self.z_inputs.append((gen(f"cycle:{n}"), lambda n=n: ref.cycle_z(n)))
        self.z_inputs.append((gen("4*petersen"), lambda: ref.ppow(z_pet, 4)))
        self.z_inputs.append((gen("petersen + cycle:30"),
                              lambda: ref.pmul(z_pet, ref.cycle_z(30))))
        # The random graphs (the G(50)s and the G(30) profiles) are dearer
        # than the tail op, so both quantiles land on named inputs.  G(40)s
        # cost 0.08-0.26 s, across the median op, and moved it by 20%.
        for i in range(3):
            self.z_inputs.append((drawn(50, round(50 * 49 / 16), f"gnm:50#{seed}.{i}"), None))
        self.profile_inputs = [
            (gen("path:24"), lambda: ref.path_z(24)),
            (gen("cycle:24"), lambda: ref.cycle_z(24)),
            (gen("2*petersen + kab:3,3"), lambda: ref.pmul(ref.ppow(z_pet, 2), z_kab)),
        ]
        for i in range(2):
            self.profile_inputs.append((drawn(30, round(30 * 29 / 12), f"gnm:30/6#{seed}.{i}"),
                                        None))
        self._splits: dict[str, ref.SplitZ] = {}
        self.round_no = 0

    def _split(self, g) -> ref.SplitZ:
        s = self._splits.get(g.label)
        if s is None:
            s = self._splits[g.label] = ref.SplitZ(g.n, g.adj)
        return s

    def _z_ref(self, g, thunk) -> tuple:
        z = self._split(g)()
        if thunk is not None:
            # The closed form and the component recursion must agree too.
            expect(thunk() == z, f"{g.label}: closed-form reference disagrees")
        return z

    def round_ops(self) -> list[Op]:
        hc = self.lib.hardcore
        ops = [Op("engine.z", g.label, lambda g=g: hc.independence_polynomial(g),
                  lambda out, g=g, t=thunk: self._check_z(g, t, out))
               for g, thunk in self.z_inputs]
        ops += [Op("engine.profile", g.label,
                   lambda g=g: (hc.profile(g), hc.variance_via_marginals(g)),
                   lambda out, g=g, t=thunk: self._check_profile(g, t, out))
                for g, thunk in self.profile_inputs]
        self.round_no += 1
        return _in_round_order(ops, self.seed, self.round_no - 1)

    def _check_z(self, g, thunk, out) -> None:
        z = _coeffs(out)
        expect(z[:3] == (1, g.n, g.n * (g.n - 1) // 2 - g.edge_count),
               f"{g.label}: c0, c1, c2 are not 1, n, #non-edges")
        _expect_z(out, self._z_ref(g, thunk), g.label)

    def _check_profile(self, g, thunk, out) -> None:
        prof, via_marginals = out
        z = self._z_ref(g, thunk)
        _expect_z(prof.z, z, g.label)
        # The two variance routes, compared here rather than by the library's
        # own assert, which vanishes under -O.
        expect(via_marginals == prof.variance, f"{g.label}: variance routes disagree")
        n = g.n
        d1 = ref.pderiv(z)
        e = prof.expectation
        expect(ref.pmul(_coeffs(e.num), ref.pmul((n,), z)) == ref.pmul(_coeffs(e.den),
                                                                      ref.pmul(ref.X, d1)),
               f"{g.label}: E != x Z' / (n Z)")
        v = prof.variance
        expect(ref.pmul(_coeffs(v.num), ref.pmul((n,), ref.pmul(z, z)))
               == ref.pmul(_coeffs(v.den), ref.variance_numerator(z)),
               f"{g.label}: V != x dE/dx")
        # Each marginal is x Z(G - N[u]) / Z; with sum_u Z(G - N[u]) = Z' this
        # gives sum_u marginal_u = n E.
        split = self._split(g)
        full = (1 << n) - 1
        rest_sum: tuple = ()
        for u, marg in enumerate(prof.marginals):
            rest = split(full & ~(g.adj[u] | 1 << u))
            rest_sum = ref.padd(rest_sum, rest)
            expect(ref.pmul(_coeffs(marg.num), z) == ref.pmul(_coeffs(marg.den),
                                                             ref.pmul(ref.X, rest)),
                   f"{g.label}: marginal {u} != x Z(G - N[u]) / Z")
        expect(rest_sum == d1, f"{g.label}: sum of marginals != n E")


# -- small_graph_sweep ------------------------------------------------------------

class SmallGraphSweep:
    """Every graph on at most 7 vertices, enumerated cold, with a canonical-key
    check on a relabeled copy of each and three exact verdicts on each
    connected one."""

    name = "small_graph_sweep"
    nominal_round_s = 9.5

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        # The lru_cache object itself, captured before any tracing wrapper is
        # installed, so each round can start cold.
        self.enumerator = lib.corpus.all_graphs
        rng = ref.SplitMix64(seed)
        self.perms = {n: [rng.shuffle(list(range(n))) for _ in range(count)]
                      for n, count in GRAPH_COUNTS.items()}
        self._z: dict[tuple, tuple] = {}
        self.round_no = 0

    def cache_size(self) -> int:
        return self.enumerator.cache_info().currsize

    def round_ops(self) -> Iterator[Op]:
        corpus, bounds = self.lib.corpus, self.lib.bounds
        self.enumerator.cache_clear()
        graphs = {}

        def enumerate_n(n):
            graphs[n] = corpus.all_graphs(n)
            return graphs[n]

        # Enumeration comes first, in order: every later op reads its output.
        for n in GRAPH_COUNTS:
            yield Op("sweep.enumerate", f"all_graphs({n})", lambda n=n: enumerate_n(n),
                     lambda out, n=n: self._check_count(n, out), index=n - 1)
        ops = []
        for n in GRAPH_COUNTS:
            for i, g in enumerate(graphs.get(n, ())):
                perm = self.perms[n][i] if i < len(self.perms[n]) else list(range(n))
                adj = ref.relabel(n, g.adj, perm)
                ops.append(Op("sweep.canonical", f"n{n}#{i}",
                              lambda n=n, adj=adj: corpus.canonical_bits(n, adj),
                              lambda out, g=g: expect(out == ref.readout(g.n, g.adj),
                                                      "relabeled key != representative key")))
        for n in GRAPH_COUNTS:
            connected = [g for g in graphs.get(n, ()) if ref.is_connected(g.n, g.adj)]
            for i, g in enumerate(connected):
                floor_lam = F(3, (g.max_degree + 1) ** 2)
                ops.append(Op("sweep.degree_floor", f"conn{n}#{i}",
                              lambda g=g, lam=floor_lam: [
                                  c for c in bounds.check_occupancy_bounds(g, lam)
                                  if c.name == "occupancy.degree_floor"][0],
                              lambda out, g=g, lam=floor_lam: self._check_floor(g, lam, out)))
                for lam, bound in ((F(1, 2 * n), "variance.complete_floor"),
                                   (F(1, n), "variance.edgeless_ceiling")):
                    ops.append(Op("sweep.variance_window", f"conn{n}#{i}@{lam}",
                                  lambda g=g, lam=lam: bounds.check_variance_bounds(g, lam),
                                  lambda out, g=g, lam=lam, bound=bound:
                                      self._check_window(g, lam, bound, out)))
                # Criterion 09's three fugacities, taken in turn by graph.
                lam = (F(1, 2), F(1), F(2))[i % 3]
                ops.append(Op("sweep.local_occupancy", f"conn{n}#{i}@{lam}",
                              lambda g=g, lam=lam: bounds.check_local_occupancy(
                                  g, 1 + 1 / lam, 1, lam),
                              self._check_local))
        self.round_no += 1
        yield from _in_round_order(ops, self.seed, self.round_no - 1, start=len(GRAPH_COUNTS))

    def _zref(self, g) -> tuple:
        key = (g.n, g.adj)
        z = self._z.get(key)
        if z is None:
            z = self._z[key] = ref.brute_z(g.n, g.adj)
        return z

    def _check_count(self, n: int, out) -> None:
        expect(len(out) == GRAPH_COUNTS[n], f"all_graphs({n}) has {len(out)} graphs")
        connected = sum(1 for g in out if ref.is_connected(g.n, g.adj))
        expect(connected == CONNECTED_COUNTS[n], f"all_graphs({n}) has {connected} connected")
        expect(len({ref.readout(g.n, g.adj) for g in out}) == len(out),
               f"all_graphs({n}) repeats a representative")

    def _check_floor(self, g, lam, check) -> None:
        holds = self.lib.verdict.HOLDS
        e = ref.occupancy_at(self._zref(g), g.n, lam)
        floor = sum(lam / (1 + (d + 1) * lam) for d in g.degrees()) / g.n
        expect(check.status == holds, f"degree floor {check.status}")
        expect(check.lhs == floor and check.rhs == e, "degree floor values differ from reference")
        expect((check.margin == 0) == ref.is_union_of_cliques(g.n, g.adj),
               "equality case is not exactly the disjoint unions of cliques")

    def _check_window(self, g, lam: F, bound: str, checks) -> None:
        check = {c.name: c for c in checks}[bound]
        expect(check.status == self.lib.verdict.HOLDS, f"{bound} {check.status}")
        v = check.rhs if bound == "variance.complete_floor" else check.lhs
        expect(v == ref.variance_at(self._zref(g), g.n, lam),
               "variance differs from reference")

    def _check_local(self, check) -> None:
        expect(check.status == self.lib.verdict.HOLDS and check.margin >= 0,
               f"local occupancy {check.status}")


# -- orderings_web -------------------------------------------------------------------

PAIRS_PER_DEGREES = 64


def random_pairs(pool_seed: int) -> list[tuple[tuple, tuple]]:
    """Random generating pairs: constant term one and coefficients in 1..50
    up to a degree in 1..8 each, the shape partition functions take.

    The degrees are stratified, 64 pairs for each of the 64 degree pairs,
    because the degrees set an op's cost: a free draw let the seed decide
    how many costly pairs a round gets, and with it the tail latency.  The
    costliest pairs are those whose variance certificate has positive roots
    to isolate.  Which of them a seed draws moves the tail op: by 0.17
    (IQR over median, 20 pools) at 16 pairs a cell, and by 0.09-0.18 (two
    sets of ten seeds) at 64.
    """
    rng = ref.SplitMix64(pool_seed)

    def draw(degree):
        return (1,) + tuple(1 + rng.below(50) for _ in range(degree))
    return [(draw(dp), draw(dq)) for dp in range(1, 9) for dq in range(1, 9)
            for _ in range(PAIRS_PER_DEGREES)]


def _lemma_pairs() -> list[tuple[str, tuple, tuple]]:
    cube = ref.ppow((1, 3, 1), 3)
    return [
        ("fv_and_var_hold", cube, ref.pmul(ref.ppow((1, 2), 3), (1, 3))),
        ("var_without_fv", cube, (1, 9, 30, 44, 24, 9)),
        ("var_without_coef", cube, (1, 9, 30, 44, 24, 10)),
        ("fv_without_var.1", (1, 4, 2, 2), (1, 2, 1, 1)),
        ("fv_without_var.2", (1, 10, 210, 21, 21, 21), (1, 10, 10, 1, 1, 1)),
        ("fv_without_var.3", (1, 10, 1, 20010, 2001, 2001), (1, 10, 1, 10, 1, 1)),
    ]


def verdicts_digest(outputs) -> str:
    """sha256 over every verdict, witness and margin, in pair order."""
    h = hashlib.sha256()
    for rep in outputs:
        if rep is None:  # the op raised
            h.update(b"null")
            continue
        row = {k: v.to_json() for k, v in rep["verdicts"].items()}
        h.update(json.dumps([row, rep["violations"]], sort_keys=True).encode())
    return h.hexdigest()


class OrderingsWeb:
    """The seven orderings on random generating pairs and on the lemma pairs;
    all polynomial algebra and Sturm sequences, no engine and no corpus."""

    name = "orderings_web"
    nominal_round_s = 4.5

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        Poly = lib.polynomials.Poly
        self.pool_seed = seed % ORDERINGS_POOL
        self.pairs = [(p, q, Poly(p), Poly(q)) for p, q in random_pairs(self.pool_seed)]
        self.lemmas = [(name, p, q, Poly(p), Poly(q)) for name, p, q in _lemma_pairs()]
        self.expected_digest = load_pins()["orderings_web"][self.pool_seed]
        self.round_no = 0
        self._polys: dict[tuple, dict] = {}
        self._signs: dict[tuple, bool] = {}

    def round_ops(self) -> list[Op]:
        od = self.lib.orderings
        ops = [Op("web.lemma", name,
                  lambda pp=pp, qq=qq: (od.implication_web_check(pp, qq),
                                        od.var_difference_certificate(pp, qq)),
                  lambda out, name=name, p=p, q=q: self._check_lemma(name, p, q, out))
               for name, p, q, pp, qq in self.lemmas]
        ops += [Op("web.random", f"pair{i}", lambda pp=pp, qq=qq: od.implication_web_check(pp, qq),
                   lambda out, p=p, q=q: self._check_pair(p, q, out))
                for i, (p, q, pp, qq) in enumerate(self.pairs)]
        self.round_no += 1
        return _in_round_order(ops, self.seed, self.round_no - 1)

    def round_check(self, results: list[Result]) -> None:
        """A digest mismatch fails every random op of the round: the digest
        covers them all and cannot say which one moved."""
        random_ops = sorted((r for r in results if r.op.kind == "web.random"),
                            key=lambda r: int(r.op.label[len("pair"):]))
        if verdicts_digest(r.output for r in random_ops) != self.expected_digest:
            for r in random_ops:
                r.error = r.error or "round digest differs from the seed commit's"

    def _check_pair(self, p: tuple, q: tuple, rep: dict) -> None:
        expect(rep["violations"] == [], f"implication violations {rep['violations']}")
        v = rep["verdicts"]
        n = max(len(p), len(q))
        a = p + (0,) * (n - len(p))
        b = q + (0,) * (n - len(q))
        # The coefficient-indexed kinds, decided again here.
        expect(v["COUNT"].holds == (sum(a) >= sum(b)), "COUNT verdict")
        expect(v["MAX"].holds == (a[-1] >= b[-1]), "MAX verdict")
        coef_bad = next((k for k in range(1, n) if a[k] < b[k]), None)
        expect(v["COEF"].holds == (coef_bad is None)
               and (coef_bad is None or v["COEF"].witness == coef_bad), "COEF verdict")
        fv_bad = next((k for k in range(n - 1) if b[k] * a[k + 1] < a[k] * b[k + 1]), None)
        expect(v["FV"].holds == (fv_bad is None)
               and (fv_bad is None or v["FV"].witness == fv_bad), "FV verdict")
        # The pointwise kinds: a failure must come with a point where the
        # defining polynomial is negative.
        for kind, poly in self._pointwise(p, q).items():
            if v[kind].fails:
                w = F(v[kind].witness)
                expect(w >= 0 and self._negative_at(p, q, kind, poly, w),
                       f"{kind} witness does not certify")

    def _negative_at(self, p: tuple, q: tuple, kind: str, poly: tuple, w: F) -> bool:
        """Whether poly(w) < 0, evaluated once per pair, kind and witness."""
        key = (p, q, kind, w)
        negative = self._signs.get(key)
        if negative is None:
            negative = self._signs[key] = ref.peval(poly, w) < 0
        return negative

    def _pointwise(self, p: tuple, q: tuple) -> dict:
        """The polynomials that define PART, OCC and VAR, made once per pair
        and kept for the later rounds."""
        polys = self._polys.get((p, q))
        if polys is None:
            polys = self._polys[p, q] = {
                "PART": ref.psub(p, q),
                "OCC": ref.psub(ref.pmul(ref.pderiv(p), q), ref.pmul(ref.pderiv(q), p)),
                "VAR": self._var_certificate(p, q),
            }
        return polys

    @staticmethod
    def _var_certificate(p: tuple, q: tuple) -> tuple:
        """p^2 q^2 (V_p - V_q), from the variance numerators."""
        return ref.psub(ref.pmul(ref.variance_numerator(p), ref.pmul(q, q)),
                        ref.pmul(ref.variance_numerator(q), ref.pmul(p, p)))

    def _check_lemma(self, name: str, p: tuple, q: tuple, out) -> None:
        rep, cert = out
        self._check_pair(p, q, rep)
        v = rep["verdicts"]
        cert = _coeffs(cert)
        expect(cert == self._pointwise(p, q)["VAR"], "certificate differs from reference")
        if name == "fv_and_var_hold":
            factored = ref.pmul(ref.pmul(ref.pmul((0, 0, 0, 3), ref.ppow((1, 2), 4)),
                                         ref.ppow((1, 3, 1), 4)), (3, 32, 118, 176, 86))
            expect(v["FV"].holds and v["VAR"].holds and cert == factored,
                   "FV and VAR hold with the factored certificate")
        elif name == "var_without_fv":
            expect(v["FV"].fails and v["FV"].witness == 4 and v["VAR"].holds
                   and len(cert) - 1 == 21 and cert[-1] == 513,
                   "FV fails at 4, VAR holds, certificate degree 21 leading 513")
        elif name == "var_without_coef":
            expect(v["COEF"].fails and v["COEF"].witness == 5 and v["VAR"].holds,
                   "COEF fails at 5 and VAR holds")
        else:
            expect(v["FV"].holds and v["VAR"].fails, "FV holds and VAR fails")


# -- certified_tf ----------------------------------------------------------------------

def _lambert_w(x: float) -> float:
    w = math.log1p(x)
    for _ in range(100):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (1 + w))
        w -= step
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            break
    return w


def _contains(interval, x: float, slack: float = 1e-12) -> bool:
    pad = slack * abs(x)
    return float(interval.lo) - pad <= x <= float(interval.hi) + pad


class CertifiedTF:
    """Lambert-W occupancy floors on triangle-free graphs at lambda =
    1/(100 Delta^4), and the expectation/free-energy chain, all by certified
    rational enclosures."""

    name = "certified_tf"
    nominal_round_s = 7.0
    # The first graphs of acceptance criterion 05's stream (seed 50505,
    # 4..12 vertices, at least one edge).  Their cost varies tenfold with the
    # degree sequence, so the run seed relabels them rather than drawing new
    # ones: fresh draws would make the quantiles follow the seed.
    criterion_seed = 50505
    tf_random = 48

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        rng = ref.SplitMix64(seed)
        gen = lib.graphs.generate
        self.tf_inputs = [gen(s) for s in ("cycle:5", "kab:3,3", "petersen")]
        stream = ref.SplitMix64(self.criterion_seed)
        while len(self.tf_inputs) < 3 + self.tf_random:
            g = _triangle_free(lib, 4 + stream.below(9), stream, "")
            if g.max_degree >= 1:
                adj = ref.relabel(g.n, g.adj, rng.shuffle(list(range(g.n))))
                label = f"tf{len(self.tf_inputs) - 3}:{g.n}#{seed}"
                self.tf_inputs.append(lib.graphs.Graph(g.n, adj, label))
        self.chain_inputs = []
        while len(self.chain_inputs) < 12:
            n = 5 + rng.below(4)
            g = _gnm(lib, n, rng.below(n * (n - 1) // 2) + 1, rng,
                     f"gnm:{n}#{seed}.{len(self.chain_inputs)}")
            lam = (F(1, 4), F(1), F(4))[rng.below(3)]
            if ref.is_connected(g.n, g.adj):
                self.chain_inputs.append((g, lam))
        self._z: dict[str, tuple] = {}
        self.round_no = 0

    def _zref(self, g) -> tuple:
        z = self._z.get(g.label)
        if z is None:
            z = self._z[g.label] = ref.brute_z(g.n, g.adj)
        return z

    def _any_inconclusive(self, checks) -> bool:
        return any(c.status == self.lib.verdict.INCONCLUSIVE for c in checks)

    def round_ops(self) -> list[Op]:
        bounds = self.lib.bounds
        ops = [Op("tf.occupancy", g.label,
                  lambda g=g, lam=lam: bounds.check_occupancy_tf(g, lam),
                  lambda out, g=g, lam=lam: self._check_tf(g, lam, out),
                  lambda out: self._any_inconclusive([out]))
               for g, lam in ((g, F(1, 100 * g.max_degree ** 4)) for g in self.tf_inputs)]
        ops += [Op("tf.chain", f"{g.label}@{lam}",
                   lambda g=g, lam=lam: bounds.check_combined_chain(g, lam),
                   lambda out, g=g, lam=lam: self._check_chain(g, lam, out),
                   self._any_inconclusive)
                for g, lam in self.chain_inputs]
        self.round_no += 1
        return _in_round_order(ops, self.seed, self.round_no - 1)

    def _check_tf(self, g, lam: F, check) -> None:
        expect(check.status == self.lib.verdict.HOLDS and check.margin > 0,
               f"triangle-free floor {check.status}")
        expect(check.rhs == ref.occupancy_at(self._zref(g), g.n, lam),
               "occupancy differs from reference")
        s = float(lam / (1 + lam))
        L = math.log1p(float(lam))
        approx = sum(s * (_lambert_w(d * L) / (d * L) if d else 1.0) for d in g.degrees()) / g.n
        expect(_contains(check.lhs, approx), "Lambert-W enclosure misses the float estimate")

    def _check_chain(self, g, lam: F, checks) -> None:
        expect(len(checks) == 4 and all(
            c.status == self.lib.verdict.HOLDS and c.margin > 0 for c in checks),
            f"chain statuses {[c.status for c in checks]}")
        free_energy = math.log(float(ref.peval(self._zref(g), lam))) / g.n
        expect(_contains(checks[0].rhs, free_energy), "free-energy enclosure misses log(Z)/n")


# -- sampler_xval ------------------------------------------------------------------------

class SamplerXval:
    """The pinned cross-validation cases of the Glauber sampler, each run
    with its pinned seed; the only floating-point layer."""

    name = "sampler_xval"
    nominal_round_s = 4.6

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.cases = [(spec, lam, case_seed, lib.graphs.generate(spec))
                      for spec, lam, case_seed in lib.sampler.CROSS_VALIDATION_CASES]
        self.expected = load_pins()["sampler_xval"]
        self.round_no = 0

    @staticmethod
    def case_key(spec: str, lam: F, case_seed: int) -> str:
        return f"{spec}@{lam}#{case_seed}:{SAMPLER_STEPS}/{SAMPLER_BURN_IN}"

    def round_ops(self) -> list[Op]:
        estimate = self.lib.sampler.estimate
        ops = [Op("xval.estimate", key,
                  lambda g=g, lam=lam, s=case_seed: estimate(g, lam, SAMPLER_STEPS,
                                                             SAMPLER_BURN_IN, seed=s),
                  lambda out, g=g, lam=lam, key=key: self._check(g, lam, key, out))
               for key, g, lam, case_seed in ((self.case_key(spec, lam, s), g, lam, s)
                                              for spec, lam, s, g in self.cases)]
        self.round_no += 1
        return _in_round_order(ops, self.seed, self.round_no - 1)

    def _check(self, g, lam: F, key: str, rep) -> dict:
        expect(report_digest(rep) == self.expected[key], "report differs from the seed commit's")
        z = ref.brute_z(g.n, g.adj)
        ne = float(g.n * ref.occupancy_at(z, g.n, lam))
        nv = float(g.n * ref.variance_at(z, g.n, lam))
        return {"z_mean": abs(rep.mean_size - ne) / rep.se_mean,
                "z_var": abs(rep.var_size - nv) / rep.se_var}


def report_digest(rep) -> str:
    return hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (EngineSparse, SmallGraphSweep, OrderingsWeb, CertifiedTF,
                                 SamplerXval)}
