"""The four benchmark workloads: inputs, the timed op, and the oracle.

Each workload turns a seed into a pool of raw op specs (``generate``), builds
fresh library objects for every op (``build``, the measured set-up), runs one
op (``run``, the timed part), condenses the output into the facts the oracle
needs (``summarize``, untimed) and checks those facts (``check``, untimed).
``check`` returns None when the output is right and a one-line reason when it
is not.

The library is reached through its modules (``prym.pairing_table``, not a
name bound here) so that the traced run, which patches module attributes,
sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import gen
from tropcover import cli, covers, divisors, graphs, prym, serialize, theta


# -- shared helpers --------------------------------------------------------


def build_graph(raw):
    verts, edges = raw
    return graphs.MetricGraph(verts, edges)


def build_point(graph, spec):
    if spec[0] == "v":
        return graphs.Point.at_vertex(spec[1])
    return graph.point(spec[1], spec[2])


def build_divisor(graph, raw_div):
    return divisors.Divisor(graph, [(build_point(graph, p), a) for p, a in raw_div])


def interior_genus(raw, cycle) -> int:
    """Genus of the subgraph left once every vertex on the cycle is removed
    (the h of the 2^h covers dilated along the cycle)."""
    verts, edges = raw
    on = {end for eid, t, h, _ in edges if eid in cycle for end in (t, h)}
    keep_v = [v for v in verts if v not in on]
    keep_e = [e for e in edges if e[0] not in cycle and e[1] not in on and e[2] not in on]
    parent = {v: v for v in keep_v}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    comps = len(keep_v)
    for _, t, h, _ in keep_e:
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rt] = rh
            comps -= 1
    return len(keep_e) - len(keep_v) + comps


def is_even(raw, edge_set) -> bool:
    _, edges = raw
    deg = {}
    for eid, t, h, _ in edges:
        if eid in edge_set:
            deg[t] = deg.get(t, 0) + 1
            deg[h] = deg.get(h, 0) + 1
    return all(d % 2 == 0 for d in deg.values())


def graph_descriptors(raws):
    gs = [gen.genus(r) for r in raws]
    es = [len(r[1]) for r in raws]
    return {
        "genus": [min(gs), max(gs)],
        "edges": [min(es), max(es)],
        "max_denominator": gen.max_denominator(raws),
    }


class Workload:
    name = ""
    why = ""
    deadline_s = 0.0

    def generate(self, rng):
        """(raw specs, input descriptors) for one seed."""
        raise NotImplementedError

    def build(self, raw_ops, workdir):
        """The op inputs, built fresh from the raw specs: the measured
        set-up.  Paths of files to write point into workdir."""
        raise NotImplementedError

    def write(self):
        """Write the files the last build made to disk; not timed."""

    def run(self, inp):
        raise NotImplementedError

    def summarize(self, inp, out):
        """(items completed, facts for the oracle)."""
        raise NotImplementedError

    def check(self, inp, facts):
        raise NotImplementedError


# -- pairing ---------------------------------------------------------------


class Pairing(Workload):
    name = "pairing"
    why = "pairing_table, the 4^g headline: Abel-Jacobi, refine, linalg and Prym with warm per-cover caches"
    deadline_s = 30.0
    # one genus-5 table, then genus 3 and 4 two to one: op_ms_p50 falls
    # among the genus-3 tables and op_ms_tail among the genus-4 ones
    LADDER = (5,) + (3, 3, 4) * 20

    def generate(self, rng):
        raws = [gen.random_3regular(rng, g, gen.unit_length, loops=False) for g in self.LADDER]
        return raws, graph_descriptors(raws)

    def build(self, raw_ops, workdir):
        return [(raw, build_graph(raw)) for raw in raw_ops]

    def run(self, inp):
        return prym.pairing_table(inp[1])

    def summarize(self, inp, out):
        evens, table = out
        return sum(len(row) for row in table), (list(evens), [list(r) for r in table])

    def check(self, inp, facts):
        raw, _ = inp
        evens, table = facts
        g = gen.genus(raw)
        if len(evens) != 2**g or len(set(evens)) != 2**g:
            return "expected %d distinct even subgraphs, got %d" % (2**g, len(evens))
        if not all(is_even(raw, c) for c in evens):
            return "a column label is not an even subgraph"
        # the rows follow free_covers order; read each cover's sheet-swap
        # bits from a freshly built graph
        bits = [c.bits for c in covers.free_covers(build_graph(raw))]
        if len(table) != len(bits):
            return "expected %d rows, got %d" % (len(bits), len(table))
        for i, (row, b) in enumerate(zip(table, bits)):
            want = [sum(b.get(e, 0) for e in c) % 2 for c in evens]
            if row != want:
                return "row %d differs from the cocycle formula" % i
        return None


# -- census ----------------------------------------------------------------


class Census(Workload):
    name = "census"
    why = "theta characteristics and every free and dilated cover: graphs and covers only, no jacobian or linalg"
    deadline_s = 20.0
    # six large graphs, so that op_ms_tail (the eleventh largest) falls
    # among the genus-6 ones rather than between genera
    LADDER = ((8,) + (6,) * 12 + (7,) + (6,) * 12 + (7,)) * 2

    def generate(self, rng):
        raws = [
            gen.random_3regular(rng, g, gen.fractional_length, loops=False)
            for g in self.LADDER
        ]
        return raws, graph_descriptors(raws)

    def build(self, raw_ops, workdir):
        return [(raw, build_graph(raw)) for raw in raw_ops]

    def run(self, inp):
        G = inp[1]
        chars = theta.enumerate_theta(G)
        free = [covers.verify_cover(c) for c in covers.free_covers(G)]
        dilated = []
        for cyc in graphs.CycleSpace(G).even_subgraphs():
            if cyc:
                cs = covers.covers_with_dilation(G, cyc)
                dilated.append((cyc, [covers.verify_cover(c) for c in cs]))
        return chars, free, dilated

    def summarize(self, inp, out):
        chars, free, dilated = out
        facts = (
            [(t.divisor.degree(), t.effective) for t in chars],
            [rep.ok for rep in free],
            [(cyc, [(rep.ok, rep.dilation) for rep in reps]) for cyc, reps in dilated],
        )
        items = len(chars) + len(free) + sum(len(reps) for _, reps in dilated)
        return items, facts

    def check(self, inp, facts):
        raw, _ = inp
        chars, free, dilated = facts
        g = gen.genus(raw)
        if len(chars) != 2**g:
            return "expected %d theta characteristics, got %d" % (2**g, len(chars))
        if any(d != g - 1 for d, _ in chars):
            return "a theta characteristic has degree other than g - 1"
        if sum(1 for _, eff in chars if not eff) != 1:
            return "not exactly one non-effective theta characteristic"
        if len(free) != 2**g or not all(free):
            return "expected %d verified free covers" % 2**g
        if len(dilated) != 2**g - 1:
            return "expected %d dilation cycles, got %d" % (2**g - 1, len(dilated))
        for cyc, reps in dilated:
            if not is_even(raw, cyc):
                return "dilation set %s is not an even subgraph" % sorted(cyc)
            if len(reps) != 2 ** interior_genus(raw, cyc):
                return "wrong number of covers dilated along %s" % sorted(cyc)
            for ok, dil in reps:
                if not ok or dil != cyc:
                    return "a cover dilated along %s fails verification" % sorted(cyc)
        return None


# -- reduce ----------------------------------------------------------------


class Reduce(Workload):
    name = "reduce"
    why = "effective_representative alone: chip-firing reduce_at with its exponential tail, cut by the deadline"
    deadline_s = 0.25
    # Random genus-4 graphs with lengths {1, 2} and genus-3 graphs with
    # lengths {1, 1/2, 3/2} finish in at most ~60 ms.  Random instances at
    # genus 5-6 also finish in 0.1-10 s, at a rate that varies with the
    # seed; that would make every figure depend on the seed.  So the
    # blow-up enters at a fixed share instead: one op in BLOWUP_EVERY is a
    # theta graph with edge lengths 1/p for distinct odd primes p, whose
    # unit subdivision makes reduce_at run for minutes.  These are the
    # instances a polynomial reduction would bring under the deadline.
    BLOWUP_EVERY = 200
    OPS = 4000
    PRIMES = (3, 5, 7, 11, 13)

    def generate(self, rng):
        ops = []
        for i in range(self.OPS):
            if i % self.BLOWUP_EVERY == self.BLOWUP_EVERY - 1:
                ps = rng.sample(self.PRIMES, 3)
                raw = (["a", "b"], [("e%d" % k, "a", "b", Fraction(1, p)) for k, p in enumerate(ps)])
                D = [(("v", "a"), 3), (("v", "b"), -1)]
            elif i % 8 == 7:
                raw = gen.random_3regular(rng, 3, gen.half_integer_length)
                D = gen.random_divisor(rng, raw, 3)
            else:
                raw = gen.random_3regular(rng, 4, gen.small_integer_length)
                D = gen.random_divisor(rng, raw, 4)
            ops.append((raw, D))
        return ops, graph_descriptors([raw for raw, _ in ops])

    def build(self, raw_ops, workdir):
        return [build_divisor(build_graph(raw), D) for raw, D in raw_ops]

    def run(self, inp):
        return divisors.effective_representative(inp)

    def summarize(self, inp, out):
        return (0 if out is None else 1), out

    def check(self, D, red):
        if red is None:
            return "no effective representative for a degree-g divisor"
        if red.degree() != D.degree():
            return "degree changed from %d to %d" % (D.degree(), red.degree())
        q = graphs.Point.at_vertex(D.graph.vertex_ids[0])
        if any(a < 0 for p, a in red.items() if p != q):
            return "negative away from q"
        if not red.is_effective():
            return "result is not effective"
        if not divisors.equivalent(red, D):
            return "result is not equivalent to the input"
        return None


# -- cli -------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    why = "tropcover.cli.main in process: JSON parsing and cold lattice and homology set-up on every call"
    deadline_s = 5.0
    GRAPHS = 100
    CYCLES = 300

    def __init__(self, root):
        k4 = os.path.join(root, "tests", "data", "k4.json")
        golden = os.path.join(root, "tests", "golden")
        cube = os.path.join(golden, "k4_cube.json")
        self.k4_verbs = [
            ("theta", ["theta", k4]),
            ("cover free", ["cover", "free", k4]),
            ("cover verify", ["cover", "verify", cube]),
            ("prym components", ["prym", "components", cube]),
            ("pair", ["pair", k4]),
        ]
        # the golden files are only read; cover verify and prym components
        # of the golden cube cover have no golden file of their own
        self.k4_expected = {
            "theta": _text(os.path.join(golden, "k4_theta.jsonl")),
            "cover free": _text(os.path.join(golden, "k4_cover_free.jsonl")),
            "pair": _text(os.path.join(golden, "k4_pair.json")),
            "cover verify": '{"dilation":[],"ok":true,"problems":[]}\n',
            "prym components": "2\n",
        }

    def generate(self, rng):
        cases = []
        for i in range(self.GRAPHS):
            raw = gen.random_3regular(rng, 4 + i % 2, gen.small_integer_length)
            D1 = gen.random_divisor(rng, raw, 0)
            # an equivalent pair: fire a random nonempty proper vertex set
            verts = raw[0]
            S = rng.sample(verts, rng.randint(1, len(verts) - 1))
            D2 = gen.fire_vertex_set(raw, D1, S)
            # a pair that differs by a point minus another point
            a, b = rng.sample(verts, 2)
            D3 = D1 + [(("v", a), 1), (("v", b), -1)]
            cases.append((raw, D1, D2, D3))
        return cases, graph_descriptors([c[0] for c in cases])

    def build(self, cases, workdir):
        """Serialize every graph and divisor to JSON text and list the
        (verb, argv) of each op: per cycle, four ops on a fresh graph and
        one K4 verb.  write() puts the texts on disk, outside the timing,
        where file-system latency would swamp the set-up it measures."""
        self.texts = {}
        files = []
        for i, (raw, D1, D2, D3) in enumerate(cases):
            G = build_graph(raw)
            names = {}
            for key, obj in (
                ("graph", serialize.graph_to_obj(G)),
                ("d1", serialize.divisor_to_obj(build_divisor(G, D1))),
                ("d2", serialize.divisor_to_obj(build_divisor(G, D2))),
                ("d3", serialize.divisor_to_obj(build_divisor(G, D3))),
                ("diff", serialize.divisor_to_obj(build_divisor(G, D1) - build_divisor(G, D3))),
            ):
                path = os.path.join(workdir, "g%d_%s.json" % (i, key))
                self.texts[path] = serialize.dumps(obj)
                names[key] = path
            files.append(names)
        ops = []
        for r in range(self.CYCLES):
            f = files[r % len(files)]
            ops.append(("equiv", ["divisor", "equiv", f["graph"], f["d1"], f["d2"]]))
            ops.append(("equiv", ["divisor", "equiv", f["graph"], f["d1"], f["d3"]]))
            ops.append(("principal", ["divisor", "principal", f["graph"], f["diff"]]))
            ops.append(("jac", ["jac", f["graph"], f["diff"]]))
            ops.append(self.k4_verbs[r % len(self.k4_verbs)])
        return ops

    def write(self):
        for path, text in self.texts.items():
            with open(path, "w") as fh:
                fh.write(text)

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inp[1]))
        return code, buf.getvalue()

    def summarize(self, inp, out):
        return out[1].count("\n"), out

    def check(self, inp, facts):
        verb, argv = inp
        code, text = facts
        if code != 0:
            return "exit code %d" % code
        if verb in ("equiv", "principal"):
            paths = argv[2:]
            G = serialize.graph_from_obj(_read(paths[0]))
            if verb == "equiv":
                D1, D2 = (serialize.divisor_from_obj(G, _read(p)) for p in paths[1:])
                want = D1.degree() == D2.degree() and divisors.laplacian_image_contains(G, D1 - D2)
            else:
                D = serialize.divisor_from_obj(G, _read(paths[1]))
                want = D.degree() == 0 and divisors.laplacian_image_contains(G, D)
            return None if text == ("true\n" if want else "false\n") else "answer disagrees with the chip-firing oracle"
        if verb == "jac":
            G = serialize.graph_from_obj(_read(argv[1]))
            D = serialize.divisor_from_obj(G, _read(argv[2]))
            obj = json.loads(text)
            if obj["basis"] != "fundamental" or len(obj["tree"]) != len(G.edge_ids) - G.genus():
                return "malformed Abel-Jacobi point"
            want = abel_jacobi_on_tree(G, D, set(obj["tree"]))
            got = [Fraction(c) for c in obj["coords"]]
            return None if got == want else "coordinates differ from the tree-path pairing"
        return None if text == self.k4_expected[verb] else "output differs from the expected bytes"


def abel_jacobi_on_tree(G, D, tree):
    """Coordinates of a degree-0 divisor supported on vertices: the
    length-weighted pairing of its tree-path chain with the fundamental
    cycle of each non-tree edge, the non-tree edge run tail to head."""
    adj = {v: [] for v in G.vertex_ids}
    for e in tree:
        t, h = G.ends(e)
        adj[t].append((e, h, 1))
        adj[h].append((e, t, -1))
    root_chain = {}
    for root in G.vertex_ids:
        if root in root_chain:
            continue
        root_chain[root] = {}
        stack = [root]
        while stack:
            v = stack.pop()
            for e, w, sign in adj[v]:
                if w not in root_chain:
                    root_chain[w] = dict(root_chain[v])
                    root_chain[w][e] = sign
                    stack.append(w)
    chain = {}
    for p, a in D.items():
        for e, c in root_chain[p.id].items():
            chain[e] = chain.get(e, 0) + a * c
    coords = []
    for e in G.edge_ids:
        if e in tree:
            continue
        t, h = G.ends(e)
        cycle = {e: 1}
        for f, c in root_chain[t].items():
            cycle[f] = cycle.get(f, 0) + c
        for f, c in root_chain[h].items():
            cycle[f] = cycle.get(f, 0) - c
        coords.append(sum((G.length(f) * c * chain.get(f, 0) for f, c in cycle.items()), Fraction(0)))
    return coords


def _text(path):
    with open(path) as fh:
        return fh.read()


def _read(path):
    return json.loads(_text(path))


def make(name, root):
    return {
        "pairing": Pairing,
        "census": Census,
        "reduce": Reduce,
        "cli": lambda: Cli(root),
    }[name]()


def rng_for(name, seed):
    """Each workload draws from its own stream of the seed."""
    return random.Random("%s:%d" % (name, seed))
