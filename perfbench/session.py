"""The apply-q3 library session: a closed loop with one client that applies
the cached Harish-Chandra, duality and antipode operators to seeded random
inputs, and the identity gate that checks every result.

Only the glnq public API is used, always through module attributes, so a
tracer installed beforehand sees every call.
"""
from __future__ import annotations

import hashlib
import json
import random
import time

from glnq import duality, hc, hopf, invfun, orbits
from glnq.field import Cyclotomic
from glnq.glmat import compositions
from glnq.invfun import InvariantFunction, TensorFunction

KINDS = ("hc_restrict", "hc_induce", "duality_apply", "antipode_function",
         "inner_product")


def request_shapes(max_n):
    """The parameters each request kind is drawn from: compositions with at
    least two parts for restriction and induction, degrees otherwise."""
    comps = [c.parts for n in range(2, max_n + 1) for c in compositions(n)
             if len(c.parts) >= 2]
    degrees = list(range(1, max_n + 1))
    return {"hc_restrict": comps, "hc_induce": comps, "duality_apply": degrees,
            "antipode_function": degrees, "inner_product": degrees}


def random_function(rng, ctx, n):
    """Dense random values in Q(zeta_p) with small integer coordinates."""
    table = orbits.enumerate_orbits(n, ctx)
    p = ctx.p
    return InvariantFunction(table, [
        Cyclotomic(p, [rng.randint(-3, 3) for _ in range(p - 1)])
        for _ in range(len(table))])


def random_tensor(rng, ctx, parts):
    return TensorFunction.outer([random_function(rng, ctx, m) for m in parts])


def make_request(rng, ctx, kind, param):
    if kind == "hc_restrict":
        return kind, param, (random_function(rng, ctx, sum(param)),)
    if kind == "hc_induce":
        return kind, param, (random_tensor(rng, ctx, param),)
    if kind == "inner_product":
        return kind, param, (random_function(rng, ctx, param),
                             random_function(rng, ctx, param))
    return kind, param, (random_function(rng, ctx, param),)


def make_requests(seed, ctx, max_n, count):
    rng = random.Random(seed)
    shapes = request_shapes(max_n)
    out = []
    for _ in range(count):
        kind = rng.choice(KINDS)
        out.append(make_request(rng, ctx, kind, rng.choice(shapes[kind])))
    return out


def execute(ctx, kind, param, args):
    if kind == "hc_restrict":
        return hc.hc_restrict(args[0], param)
    if kind == "hc_induce":
        return hc.hc_induce(args[0], param)
    if kind == "duality_apply":
        return duality.duality_operator(param, ctx).apply(args[0])
    if kind == "antipode_function":
        return hopf.antipode_function(args[0])
    return invfun.inner_product(args[0], args[1])


def warm_up(ctx, max_n, seed):
    """One request of each kind for every shape it can be drawn with, so that
    every operator the stream applies is built before timing starts."""
    rng = random.Random(f"warm-up-{seed}")
    for kind, params in request_shapes(max_n).items():
        for param in params:
            execute(ctx, *make_request(rng, ctx, kind, param))


def serialize(result) -> str:
    if isinstance(result, Cyclotomic):
        return result.serialize()
    if isinstance(result, InvariantFunction):
        return json.dumps(result.to_json(), sort_keys=True)
    return json.dumps({
        "degrees": list(result.degrees),
        "values": {"|".join(tab.labels[i].serialize()
                            for tab, i in zip(result.tables, idx)): v.serialize()
                   for idx, v in result.values.items()}}, sort_keys=True)


def result_hash(kind, param, result) -> str:
    text = f"{kind} {param} {serialize(result)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(hashes) -> str:
    return hashlib.sha256(" ".join(hashes).encode()).hexdigest()


class IdentityGate:
    """Checks each result by an identity it must satisfy: D(D f) = f,
    S(S f) = f, adjunction against seeded test functions, and
    (f, g) = conj((g, f))."""

    def __init__(self, ctx, seed):
        self.ctx = ctx
        self.rng = random.Random(f"gate-{seed}")
        self._g = {}      # degree -> test function
        self._t = {}      # composition -> test tensor
        self._res_g = {}  # composition -> Res of the test function
        self._ind_t = {}  # composition -> Ind of the test tensor

    def _test_function(self, n):
        if n not in self._g:
            self._g[n] = random_function(self.rng, self.ctx, n)
        return self._g[n]

    def _test_tensor(self, parts):
        if parts not in self._t:
            self._t[parts] = random_tensor(self.rng, self.ctx, parts)
        return self._t[parts]

    def check(self, kind, param, args, result) -> bool:
        ctx = self.ctx
        if kind == "hc_restrict":
            if param not in self._ind_t:
                self._ind_t[param] = hc.hc_induce(self._test_tensor(param), param)
            return (invfun.tensor_inner_product(result, self._test_tensor(param))
                    == invfun.inner_product(args[0], self._ind_t[param]))
        if kind == "hc_induce":
            g = self._test_function(sum(param))
            if param not in self._res_g:
                self._res_g[param] = hc.hc_restrict(g, param)
            return (invfun.inner_product(result, g)
                    == invfun.tensor_inner_product(args[0], self._res_g[param]))
        if kind == "duality_apply":
            return duality.duality_operator(param, ctx).apply(result) == args[0]
        if kind == "antipode_function":
            return hopf.antipode_function(result) == args[0]
        return result == invfun.inner_product(args[1], args[0]).conj()


def run_stream(ctx, requests):
    """Send each request after the previous one completes; returns the results,
    per-request latencies in seconds, and the loop's wall time."""
    clock = time.perf_counter
    results, latencies = [], []
    start = clock()
    for kind, param, args in requests:
        t0 = clock()
        results.append(execute(ctx, kind, param, args))
        latencies.append(clock() - t0)
    return results, latencies, clock() - start
