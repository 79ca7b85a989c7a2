"""Seeded random well-formed global types, used to test well-behavedness
empirically over a corpus far larger than the hand-written one.

Guardedness is maintained by only emitting a recursion variable once a
communication has been crossed since its binder; par operands draw disjoint
role pools and never mention outer binders, so unfolding preserves the
role-disjointness of the operands.

A recursive loop over two independent communications has an unbounded state
space (out-of-order firing accumulates arbitrarily many pending actions), so
candidates are probed against a small state cap and redrawn when they exceed
it; the draw stays deterministic per seed.
"""
from __future__ import annotations

import random

from .lts import CapExceededError, build_lts
from .terms import (GBranch, GComm, GEnd, GlobalType, GMu, GPar, GVar,
                    PayloadType, check_wellformed_global)

_LABELS = ("Ask", "Reply", "Go", "Halt", "Ping", "Pong")
_PAYLOADS = tuple(PayloadType)

PROBE_CAP = 300
_PROBE_TERM_NODES = 2_000


def random_global_type(rng: random.Random, *, max_depth: int = 6,
                       roles: tuple[str, ...] = ("a", "b", "c", "d"),
                       max_branches: int = 3) -> GlobalType:
    while True:
        g = _candidate(rng, max_depth, roles, max_branches)
        assert not check_wellformed_global(g)
        try:
            build_lts(g, PROBE_CAP, max_term_nodes=_PROBE_TERM_NODES)
        except (CapExceededError, RecursionError):
            continue
        return g


def _candidate(rng: random.Random, max_depth: int, roles: tuple[str, ...],
               max_branches: int) -> GlobalType:
    counter = [0]

    def fresh_var() -> str:
        counter[0] += 1
        return f"X{counter[0]}"

    def gen(depth: int, pool: tuple[str, ...], guarded: frozenset[str],
            pending: frozenset[str], allow_par: bool) -> GlobalType:
        if depth <= 0 or len(pool) < 2:
            if guarded and rng.random() < 0.5:
                return GVar(rng.choice(sorted(guarded)))
            return GEnd()
        choices = ["comm", "comm", "comm", "end"]
        if guarded:
            choices.append("var")
        if depth >= 2:
            choices.append("mu")
        if allow_par and len(pool) >= 4 and depth >= 2:
            choices.append("par")
        kind = rng.choice(choices)
        if kind == "end":
            return GEnd()
        if kind == "var":
            return GVar(rng.choice(sorted(guarded)))
        if kind == "mu":
            var = fresh_var()
            body = gen(depth - 1, pool, guarded, pending | {var}, allow_par=False)
            return GMu(var, body)
        if kind == "par":
            shuffled = list(pool)
            rng.shuffle(shuffled)
            cut = rng.randrange(2, len(shuffled) - 1)
            left_pool, right_pool = tuple(shuffled[:cut]), tuple(shuffled[cut:])
            # Fresh scopes: no outer recursion variable may cross the par.
            sub_depth = min(depth - 1, 3)
            left = gen(sub_depth, left_pool, frozenset(), frozenset(), allow_par=False)
            right = gen(sub_depth, right_pool, frozenset(), frozenset(), allow_par=False)
            return GPar(left, right)
        sender, receiver = rng.sample(sorted(pool), 2)
        width = rng.randint(1, max_branches)
        labels = rng.sample(_LABELS, width)
        branches = tuple(
            GBranch(label, rng.choice(_PAYLOADS),
                    gen(depth - 1, pool, guarded | pending, frozenset(), allow_par))
            for label in labels)
        return GComm(sender, receiver, branches)

    return gen(max_depth, tuple(roles), frozenset(), frozenset(), allow_par=True)
