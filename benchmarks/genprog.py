"""Deterministic generator of deep guard-tree programs (the gen-deep workload).

A program is a spine of guards that the all-zero input walks from the entry,
with off-spine subtrees hung on the spine's free edges.  The zero seed
therefore executes a path as long as the spine, and every spine guard starts
on the frontier.  Guards cover every kind the document format has: integer
guards of width 1/2/4/8 in both endiannesses, signed and unsigned (8-byte
ones sometimes with extreme constants), string guards and xor guards.  Bug
nodes hang both straight off the spine and inside subtrees, and some
terminal edges are redirected to a later node so that nodes have several
parents.  Child ids are always larger than parent ids, so the graph is
acyclic.
"""

from __future__ import annotations

import base64
import json
import random

from refcheck import guard_outcome

INPUT_LEN = 64
NODES = 512
SPINE = 150
SPINE_BUGS = 8
SUBTREE_BUGS = 8
SHARED_FRAC = 0.15

_RELATIONS = ("lt", "le", "gt", "ge", "eq", "ne")
# Guard kinds and integer widths, dealt from a shuffled deck so that every
# program has the same mix and seeds vary only the order and the details;
# that keeps programs of different seeds about equally hard and costly.
_KINDS = (("int", 1), ("int", 1), ("int", 1), ("int", 2), ("int", 2), ("int", 4),
          ("int", 8), ("str", 0), ("str", 0), ("xor", 0))
_STR_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def _deck(rng: random.Random, cards):
    while True:
        hand = list(cards)
        rng.shuffle(hand)
        yield from hand


def _int_guard(rng: random.Random, width: int) -> dict:
    signed = rng.random() < 0.5
    bits = 8 * width
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
    if width == 8 and rng.random() < 0.3:
        constant = rng.choice((lo, lo + 1, hi - 1, hi, 0, 1))
    else:
        constant = rng.randint(lo, hi)
    return {
        "kind": "int", "offset": rng.randrange(INPUT_LEN - width + 1), "width": width,
        "endian": rng.choice(("le", "be")), "signed": signed, "constant": constant,
    }


def _str_guard(rng: random.Random) -> dict:
    length = rng.randint(2, 8)
    constant = bytes(rng.choice(_STR_ALPHABET) for _ in range(rng.randint(2, length)))
    return {
        "kind": "str", "offset": rng.randrange(INPUT_LEN - length + 1), "length": length,
        "constant": base64.b64encode(constant).decode("ascii"),
    }


def _xor_guard(rng: random.Random) -> dict:
    length = rng.randint(1, 4)
    return {
        "kind": "xor", "offset": rng.randrange(INPUT_LEN - length + 1), "length": length,
        "constant": rng.randrange(256),
    }


def program(seed: int) -> dict:
    """The target document for ``seed``, as a dict."""
    rng = random.Random(f"gen-deep/{seed}")
    nodes: list[dict] = []

    kinds = _deck(rng, _KINDS)
    relations = _deck(rng, _RELATIONS)

    def add_guard() -> dict:
        kind, width = next(kinds)
        if kind == "int":
            fields = _int_guard(rng, width)
        else:
            fields = _str_guard(rng) if kind == "str" else _xor_guard(rng)
        node = {"id": len(nodes), **fields, "relation": next(relations),
                "taken": None, "nottaken": None}
        nodes.append(node)
        return node

    def add_bug() -> int:
        nodes.append({"id": len(nodes), "kind": "bug"})
        return len(nodes) - 1

    zero = bytes(INPUT_LEN)
    free: list[tuple[dict, str]] = []
    spine_slot: tuple[dict, str] | None = None
    for _ in range(SPINE):
        node = add_guard()
        if spine_slot is not None:
            spine_slot[0][spine_slot[1]] = node["id"]
        on_path = "taken" if guard_outcome(node, zero) else "nottaken"
        free.append((node, "nottaken" if on_path == "taken" else "taken"))
        spine_slot = (node, on_path)

    for node, slot in rng.sample(free, SPINE_BUGS):
        node[slot] = add_bug()
    free = [(node, slot) for node, slot in free if node[slot] is None]

    while len(nodes) < NODES - SUBTREE_BUGS:
        node, slot = free.pop(rng.randrange(len(free)))
        child = add_guard()
        node[slot] = child["id"]
        free += [(child, "taken"), (child, "nottaken")]

    for node, slot in rng.sample(free, SUBTREE_BUGS):
        node[slot] = add_bug()
    # Redirect some still-terminal edges to a later node: shared children.
    for node, slot in free:
        if node[slot] is None and node["id"] < len(nodes) - 1 and rng.random() < SHARED_FRAC:
            node[slot] = rng.randrange(node["id"] + 1, len(nodes))
    return {"max_input_len": INPUT_LEN, "entry": 0, "nodes": nodes}


def document(seed: int) -> bytes:
    """The target document for ``seed`` in its JSON byte form."""
    return json.dumps(program(seed), separators=(",", ":")).encode("utf-8")
