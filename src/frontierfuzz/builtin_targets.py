"""Bundled target documents used by the CLI, the test suite, and reports.

Each document is an ordinary target-document dict; ``document(name)`` renders
it to the canonical JSON byte form accepted by :func:`target.load_program`.
"""

from __future__ import annotations

import base64
import json

from .target import GuardProgram, load_program

__all__ = ["names", "document", "load", "SUITE"]


def _int(nid, offset, width, relation, constant, taken=None, nottaken=None,
         endian="le", signed=False) -> dict:
    return {
        "id": nid, "kind": "int", "offset": offset, "width": width,
        "endian": endian, "signed": signed, "relation": relation,
        "constant": constant, "taken": taken, "nottaken": nottaken,
    }


def _str(nid, offset, constant: bytes, relation="eq", taken=None, nottaken=None) -> dict:
    return {
        "id": nid, "kind": "str", "offset": offset, "length": len(constant),
        "relation": relation, "constant": base64.b64encode(constant).decode("ascii"),
        "taken": taken, "nottaken": nottaken,
    }


def _xor(nid, offset, length, constant, relation="eq", taken=None, nottaken=None) -> dict:
    return {
        "id": nid, "kind": "xor", "offset": offset, "length": length,
        "relation": relation, "constant": constant,
        "taken": taken, "nottaken": nottaken,
    }


_DOCS: dict[str, dict] = {
    # Single 4-byte little-endian magic integer.
    "magic32": {
        "max_input_len": 8,
        "entry": 0,
        "nodes": [_int(0, 0, 4, "eq", 0x4A4F4B45)],
    },
    # Single 4-byte big-endian magic integer.
    "magic32_be": {
        "max_input_len": 8,
        "entry": 0,
        "nodes": [_int(0, 0, 4, "eq", 0x31415926, endian="be")],
    },
    # 8-byte magic string at a nonzero offset.
    "magic_str8": {
        "max_input_len": 16,
        "entry": 0,
        "nodes": [_str(0, 4, b"BLUEMOON")],
    },
    # Depth-6 chain of single-byte equality guards; the taken edge descends.
    "chain6": {
        "max_input_len": 6,
        "entry": 0,
        "nodes": [
            _int(i, i, 1, "eq", c, taken=(i + 1 if i < 5 else None))
            for i, c in enumerate((1, 2, 4, 8, 16, 32))
        ],
    },
    # Integer root with a string branch on one side and an integer branch
    # on the other.
    "mixed_tree": {
        "max_input_len": 8,
        "entry": 0,
        "nodes": [
            _int(0, 0, 2, "ge", 1000, taken=1, nottaken=2),
            _str(1, 2, b"GATE"),
            _int(2, 6, 1, "gt", 100),
        ],
    },
    # Non-convex guard: xor over a 4-byte span compared to a constant.
    "xor_guard": {
        "max_input_len": 8,
        "entry": 0,
        "nodes": [_xor(0, 0, 4, 0x5D)],
    },
    # Two guards protecting a terminal bug node.
    "bug_chain": {
        "max_input_len": 8,
        "entry": 0,
        "nodes": [
            _int(0, 0, 2, "eq", 0xDEAD, taken=1),
            _int(1, 2, 1, "ge", 128, taken=2),
            {"id": 2, "kind": "bug"},
        ],
    },
    # One-byte boundary guard: byte 0 <= 15.
    "le15": {
        "max_input_len": 4,
        "entry": 0,
        "nodes": [_int(0, 0, 1, "le", 15)],
    },
}

# Benchmark suite used by the desk-scale coverage comparisons: every builtin,
# in definition order.
SUITE = tuple(_DOCS)


def names() -> list[str]:
    return sorted(_DOCS)


def document(name: str) -> bytes:
    """Render the named builtin target to its JSON document bytes."""
    if name not in _DOCS:
        raise KeyError(f"unknown builtin target '{name}' (have: {', '.join(names())})")
    return json.dumps(_DOCS[name], indent=2).encode("utf-8")


def load(name: str) -> GuardProgram:
    """Load the named builtin target through the document round trip."""
    return load_program(document(name))
