"""Reference computations the benchmark checks the program against.

Everything here is written from the definitions, independently of the
``compchoice`` package: union closures, interior operators and open-set
counts as subset transforms, and the axiom sweeps as chunked numpy scans
that return the first violation in ascending (A, B) bitmask order, which is
the witness contract of the package. Chunks stay small (2^18 cells) so that
checking never raises the process's peak memory above the program's own.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

CHUNK_CELLS = 1 << 18


def digest(obj) -> str:
    """Stable short digest of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def popcounts(n_masks: int) -> np.ndarray:
    masks = np.arange(n_masks, dtype=np.int64)
    out = np.zeros(n_masks, dtype=np.int64)
    while masks.any():
        out += masks & 1
        masks >>= 1
    return out


# ---------------------------------------------------------------------------
# constructions


def union_closure(base: Sequence[int]) -> list[int]:
    closed = {0}
    for b in base:
        closed |= {c | b for c in closed}
    return sorted(closed)


def _subset_transform(n: int, seed: np.ndarray, combine: Callable) -> np.ndarray:
    """Fold every value into all supersets of its mask, one bit at a time."""
    t = seed.copy()
    masks = np.arange(1 << n, dtype=np.int64)
    for i in range(n):
        bit = 1 << i
        hi = masks[(masks & bit) != 0]
        t[hi] = combine(t[hi], t[hi ^ bit])
    return t


def interior_table(n: int, opens: Sequence[int]) -> np.ndarray:
    """Largest open set inside each menu (the union of those inside it)."""
    seed = np.zeros(1 << n, dtype=np.int64)
    seed[list(opens)] = list(opens)
    return _subset_transform(n, seed, np.bitwise_or)


def open_counts(n: int, opens: Sequence[int]) -> np.ndarray:
    """Number of open sets inside each menu."""
    seed = np.zeros(1 << n, dtype=np.int64)
    seed[list(opens)] = 1
    return _subset_transform(n, seed, np.add)


def minimal_neighborhoods(n: int, opens: Sequence[int], table: Sequence[int]) -> list[list[int]]:
    """Per element x, the inclusion-minimal open sets containing x.

    An open S containing x is minimal exactly when x is not in the interior
    of S minus any other of its elements.
    """
    out = []
    for i in range(n):
        bit = 1 << i
        out.append([
            s for s in opens
            if s & bit and not any(table[s & ~(1 << j)] & bit for j in range(n) if j != i and s >> j & 1)
        ])
    return out


# ---------------------------------------------------------------------------
# sweeps


def first_pair(n_masks: int, bad_rows: Callable) -> tuple[int, int] | None:
    """First (a, b) in row-major order where ``bad_rows(A, B)`` is true;
    ``A`` is a column of row masks and ``B`` the row of all masks."""
    masks = np.arange(n_masks, dtype=np.int64)
    rows = max(1, CHUNK_CELLS // n_masks)
    b = masks[None, :]
    for start in range(0, n_masks, rows):
        a = masks[start : start + rows, None]
        bad = np.broadcast_to(bad_rows(a, b), (len(a), n_masks))
        idx = int(bad.argmax())
        if bad.flat[idx]:
            return start + idx // n_masks, idx % n_masks
    return None


def cf_sweeps(table: np.ndarray) -> dict[str, tuple | None]:
    """First violation of each pair axiom (and idempotence) of a choice table."""
    t = np.asarray(table, dtype=np.int64)
    m = len(t)
    idem = np.nonzero(t[t] != t)[0]
    return {
        "consistent": first_pair(
            m, lambda a, b: ((t[a] & ~b) == 0) & ((b & ~a) == 0) & (t[b] != t[a])
        ),
        "monotone": first_pair(m, lambda a, b: ((a & ~b) == 0) & ((t[a] & ~t[b]) != 0)),
        "idempotent": (int(idem[0]),) if idem.size else None,
        "subadditive": first_pair(m, lambda a, b: (t[a | b] & ~(t[a] | t[b])) != 0),
        "superadditive": first_pair(m, lambda a, b: ((t[a] | t[b]) & ~t[a | b]) != 0),
        "substitutable_heredity": first_pair(
            m, lambda a, b: ((a & ~b) == 0) & ((t[b] & a & ~t[a]) != 0)
        ),
        "meet": first_pair(m, lambda a, b: t[a & b] != (t[a] & t[b])),
    }


def cf_report(table: Sequence[int]) -> tuple[dict[str, bool], dict[str, tuple]]:
    """Flags and witnesses as the analyzer must report them.

    A witness is ``(kind, menus, element)`` with menus as masks.
    """
    t = [int(x) for x in table]
    m = len(t)
    s = cf_sweeps(np.asarray(t))
    wits: dict[str, tuple] = {}
    for axiom in ("consistent", "monotone", "subadditive", "superadditive"):
        if s[axiom] is not None:
            wits[axiom] = ("pair", list(s[axiom]), None)
    if s["idempotent"] is not None:
        wits["idempotent"] = ("menu", list(s["idempotent"]), None)
    if s["substitutable_heredity"] is not None:
        a, b = s["substitutable_heredity"]
        off = t[b] & a & ~t[a]
        wits["substitutable_heredity"] = ("pair", [a, b], (off & -off).bit_length() - 1)
    consistent = s["consistent"] is None
    monotone = s["monotone"] is None
    if not (consistent and monotone):
        wits["complementary"] = wits["consistent"] if not consistent else wits["monotone"]
    full_ok = t[m - 1] == m - 1
    if not consistent:
        wits["completely_complementary"] = wits["consistent"]
    elif not full_ok:
        wits["completely_complementary"] = ("full_menu", [m - 1], None)
    elif s["meet"] is not None:
        wits["completely_complementary"] = ("pair", list(s["meet"]), None)
    flags = {
        "consistent": consistent,
        "monotone": monotone,
        "idempotent": s["idempotent"] is None,
        "subadditive": s["subadditive"] is None,
        "superadditive": s["superadditive"] is None,
        "substitutable_heredity": s["substitutable_heredity"] is None,
        "complementary": consistent and monotone,
        "completely_complementary": "completely_complementary" not in wits,
    }
    return flags, wits


def meet_position(table: Sequence[int]) -> int | None:
    """Row-major position of the first meet-preservation violation."""
    t = np.asarray(table, dtype=np.int64)
    hit = first_pair(len(t), lambda a, b: t[a & b] != (t[a] & t[b]))
    return None if hit is None else hit[0] * len(t) + hit[1]


def setfn_report(values: Sequence[int], n: int) -> tuple[dict[str, bool], dict[str, list]]:
    """Flags and witnesses ``verify`` must report for an integer set function."""
    v = np.asarray(values, dtype=np.int64)
    m = len(v)
    sup = first_pair(m, lambda a, b: v[a] + v[b] > v[a & b] + v[a | b])
    sub = first_pair(m, lambda a, b: v[a] + v[b] < v[a & b] + v[a | b])
    masks = np.arange(m, dtype=np.int64)
    monotone = True
    for i in range(n):
        lo = masks[(masks >> i & 1) == 0]
        if (v[lo] > v[lo | (1 << i)]).any():
            monotone = False
            break
    order = order_witness(v)
    flags = {
        "supermodular": sup is None,
        "submodular": sub is None,
        "modular": sup is None and sub is None,
        "neither": sup is not None and sub is not None,
        "monotone": monotone,
        "supermodular_order": order is None,
    }
    wits = {}
    for key, hit in (("supermodular", sup), ("submodular", sub), ("supermodular_order", order)):
        if hit is not None:
            wits[key] = list(hit)
    return flags, wits


def order_witness(values: Sequence[int]) -> tuple[int, int] | None:
    """First pair at which the order induced by ``values`` fails to be
    supermodular."""
    r = np.unique(np.asarray(values, dtype=np.int64), return_inverse=True)[1].astype(np.int64).reshape(-1)
    return first_pair(
        len(r),
        lambda a, b: ~((r[a] <= r[a & b]) | (r[b] <= r[a | b]))
        | ((r[a & b] < r[a]) & ~(r[b] < r[a | b])),
    )


def order_witness_touching(values: Sequence[int], p: int) -> tuple[int, int] | None:
    """``order_witness(values)`` when ``values`` is a supermodular function
    with the value at mask ``p`` moved. A supermodular function's order is
    supermodular, so every violating pair has ``p`` among A, B, A & B and
    A | B; only those pairs are checked."""
    v = np.asarray(values, dtype=np.int64)
    m = len(v)
    masks = np.arange(m, dtype=np.int64)
    subs = masks[(masks & p) == masks]
    sups = masks[(masks & p) == p]
    a_parts, b_parts = [masks, np.full(m, p)], [np.full(m, p), masks]
    for a in subs:  # A | B = p
        b = subs[(subs | a) == p]
        a_parts.append(np.full(len(b), a))
        b_parts.append(b)
    for a in sups:  # A & B = p
        b = sups[(sups & a) == p]
        a_parts.append(np.full(len(b), a))
        b_parts.append(b)
    a, b = np.concatenate(a_parts), np.concatenate(b_parts)
    # order_witness's predicate with ranks replaced by the values they rank
    bad = (v[a] > v[a & b]) & (v[b] >= v[a | b])
    if not bad.any():
        return None
    pos = int((a * m + b)[bad].min())
    return pos // m, pos % m


def least_maximizer_failure(values: Sequence, n_masks: int, limit: int) -> int | None:
    """First menu below ``limit`` whose maximizers have no least member."""
    for m in range(min(limit, n_masks)):
        best = None
        inter = 0
        sub = m
        while True:
            val = values[sub]
            if best is None or val > best:
                best, inter = val, sub
            elif val == best:
                inter &= sub
            if sub == 0:
                break
            sub = (sub - 1) & m
        if values[inter] != best:
            return m
    return None


def fraction_text(x) -> str:
    return str(Fraction(x))
