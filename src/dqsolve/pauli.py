"""Pauli-string representation and the observable sets used by the models.

Textual encoding: a string over {I, X, Y, Z} with qubit 0 as the leftmost
character, e.g. "XIZY".  Canonical ordering of sets is lexicographic with
I < X < Y < Z per qubit and qubit 0 most significant in the sort key, so
coefficient vectors align across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

MAX_FULL_ENUMERATION_QUBITS = 6

_LETTER_RANK = {"I": 0, "X": 1, "Y": 2, "Z": 3}
_NONTRIVIAL = ("X", "Y", "Z")


@dataclass(frozen=True, order=False)
class PauliString:
    letters: str

    def __post_init__(self):
        bad = set(self.letters) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters {bad!r} in {self.letters!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(1 for c in self.letters if c != "I")

    def sort_key(self):
        return tuple(_LETTER_RANK[c] for c in self.letters)

    def support(self):
        """(qubit, letter) pairs for the non-identity sites."""
        return tuple((q, c) for q, c in enumerate(self.letters) if c != "I")

    def __str__(self) -> str:
        return self.letters


def enumerate_k_local(n: int, k: int) -> list[PauliString]:
    """All Pauli strings of weight <= k on n qubits, identity included, in canonical order.

    Lengths: 3n+1 for k=1 and 9n(n-1)/2 + 3n + 1 for k=2.
    """
    if not 0 <= k <= n:
        raise ValueError(f"locality k={k} must satisfy 0 <= k <= n={n}")
    strings = []
    for w in range(k + 1):
        for sites in combinations(range(n), w):
            for letters in product(_NONTRIVIAL, repeat=w):
                chars = ["I"] * n
                for q, c in zip(sites, letters):
                    chars[q] = c
                strings.append(PauliString("".join(chars)))
    strings.sort(key=PauliString.sort_key)
    return strings


def all_strings(n: int) -> list[PauliString]:
    """The full 4**n set in canonical order."""
    if n > MAX_FULL_ENUMERATION_QUBITS:
        raise ValueError(
            f"full enumeration limited to {MAX_FULL_ENUMERATION_QUBITS} qubits, got {n}"
        )
    return [PauliString("".join(p)) for p in product("IXYZ", repeat=n)]


class ObservableSum:
    """A real-weighted sum of Pauli strings.

    Duplicate strings are merged and zero-coefficient terms dropped, so two
    sums built from the same content have equal ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[str, float] = {}
        n = None
        for coef, pstring in terms:
            if not isinstance(pstring, PauliString):
                pstring = PauliString(str(pstring))
            if n is None:
                n = pstring.n_qubits
            elif pstring.n_qubits != n:
                raise ValueError("all terms must act on the same register size")
            merged[pstring.letters] = merged.get(pstring.letters, 0.0) + float(coef)
        self.terms = tuple(
            (c, PauliString(s)) for s, c in sorted(merged.items(), key=lambda kv: PauliString(kv[0]).sort_key()) if c != 0.0
        )

    def __repr__(self) -> str:
        inner = " + ".join(f"{c:g}*{p}" for c, p in self.terms)
        return f"ObservableSum({inner or '0'})"


def sum_of_z(n: int) -> ObservableSum:
    """The fixed cost operator: sum of single-qubit Z over all qubits."""
    return ObservableSum(
        [(1.0, PauliString("I" * q + "Z" + "I" * (n - q - 1))) for q in range(n)]
    )
