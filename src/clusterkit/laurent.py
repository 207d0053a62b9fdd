"""Exact sparse Laurent polynomials over the integers.

A monomial is a sorted tuple of (variable index, nonzero exponent) pairs;
variable indices are positive integers.  A polynomial maps monomials to
nonzero integer coefficients.  Coefficients are Python ints, so they are
arbitrary precision by construction.  Values are immutable and hashable.

Division is deliberately absent: every formula in this package is Laurent,
so denominators are expressed with negative exponents.  The certified exact
division needed by seed mutation lives in the engine module.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import chain, compress
import json
from struct import Struct

Monomial = tuple  # tuple[tuple[int, int], ...], sorted by variable index

MONO_ONE: Monomial = ()


def mono(exponents: Mapping[int, int]) -> Monomial:
    """Canonical monomial from a variable -> exponent mapping."""
    items = tuple(sorted((v, e) for v, e in exponents.items() if e != 0))
    if items and items[0][0] < 1:  # the smallest index
        raise ValueError(f"variable index must be positive, got {items[0][0]}")
    return items


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("terms", "_key")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        # Trusted constructor: zero coefficients are dropped, keys assumed canonical.
        if terms:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = {}
        self._key = None

    @classmethod
    def _of(cls, terms: dict) -> "LaurentPoly":
        """Trusted constructor: owns terms, whose coefficients are nonzero."""
        p = cls()
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def integer(c: int) -> "LaurentPoly":
        return LaurentPoly({MONO_ONE: c})

    @staticmethod
    def variable(i: int, exponent: int = 1) -> "LaurentPoly":
        return LaurentPoly({mono({i: exponent}): 1})

    @staticmethod
    def monomial(exponents: Mapping[int, int], coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({mono(exponents): coeff})

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Monomial, int]]) -> "LaurentPoly":
        acc: dict[Monomial, int] = {}
        for m, c in pairs:
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            elif m in acc:
                del acc[m]
        return LaurentPoly._of(acc)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return LaurentPoly.from_terms(chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms or not other.terms:
            return _ZERO
        if len(self.terms) > len(other.terms):
            self, other = other, self
        if len(self.terms) == 1:  # its products cannot collide or cancel
            ((m1, c1),) = self.terms.items()
            return LaurentPoly._of({mono_mul(m1, m2): c1 * c2 for m2, c2 in other.terms.items()})
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                nc = acc.get(m, 0) + c1 * c2
                if nc:
                    acc[m] = nc
                elif m in acc:
                    del acc[m]
        return LaurentPoly._of(acc)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            if len(self.terms) == 1:
                ((m, c),) = self.terms.items()
                if c in (1, -1):
                    inv = tuple((v, -e) for v, e in m)
                    return LaurentPoly({inv: c}) ** (-k)
            raise ValueError("negative powers only defined for unit monomials")
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient_sum(self) -> int:
        """Value at all variables set to 1 (number of terms with multiplicity)."""
        return sum(self.terms.values())

    def support(self) -> list[int]:
        vs: set[int] = set()
        for m in self.terms:
            for v, _ in m:
                vs.add(v)
        return sorted(vs)

    def min_exponent(self, v: int) -> int:
        """Smallest exponent of variable v over all terms (0 counts for absent)."""
        if not self.terms:
            return 0
        return min(dict(m).get(v, 0) for m in self.terms)

    def min_exponents(self) -> dict[int, int]:
        """`min_exponent` of every variable of the polynomial, in one pass
        over the terms (a term without the variable counts as exponent 0)."""
        least, present = {}, {}
        for m in self.terms:
            for v, e in m:
                least[v] = min(least.get(v, e), e)
                present[v] = present.get(v, 0) + 1
        return {v: e if present[v] == len(self.terms) else min(e, 0) for v, e in least.items()}

    def denominator_vector(self, nvars: int) -> tuple[int, ...]:
        """Per-variable denominator exponents: -min exponent, clamped from below.

        Initial variables come out as -1 in their own coordinate by this
        convention, matching the denominator parametrization used throughout.
        """
        least = self.min_exponents()
        return tuple(-least.get(i, 0) for i in range(1, nvars + 1))

    def key(self) -> tuple:
        """Hashable canonical form (terms sorted by monomial)."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"LaurentPoly({canonical_string(self)})"

    # -- substitutions -----------------------------------------------------

    def substitute_one(self, variables: Iterable[int]) -> "LaurentPoly":
        return substitute_one(self, variables)

    def rename(self, mapping: Mapping[int, int]) -> "LaurentPoly":
        return rename(self, mapping)


_ZERO = LaurentPoly()
_ONE = LaurentPoly({MONO_ONE: 1})


def substitute_one(p: LaurentPoly, variables: Iterable[int]) -> LaurentPoly:
    """Set every listed variable to 1, i.e. drop its exponents and re-merge."""
    drop = set(variables)
    if not drop:
        return p
    return LaurentPoly.from_terms((tuple(pair for pair in m if pair[0] not in drop), c)
                                  for m, c in p.terms.items())


def rename(p: LaurentPoly, mapping: Mapping[int, int]) -> LaurentPoly:
    """Relabel variables (one missing from mapping keeps its label); the
    relabelling must be injective on the variables of p, which are the only
    ones read."""
    support = p.support()
    new = {v: mapping.get(v, v) for v in support}
    if len(set(new.values())) != len(support):
        raise ValueError("rename mapping is not injective")
    return LaurentPoly({mono({new[v]: e for v, e in m}): c for m, c in p.terms.items()})


# -- deterministic rendering -----------------------------------------------


def _sort_key(p: LaurentPoly):
    vs = p.support()

    def key(m: Monomial):
        d = dict(m)
        vec = tuple(d.get(v, 0) for v in vs)
        # ascending total degree, then descending lexicographic exponent vector
        return (mono_degree(m), tuple(-e for e in vec))

    return key


def sorted_terms(p: LaurentPoly) -> list[tuple[Monomial, int]]:
    key = _sort_key(p)
    return sorted(p.terms.items(), key=lambda mc: key(mc[0]))


def _mono_string(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(f"x{v}" if e == 1 else f"x{v}^{e}")
    return "*".join(parts)


def canonical_string(p: LaurentPoly) -> str:
    """Deterministic flat rendering used for golden tests and dedup keys."""
    if not p.terms:
        return "0"
    chunks = []
    for m, c in sorted_terms(p):
        if c == 1 and m:
            body = _mono_string(m)
        elif c == -1 and m:
            body = "-" + _mono_string(m)
        elif not m:
            body = str(c)
        else:
            body = f"{c}*{_mono_string(m)}"
        chunks.append(body)
    out = chunks[0]
    for chunk in chunks[1:]:
        out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
    return out


def rational_string(p: LaurentPoly) -> str:
    """Numerator/denominator rendering: negative exponents are cleared into
    a single monomial denominator."""
    if not p.terms:
        return "0"
    den = {v: -e for v, e in p.min_exponents().items() if e < 0}
    if not den:
        return canonical_string(p)
    num = p * LaurentPoly.monomial(den)
    den_str = "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in sorted(den.items()))
    return f"({canonical_string(num)})/({den_str})"


# -- JSON form ---------------------------------------------------------------


def to_json_dict(p: LaurentPoly) -> dict:
    return {
        "terms": [
            {"coef": c, "exp": {str(v): e for v, e in m}} for m, c in sorted_terms(p)
        ]
    }


def from_json_dict(d: dict) -> LaurentPoly:
    return LaurentPoly.from_terms(
        (mono({int(v): e for v, e in t["exp"].items()}), t["coef"])
        for t in d["terms"]
    )


def from_json(s: str) -> LaurentPoly:
    return from_json_dict(json.loads(s))


def affine_sum(base: Mapping[int, int], deltas: Sequence[Monomial],
               tally: Mapping[Sequence[int], int], drop: Iterable[int] = ()) -> LaurentPoly:
    """Sum of c * x^base * deltas[0]^k_0 * deltas[1]^k_1 * ... over the
    items (k, c) of tally, with the variables in drop set to 1: one monomial
    built per distinct k, from its nonzero counts alone."""
    drop = set(drop)
    base = {v: e for v, e in base.items() if v not in drop}
    fields = range(len(deltas))
    acc: dict[Monomial, int] = {}
    for key, c in tally.items():
        e = dict(base)
        for i in compress(fields, key):
            k = key[i]
            for v, d in deltas[i]:
                e[v] = e.get(v, 0) + k * d
        m = mono({v: x for v, x in e.items() if v not in drop} if drop else e)
        acc[m] = acc.get(m, 0) + c
    return LaurentPoly(acc)


_FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct codes of the field widths
_BITS = bytes.maketrans(b"01", b"\0\1")


def field_width(largest: int) -> int:
    """The bits per field of a packed tally whose counts are at most
    largest: 1 for bits, else the least of 8, 16, 32 and 64 that holds it,
    so that `unpack` reads every field at C speed."""
    return 1 if largest < 2 else max(8, 1 << (largest.bit_length() - 1).bit_length())


def unpack(tally: Mapping[int, int], width: int, nfields: int) -> dict[Sequence[int], int]:
    """A tally keyed by packed counts as `affine_sum` reads it: field i of
    a key is its bits i*width .. (i+1)*width - 1, for a `field_width`."""
    if width == 1:
        return {bits(key, nfields): c for key, c in tally.items()}
    fields = Struct(f"<{nfields}{_FORMAT[width]}")
    return {fields.unpack(key.to_bytes(fields.size, "little")): c for key, c in tally.items()}


def bits(mask: int, n: int) -> bytes:
    """The n low bits of mask as bytes 0 and 1, bit 0 first: the binary
    digits below a leading 1 at bit n, reversed."""
    return bin(mask | 1 << n)[:2:-1].encode().translate(_BITS)


def poly_product(ps: Iterable[LaurentPoly]) -> LaurentPoly:
    result = LaurentPoly.one()
    for p in ps:
        result = result * p
    return result
