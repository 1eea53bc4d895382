"""Exact arithmetic on signed-digit address spaces.

Words are over the alphabet {-N,…,-1, 1,…,N}. Infinite words are stored
exactly as (preperiod, period) pairs, canonicalised on construction:
the period is primitive and the preperiod is as short as possible, so
equality and the word metric are decidable. A finite word has an empty
period.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DomainError,
    EmptyAddressError,
    InvalidDigitError,
    SpecFormatError,
    TruncationDepthError,
)

Word = tuple[int, ...]


def check_digit(d: int, n_maps: int | None = None) -> int:
    if d == 0:
        raise InvalidDigitError("digit 0 is not in the alphabet")
    if n_maps is not None and abs(d) > n_maps:
        raise InvalidDigitError(f"digit {d} outside alphabet for N={n_maps}")
    return d


def _primitive(period: Word) -> Word:
    """Shortest word whose repetition gives `period`."""
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[: d] * (n // d):
            return period[: d]
    return period


@dataclass(frozen=True)
class Address:
    """A finite or eventually-periodic word, always in canonical form."""

    pre: Word = ()
    period: Word = ()

    def __post_init__(self):
        pre = tuple(int(d) for d in self.pre)
        period = tuple(int(d) for d in self.period)
        for d in pre + period:
            check_digit(d)
        if period:
            period = _primitive(period)
            # Absorb preperiod digits that just repeat the tail of the period:
            # u·z with z == period[-1] equals the same word as u with the
            # period rotated right. Keeps the preperiod minimal.
            while pre and pre[-1] == period[-1]:
                pre = pre[:-1]
                period = period[-1:] + period[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)

    # -- basic structure ----------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return bool(self.period)

    @property
    def is_empty(self) -> bool:
        return not self.pre and not self.period

    def digit(self, i: int) -> int | None:
        """1-based digit access; None past the end of a finite word."""
        if i < 1:
            raise IndexError("digits are indexed from 1")
        if i <= len(self.pre):
            return self.pre[i - 1]
        if not self.period:
            return None
        return self.period[(i - len(self.pre) - 1) % len(self.period)]

    def prefix(self, k: int) -> Word:
        """First k digits as a plain word (finite words must have >= k)."""
        out = []
        for i in range(1, k + 1):
            d = self.digit(i)
            if d is None:
                raise EmptyAddressError(f"address has no digit at index {i}")
            out.append(d)
        return tuple(out)

    def __str__(self) -> str:
        return format_address(self)

    # -- operations ----------------------------------------------------------

    def shifted(self, k: int) -> "Address":
        a = self
        for _ in range(k):
            a = shift(a)
        return a

    @classmethod
    def finite(cls, digits) -> "Address":
        return cls(tuple(digits), ())


@dataclass(frozen=True)
class AddressClass:
    """Membership flags for the standard subspaces of the code space."""

    in_I0: bool
    in_I: bool
    in_Iplus: bool
    in_Iminus: bool
    in_Ihat: bool
    in_Ihat_star: bool
    in_Jplus: bool
    in_Jminus: bool


def _adjacent_pairs(addr: Address):
    """All adjacent digit pairs of the infinite (or finite) word.

    Includes the preperiod->period junction and, for periodic words, the
    wrap from the period's last digit back to its first.
    """
    seq = addr.pre + addr.period
    for i in range(len(seq) - 1):
        yield seq[i], seq[i + 1]
    if addr.period:
        yield addr.period[-1], addr.period[0]


def is_valid_word(word: Word) -> bool:
    """No adjacent cancellation pair d, -d inside a plain finite word."""
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def _split_neg_pos(seq: Word) -> int | None:
    """Index k such that seq = negatives^k + positives, else None."""
    k = 0
    while k < len(seq) and seq[k] < 0:
        k += 1
    if all(d > 0 for d in seq[k:]):
        return k
    return None


def validate(addr: Address, n_maps: int) -> AddressClass:
    """Classify an address against the code-space chain for N = n_maps.

    Exact for eventually-periodic addresses. Finite words are classified
    by the same digit patterns (an all-positive finite word counts as
    positive, etc.); the empty word satisfies every pattern vacuously.
    """
    for d in addr.pre + addr.period:
        check_digit(d, n_maps)

    in_I = all(a != -b for a, b in _adjacent_pairs(addr))
    seq = addr.pre + addr.period
    all_pos = all(d > 0 for d in seq)
    all_neg = all(d < 0 for d in seq)

    # Eventually-positive/negative tail: decided by the period for infinite
    # words, by the trailing run for finite ones.
    if addr.period:
        tail_pos = all(d > 0 for d in addr.period)
        tail_neg = all(d < 0 for d in addr.period)
    else:
        tail_pos = tail_neg = True  # a finite word's tail is empty

    split = _split_neg_pos(seq)
    ihat = in_I and tail_pos and split is not None
    split_star = _split_neg_pos(tuple(-d for d in seq))
    ihat_star = in_I and tail_neg and split_star is not None

    return AddressClass(
        in_I0=True,
        in_I=in_I,
        in_Iplus=all_pos,
        in_Iminus=all_neg,
        in_Ihat=ihat,
        in_Ihat_star=ihat_star,
        in_Jplus=in_I and tail_pos,
        in_Jminus=in_I and tail_neg,
    )


def shift(addr: Address) -> Address:
    """Drop the first digit."""
    if addr.pre:
        return Address(addr.pre[1:], addr.period)
    if addr.period:
        return Address((), addr.period[1:] + addr.period[:1])
    raise EmptyAddressError("cannot shift the empty word")


def negate(addr: Address) -> Address:
    return Address(tuple(-d for d in addr.pre), tuple(-d for d in addr.period))


def sigma(n: int, addr: Address) -> Address:
    """Inverse shift: prepend n, or drop the first digit when it equals -n."""
    check_digit(n)
    first = addr.digit(1) if not addr.is_empty else None
    if first == -n:
        return shift(addr)
    return Address((n,) + addr.pre, addr.period)


def positive_tail_index(addr: Address) -> int | None:
    """Least K with every digit past position K positive, else None."""
    if addr.period and any(d < 0 for d in addr.period):
        return None
    seq = addr.pre
    k = len(seq)
    while k > 0 and seq[k - 1] > 0:
        k -= 1
    return k


def metric(a: Address, b: Address) -> Fraction:
    """Word metric 2^{-k}, k the first differing index (digits from 1).

    Exact on eventually-periodic words; a finite word is treated as ending
    with a distinct end marker, so a word and a proper extension of it
    differ at the first index past the shorter one.
    """
    if a == b:
        return Fraction(0)
    pa = len(a.period) or 1
    pb = len(b.period) or 1
    bound = max(len(a.pre), len(b.pre)) + pa * pb // gcd(pa, pb) + 1
    for i in range(1, bound + 1):
        da, db = a.digit(i), b.digit(i)
        if da != db:
            return Fraction(1, 2**i)
        if da is None:  # both ended: equal finite words, caught above
            break
    raise AssertionError("distinct canonical addresses must differ")


def word_metric(a: Word, b: Word) -> Fraction:
    """Metric on truncated words of equal length (0 when all digits agree)."""
    for i, (da, db) in enumerate(zip(a, b), start=1):
        if da != db:
            return Fraction(1, 2**i)
    if len(a) != len(b):
        return Fraction(1, 2 ** (min(len(a), len(b)) + 1))
    return Fraction(0)


def disjunctive_prefix(n_maps: int, length: int) -> Word:
    """First `length` digits of the Champernowne-style disjunctive word.

    All finite positive words in length-then-lexicographic order,
    concatenated; every finite positive word occurs as a subword.
    """
    if n_maps < 1 or length < 0:
        raise DomainError(f"need n_maps >= 1 and length >= 0, got {n_maps}, {length}")
    out: list[int] = []
    for wlen in itertools.count(1):
        for word in itertools.product(range(1, n_maps + 1), repeat=wlen):
            out.extend(word)
            if len(out) >= length:
                return tuple(out[:length])
    raise AssertionError


# -- the symbolic IFS of inverse shifts --------------------------------------


@dataclass(frozen=True)
class SymbolicSet:
    """A finite set of truncated words, all of the same certified length."""

    elements: frozenset[Word]
    depth: int

    def __post_init__(self):
        for w in self.elements:
            if len(w) != self.depth:
                raise ValueError("all elements must have length == depth")
            if not is_valid_word(w):
                raise ValueError(f"word {w} has an adjacent cancellation")

    @classmethod
    def singleton(cls, addr: Address, depth: int) -> "SymbolicSet":
        return cls(frozenset([addr.prefix(depth)]), depth)


def _sigma_truncated(n: int, w: Word) -> Word:
    # Cancellation keeps len-1 certified digits; prepending certifies one new
    # digit but the last one falls outside the uniform truncation length.
    if w and w[0] == -n:
        return w[1:]
    return (n,) + w[:-2] if len(w) >= 2 else (n,) + w[:0]


def iterate_symbolic_ifs(s: SymbolicSet, maps, k: int) -> SymbolicSet:
    """Apply the inverse-shift system (all sigma_n, n in `maps`) k times.

    Each application shortens the certified truncation by one digit, so
    the starting depth must exceed k.
    """
    if k >= s.depth:
        raise TruncationDepthError(
            f"depth {s.depth} cannot support {k} iterations"
        )
    maps = tuple(maps)
    for n in maps:
        check_digit(n)
    current = s
    for _ in range(k):
        new_depth = current.depth - 1
        elems = frozenset(
            _sigma_truncated(n, w)[:new_depth]
            for w in current.elements
            for n in maps
        )
        current = SymbolicSet(elems, new_depth)
    return current


def positive_truncations(n_maps: int, depth: int) -> SymbolicSet:
    """All positive words of the given length."""
    elems = frozenset(
        itertools.product(range(1, n_maps + 1), repeat=depth)
    )
    return SymbolicSet(elems, depth)


def symbolic_hausdorff(a: SymbolicSet, b: SymbolicSet) -> Fraction:
    """Exact Hausdorff distance between truncated-word sets under the
    word metric."""
    if a.depth != b.depth:
        raise ValueError("sets must share truncation depth")

    def directed(xs, ys):
        return max(min(word_metric(x, y) for y in ys) for x in xs)

    return max(directed(a.elements, b.elements), directed(b.elements, a.elements))


# -- textual syntax -----------------------------------------------------------

_ADDR_RE = re.compile(
    r"""^\s*
        (?P<pre>-?\d+(\.-?\d+)*)?                       # dot-separated digits
        (?:\.?\s*\(\s*(?P<per>-?\d+(\.-?\d+)*)\s*\)\s*\*)?   # .(d.d...)* period
        \s*$""",
    re.VERBOSE,
)


def parse_address(text: str) -> Address:
    """Parse the dotted signed-digit syntax, e.g. "-1.-1.(2)*"."""
    m = _ADDR_RE.match(text)
    if not m or (m.group("pre") is None and m.group("per") is None and text.strip()):
        raise SpecFormatError(f"cannot parse address {text!r}")
    pre = m.group("pre")
    per = m.group("per")
    pre_digits = tuple(int(t) for t in pre.split(".")) if pre else ()
    per_digits = tuple(int(t) for t in per.split(".")) if per else ()
    return Address(pre_digits, per_digits)


def format_address(addr: Address) -> str:
    parts = ".".join(str(d) for d in addr.pre)
    if addr.period:
        per = ".".join(str(d) for d in addr.period)
        return f"{parts}.({per})*" if parts else f"({per})*"
    return parts
