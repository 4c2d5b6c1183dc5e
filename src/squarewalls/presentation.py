"""Group presentations in the square model.

A presentation is sampled from the density model at relator length 4:
the alphabet has n generators, the relator pool W_n is the set of all
cyclically reduced words of length exactly 4, and a presentation at
density d draws floor((2n-1)^(4d)) distinct relators uniformly from W_n.

Letters are signed integers: +k is the k-th generator, -k its inverse.
Words are tuples of letters. The canonical order on letters is
(abs(l), sign) with the inverse first, so a1^-1 < a1 < a2^-1 < a2 < ...;
words compare lexicographically in that order.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

Letter = int
Word = tuple[Letter, ...]

RELATOR_LENGTH = 4


def letter_key(l: Letter) -> tuple[int, int]:
    return (abs(l), 0 if l < 0 else 1)


def word_key(w: Word) -> tuple[tuple[int, int], ...]:
    return tuple(letter_key(l) for l in w)


def letter_token(l: Letter) -> str:
    if l == 0:
        raise ValueError("letter 0 is not valid")
    return f"a{l}" if l > 0 else f"a{-l}^-1"


def parse_letter(tok: str) -> Letter:
    tok = tok.strip()
    inv = tok.endswith("^-1")
    core = tok[:-3] if inv else tok
    if not core.startswith("a") or not core[1:].isdigit():
        raise ValueError(f"bad letter token: {tok!r}")
    k = int(core[1:])
    if k < 1:
        raise ValueError(f"bad letter token: {tok!r}")
    return -k if inv else k


def word_token(w: Word) -> str:
    return " ".join(letter_token(l) for l in w)


def alphabet(n: int) -> list[Letter]:
    """All 2n letters in canonical order: -1, 1, -2, 2, ..."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    out: list[Letter] = []
    for k in range(1, n + 1):
        out.append(-k)
        out.append(k)
    return out


def inverse_word(w: Word) -> Word:
    return tuple(-l for l in reversed(w))


def is_reduced(w: Word) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def is_cyclically_reduced(w: Word) -> bool:
    if not w:
        return True
    return is_reduced(w) and w[-1] != -w[0]


def free_reduce(w: Word) -> Word:
    out: list[Letter] = []
    for l in w:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def w_count(n: int) -> int:
    """|W_n| = number of cyclically reduced words of length 4 over n generators.

    Closed form (2n-1)^4 + (2n-1): the transfer count 2n(2n-1)^3 of reduced
    words minus the 2n(2n-1)(2n-2) whose last letter inverts the first.
    """
    m = 2 * n - 1
    return m**4 + m


def enumerate_cyclically_reduced(n: int, length: int = RELATOR_LENGTH) -> list[Word]:
    """All cyclically reduced words of the given length, canonically sorted:
    the product over the canonically ordered alphabet already yields that
    order."""
    letters = alphabet(n)
    return [w for w in itertools.product(letters, repeat=length) if is_cyclically_reduced(w)]


class CyclicallyReducedPool(Sequence):
    """Lazy view of the pool W_n, enumerate_cyclically_reduced(n): the same
    words at the same positions, unranked on demand and never stored.

    The k-th word is read letter by letter. The number of cyclically reduced
    completions of a prefix depends only on the letters still to place and on
    whether the prefix's last letter is the first letter f, its inverse -f,
    or neither; _counts[m] holds that number for each of the three classes.
    """

    _SAME, _INVERSE, _OTHER = 0, 1, 2

    def __init__(self, n: int):
        self.letters = alphabet(n)
        q = 2 * n
        # m = 0: the word is complete, and its last letter must not be -f
        counts = [(1, 0, 1)]
        for _ in range(RELATOR_LENGTH - 1):
            same, inv, other = counts[-1]
            counts.append((
                same + (q - 2) * other,  # after f: anything but -f
                inv + (q - 2) * other,  # after -f: anything but f
                same + inv + (q - 3) * other,  # after x != ±f: anything but -x
            ))
        self._counts = counts
        self._per_first = counts[-1][self._SAME]

    def __len__(self) -> int:
        return len(self.letters) * self._per_first

    def __getitem__(self, k):
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("pool index out of range")
        first = self.letters[k // self._per_first]
        k %= self._per_first
        word = [first]
        for m in range(RELATOR_LENGTH - 2, -1, -1):
            for letter in self.letters:
                if letter == -word[-1]:
                    continue
                if letter == first:
                    c = self._counts[m][self._SAME]
                elif letter == -first:
                    c = self._counts[m][self._INVERSE]
                else:
                    c = self._counts[m][self._OTHER]
                if k < c:
                    word.append(letter)
                    break
                k -= c
        return tuple(word)


def relator_count(n: int, d: float) -> int:
    """floor((2n-1)^(4d)), clamped to [1, |W_n|].

    Values that are within 1e-9 of an integer are rounded first so that
    e.g. d=0.25 at any rank gives exactly 2n-1 despite float pow noise.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    if not (0.0 < d < 1.0):
        raise ValueError("density must be in (0,1)")
    x = float(2 * n - 1) ** (RELATOR_LENGTH * d)
    r = round(x)
    count = r if abs(x - r) < 1e-9 else math.floor(x)
    return max(1, min(count, w_count(n)))


@dataclass(frozen=True)
class Presentation:
    rank: int
    density: float
    seed: int
    relators: tuple[Word, ...] = field(default=())

    def __post_init__(self):
        for w in self.relators:
            if len(w) != RELATOR_LENGTH or not is_cyclically_reduced(w):
                raise ValueError(f"relator {w} is not cyclically reduced of length 4")
            if not all(1 <= abs(l) <= self.rank for l in w):
                raise ValueError(f"relator {w} has a letter outside rank {self.rank}")
        if len(set(self.relators)) != len(self.relators):
            raise ValueError("relators must be distinct")

    def to_json(self) -> str:
        return json.dumps(
            {
                "rank": self.rank,
                "density": self.density,
                "seed": self.seed,
                "relators": [[letter_token(l) for l in w] for w in self.relators],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, s: str) -> "Presentation":
        d = json.loads(s)
        return cls(
            rank=d["rank"],
            density=d["density"],
            seed=d["seed"],
            relators=tuple(tuple(parse_letter(t) for t in w) for w in d["relators"]),
        )


_SAMPLE_ENUM_LIMIT = 500_000


def sample_presentation(n: int, d: float, seed: int) -> Presentation:
    """Draw floor((2n-1)^(4d)) distinct relators uniformly from W_n.

    Deterministic in (n, d, seed). For small pools random.sample draws from
    the lazy view of the canonically ordered pool, which reads the same words
    at the same positions as the enumerated list; for large ranks distinct
    words are rejection-sampled letter by letter, which is uniform because
    every cyclically reduced word is hit with equal probability.
    """
    count = relator_count(n, d)
    rng = random.Random(seed)
    total = w_count(n)
    if total <= _SAMPLE_ENUM_LIMIT:
        chosen = rng.sample(CyclicallyReducedPool(n), count)
    else:
        letters = alphabet(n)
        seen: set[Word] = set()
        chosen = []
        while len(chosen) < count:
            w = tuple(rng.choice(letters) for _ in range(RELATOR_LENGTH))
            if is_cyclically_reduced(w) and w not in seen:
                seen.add(w)
                chosen.append(w)
    chosen.sort(key=word_key)
    return Presentation(rank=n, density=d, seed=seed, relators=tuple(chosen))
