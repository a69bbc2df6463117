"""Signed words: free reduction, inversion, expansion and cyclic forms.

A word is a tuple of letters ``(x, e)`` with ``e`` = +-1.  The letters
are generator indices for group elements and edge names for edge paths;
nothing here depends on what they name, and nothing here checks a sign:
each sign a document gives is checked by its reader.  No other
``fixtrace`` module is imported.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


def reduce_word(letters: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Freely reduce a word given as (generator, +-1) letters."""
    out: List[Tuple[int, int]] = []
    for letter in letters:
        g, e = letter
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            # Share letter tuples between words: an orbit ball holds
            # thousands of words, and a fresh tuple per letter dominates it.
            out.append(letter if type(letter) is tuple else (g, e))
    return tuple(out)


def join_reduced(a, b) -> Tuple[Tuple[int, int], ...]:
    """Product of two freely reduced words (tuples): only letters meeting
    at the join can cancel, so the work is the length of the result, not
    a reduction of the whole concatenation.  Both words must already be
    reduced; the result is reduced then."""
    n = len(a)
    k = 0
    m = min(n, len(b))
    while k < m:
        g, e = a[n - 1 - k]
        h, f = b[k]
        if g != h or e != -f:
            break
        k += 1
    return a[:n - k] + b[k:]


def invert_word(word) -> Tuple[Tuple[int, int], ...]:
    """Inverse of a signed word: its letters (x, +-1) reversed, signs flipped."""
    return tuple((g, -e) for g, e in reversed(word))


def expand_word(word, image_of) -> List:
    """Concatenated images ``image_of(x)`` of the letters (x, +-1) of a
    signed word, inverted for sign -1 and not reduced."""
    out: List = []
    for x, e in word:
        w = image_of(x)
        out.extend(w if e == 1 else invert_word(w))
    return out


def cyclic_reduce(word):
    """Free reduction, then strip letters cancelling around the cycle."""
    w = list(reduce_word(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def cyclic_normal_form(word):
    """Shortlex-minimal cyclic rotation of the cyclic reduction."""
    w = cyclic_reduce(word)
    k = least_rotation(w)
    return w[k:] + w[:k]


def least_rotation(w) -> int:
    """Where the least rotation of a word starts, found in linear time by
    Duval's Lyndon factorization of the word written twice: the last factor
    starting in the first copy starts the least rotation."""
    n = len(w)
    ww = w + w
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and ww[k] <= ww[j]:
            k = i if ww[k] < ww[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start
