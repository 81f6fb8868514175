"""Shared hypothesis strategies, and seeded inputs, used across the test suite."""

import random

from hypothesis import strategies as st

from pinclasses.cperm import CentredPerm
from pinclasses.pinword import PinSpec, PinWord, is_recurrent


@st.composite
def pin_words(draw, max_letters=7, min_letters=0):
    numeral = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=min_letters, max_value=max_letters))
    letters = []
    for _ in range(n):
        if letters and letters[-1] in "lr":
            letters.append(draw(st.sampled_from("ud")))
        elif letters:
            letters.append(draw(st.sampled_from("lr")))
        else:
            letters.append(draw(st.sampled_from("udlr")))
    return PinWord(numeral, "".join(letters))


@st.composite
def pin_specs(draw, cycle_lengths=(2, 4), max_prefix_letters=4):
    # An internally alternating cycle of even length always alternates across
    # the wrap; only the prefix-cycle junction needs care.
    word = draw(pin_words(max_letters=max_prefix_letters))
    length = draw(st.sampled_from(cycle_lengths))
    prev = word.letters[-1] if word.letters else None
    cycle = []
    for _ in range(length):
        if prev is None:
            options = "udlr"
        elif prev in "lr":
            options = "ud"
        else:
            options = "lr"
        prev = draw(st.sampled_from(options))
        cycle.append(prev)
    return PinSpec(word, "".join(cycle))


def recurrent_specs(cycle_lengths=(2, 4)):
    """Specs with a bare-numeral prefix, kept when every factor recurs
    (about one draw in four)."""
    return pin_specs(cycle_lengths, max_prefix_letters=0).filter(is_recurrent)


@st.composite
def centred_perms(draw, max_n=6, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    values = list(range(1, n + 2))
    random_state = draw(st.randoms(use_true_random=False))
    random_state.shuffle(values)
    origin = draw(st.integers(min_value=1, max_value=n + 1))
    return CentredPerm(tuple(values), origin)


def spec_of_size(size: int) -> str:
    """A seeded spec text of ``size`` symbols: the numeral, one prefix
    letter when ``size`` is even, and a cycle that alternates the axes and
    uses the two letters of each axis about equally often."""
    prefix = "1" + "r" * (1 - size % 2)
    pairs = (size - len(prefix)) // 2
    rng = random.Random(7)
    ud, lr = list("ud" * pairs)[:pairs], list("lr" * pairs)[:pairs]
    rng.shuffle(ud)
    rng.shuffle(lr)
    return prefix + "(" + "".join(a + b for a, b in zip(ud, lr)) + ")*"
