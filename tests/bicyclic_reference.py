"""The bicyclic word oracle as first written: a stack that cancels each p
followed by q while the words of q^k p^l and q^m p^n are read left to right.
Kept as the reference for the suite's string-rewriting oracle and for the
product on integer points."""

from typing import List

from realbicyclic import Elem


def word_mul(k: int, l: int, m: int, n: int) -> Elem:
    """Multiply q^k p^l by q^m p^n as literal generator words, cancelling
    p followed by q."""
    stack: List[str] = []
    for g in ["q"] * k + ["p"] * l + ["q"] * m + ["p"] * n:
        if g == "q" and stack and stack[-1] == "p":
            stack.pop()
        else:
            stack.append(g)
    qs = stack.count("q")
    ps = stack.count("p")
    if stack != ["q"] * qs + ["p"] * ps:
        raise AssertionError(f"word did not normalise: {stack}")
    return Elem(qs, ps)
