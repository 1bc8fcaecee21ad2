"""The scalar inverse-CDF rule, kept as the tests' reference.

The library draws every outcome by ``linalg.Tree.draw``'s vectorised
rule; the per-call reference measurements in the tests draw by this
loop instead, so that agreement between the two is evidence.
"""


def draw_index(probs, rng) -> int:
    """Inverse-CDF draw of an index with the given probabilities from a
    single uniform; a uniform above the rounded total falls to the last
    index."""
    u = rng.random()
    acc = 0.0
    for k, pk in enumerate(probs):
        acc += pk
        if u < acc:
            return k
    return len(probs) - 1
