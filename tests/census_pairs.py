"""The (degree, multiplicity) pairs of a census, the form the tests write expectations in."""


def pairs(census) -> tuple[tuple[int, int], ...]:
    """The census's two columns zipped into pairs, in degree order."""
    return tuple(zip(census.degrees, census.multiplicities, strict=True))
