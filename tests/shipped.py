"""The example input files shipped in padicwf/examples, for the tests
that take their chains apart.  `example` parses a file afresh with
`cli.parse_input`, past the CLI's once-per-process memo
(`cli.example_input`)."""

from padicwf import cli


def example(name):
    """(GoodChain, Model, options) of the shipped example `name`, a key
    of `cli.EXAMPLES`."""
    return cli.example_input.__wrapped__(name)


def piece(name, depth):
    """The matrix of the example's chain piece at `depth`."""
    chain, _, _ = example(name)
    return next(g for _, g, r in chain.pieces if r == depth)
