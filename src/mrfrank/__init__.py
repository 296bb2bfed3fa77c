"""Future-influence ranking of papers and authors: burst-detected text
features plus time-aware citation/coauthor graphs combined in a
mutual-reinforcement eigenvector iteration.

The package imports none of its modules, so that the CLI loads numpy only
for a command that computes; import the names from their modules."""

__version__ = "0.1.0"
