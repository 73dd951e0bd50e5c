"""Hot-topic mining from webpage similarity graphs.

The pipeline ranks topic candidates by Poisson-deconvolution weights,
bundles ranked fragments into coarse topics, and refines each coarse topic
by greedy submodular selection with an automatic cut point. See the README
for the file formats and the CLI walkthrough.
"""

__version__ = "0.1.0"
