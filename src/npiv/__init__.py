"""Series estimation for instrumental regression with data-driven selection.

The package has four layers: the trigonometric basis and weight sequences
(``basis``), the thresholded series estimator (``estimator``), penalised
dimension selection with its cutoffs and oracle (``selection``), and the
synthetic data generator (``simulate``).  Each name is imported from its
module, as in ``from npiv.estimator import Sample``.  The ``npiv`` console
script (``cli``) drives them end to end.
"""

__version__ = "0.1.0"
