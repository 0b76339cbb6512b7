"""The core counts the paper sweeps (Figs. 14 and 16).

A run's core count is part of its placement:
``NumaBackend(cores=N)`` places it, and :class:`~repro.numa.model.NumaModel`
prices it.
"""

#: Core counts swept in Figs. 14 and 16.
EVALUATED_CORE_COUNTS = (12, 24, 48, 96)
