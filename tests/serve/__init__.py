"""Serving tests.

A package, so its modules import as ``serve.<name>`` and never clash with a
same-named module in another test directory collected in the same run
(``perfbench/tests/test_stats.py`` beside ``test_stats.py`` here).
"""
