"""Floating-point side: series, closed forms, quadrature and tracking.

Each name lives in one submodule (``closedform``, ``quadrature``,
``series``, ``tracking``); ``rootode`` exports the public ones.
"""
