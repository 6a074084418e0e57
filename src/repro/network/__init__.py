"""Deployed networks and their communication graphs.

:class:`Network` answers every communication-graph question — connectivity,
diameter ``D``, eccentricity, BFS layers, neighbours, maximum degree
``Delta`` and granularity ``Rs`` — from one radius query, the CSR of
:meth:`~repro.network.network.Network.adjacency_within` at the
communication radius ``(1 - eps) r`` (paper Sect. 1.1), walked by one BFS.
"""

from repro.network.network import Network

__all__ = ["Network"]
