"""Exact-arithmetic integrality certificates for hypergeometric q-coordinates."""
