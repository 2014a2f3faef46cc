"""Exact Schur Q-functions, radial Laplace-type operators, and verifiers."""
