"""Exact verification engine for the affine gl(2|2) denominator identity
and its companion identities."""
