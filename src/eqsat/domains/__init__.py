"""Shipped rule sets: `math` (algebra with constant folding) and `lam`
(lambda-calculus partial evaluation with a free-variable analysis)."""

__all__ = ["lam", "math"]
