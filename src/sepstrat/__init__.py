"""Strategy-driven purification of separation-logic entailments.

The package provides the entailment and strategy ASTs (`core`, `frontend`),
a first-order pattern matcher (`matcher`), the reduction engine with JSON
traces (`engine`), a conservative EUF+LIA side-condition solver (`smt`),
soundness-condition generation (`soundness`), and a CLI (`cli`).
"""

__version__ = "0.1.0"
