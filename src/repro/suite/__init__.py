"""Benchmark suite: the 13 Figure 2 programs plus adversarial
generators where context-sensitivity provably wins."""
