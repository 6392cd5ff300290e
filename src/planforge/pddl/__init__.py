"""Typed STRIPS-style planning model: parsing, problem serialization, grounding."""
