"""Benchmark for the OCR job and the ops surface (see README.md)."""
