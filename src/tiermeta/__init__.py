"""Tiered filesystem-metadata store.

A hot in-memory namespace of file records with a threshold-triggered
separation policy that spills rarely used records to an append-only cold
file and promotes them back on access. Includes a deterministic workload
generator, experiment reports, and a small line-protocol TCP service.
"""
