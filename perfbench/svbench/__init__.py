"""Benchmark harness for svkit: seeded workloads, output checks and tracing.

The harness drives the public CLI in-process through ``svkit.cli.main``;
the only library call it makes directly is ``aam.finetune_head``, which
has no subcommand. Nothing here is imported by svkit itself.
"""
