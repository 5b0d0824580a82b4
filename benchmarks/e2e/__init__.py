"""The repo's one end-to-end benchmark (see ``benchmarks/e2e/README.md``).

``BENCHMARK.json`` at the repo root names the command, the workloads and
every metric; ``run.py`` is the command.
"""
