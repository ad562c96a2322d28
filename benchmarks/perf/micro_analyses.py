"""Compiler analyses: liveness and dependence-DAG construction on
espresso's largest FULLPRED hyperblock.  Run with
``PYTHONPATH=src python benchmarks/perf/micro_analyses.py``."""

from repro.fastpath import micro

if __name__ == "__main__":
    print(micro.render(micro.bench_analyses()))
