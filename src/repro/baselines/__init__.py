"""The profiling methods the paper considers and rejects.

Three software-only alternatives, each with the drawback the paper
describes, implemented so the comparison benchmark can show the trade-off
quantitatively:

* :mod:`repro.baselines.clock_profiler` — kgmon-style sampled-PC
  profiling: "the finer the granularity, the more time is spent running
  the profiling clock and not actually running the kernel";
* :mod:`repro.baselines.event_counters` — kernel statistics counters:
  "the poor granularity and lack of detail concerning where the kernel
  time is spent";
* :mod:`repro.baselines.benchmark_timing` — external throughput
  benchmarks (ttcp/iozone style): "they do not aid in discovering where
  optimisation should be employed".
"""
